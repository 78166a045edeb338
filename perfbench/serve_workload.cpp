// `serve_unique` and `serve_zipf`: requests against a PredictionService
// at its default ServiceConfig (2 workers, cache on) from one generator
// thread, resolved in order by one collector thread.
//
//   serve_unique  every request is a distinct architecture; the cache is
//                 filled to capacity first, so every miss also evicts
//   serve_zipf    Zipf s=1.1 over 4096 architectures, cache pre-warmed
//
// The untraced run sends bursts back to back (requests per second and
// latency under saturation). The traced run adds the open loop: seeded
// Poisson arrivals over a fixed geometric ladder of rates (qps_at_slo)
// and a fixed reference rate, with latency measured from each request's
// scheduled send time so a generator that falls behind cannot hide
// queueing. Every answer is compared bit for bit with a direct predict()
// of its architecture, computed outside both the set-up and the timed
// windows.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <thread>
#include <stdexcept>

#include "perfbench.hpp"
#include "serve/resilience.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace ln = lightnas;

namespace {

constexpr double kSloUs = 1000.0;
/// A rung whose generator starts requests later than this (p99) past
/// their schedule is invalid: it no longer offers the nominal rate.
constexpr double kMaxLatenessUs = 100.0;
/// Give up on a rung once the generator is this far behind.
constexpr double kAbortLatenessUs = 20000.0;
/// Rung r_k = base * kLadderStep^k; coarse exploration strides
/// kCoarseStride rungs, then walks single rungs above the last pass.
constexpr double kLadderStep = 1.05;
constexpr int kCoarseStride = 6;
constexpr int kLadderRungs = 150;
constexpr double kRungSeconds = 0.25;
/// Tail statistics are medians over windows of this many requests (see
/// windowed_quantile), and a rung holds at least five windows.
constexpr std::size_t kWindow = 500;
constexpr std::size_t kRungMinRequests = 5 * kWindow;
/// Far above the knee a rung is cut short rather than sized by its rate.
constexpr std::size_t kRungMaxRequests = 150000;
constexpr int kAttempts = 3;
/// Polls of the send counter before the collector blocks (~100 us).
constexpr int kCollectorSpins = 1000;
constexpr int kBursts = 5;
/// Distinct architectures generated for a serve_unique run. A run that
/// sends more wraps around, but an architecture then comes back only
/// after 12x the cache's capacity of other requests: still a miss.
constexpr std::size_t kUniquePool = 800000;

/// Per-workload constants.
struct Mix {
  bool zipf;
  double ladder_base;           ///< lowest offered rate, q/s
  double reference_rate;        ///< fixed rate of the reference window, q/s
  std::size_t reference_count;  ///< requests in the reference window
  std::size_t burst;            ///< requests per back-to-back burst
};

// Reference rates are about half of qps_at_slo on the reference host
// (4 vCPUs, AVX2; ~140k q/s uncached, ~480k q/s Zipf).
constexpr Mix kUnique{false, 20000.0, 70000.0, 140000, 40000};
constexpr Mix kZipf{true, 100000.0, 240000.0, 480000, 200000};

/// The requests of one phase: architectures and scheduled send offsets
/// from the phase start (all zero for a burst).
struct Load {
  std::vector<const ln::space::Architecture*> archs;
  std::vector<std::int64_t> offsets_ns;
};

struct Phase {
  std::size_t sent = 0;
  std::vector<double> latency_us;
  std::vector<double> lateness_us;
  std::vector<double> submit_us;
  std::vector<double> outstanding;
  std::vector<Outcome> outcomes;
  std::vector<double> values;
  bool aborted = false;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  /// Service counters at the phase's start and end.
  ln::serve::ServiceStats before, after;

  double cache_hit_rate() const {
    const double hits = after.cache.hits - before.cache.hits;
    const double misses = after.cache.misses - before.cache.misses;
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  }
  double batch_mean() const { return delta_mean(&ln::serve::ServiceStats::batch_size); }
  double queue_depth_mean() const {
    return delta_mean(&ln::serve::ServiceStats::queue_depth);
  }

 private:
  double delta_mean(
      ln::util::HistogramSnapshot ln::serve::ServiceStats::*field) const {
    const double count = (after.*field).count - (before.*field).count;
    return count > 0 ? ((after.*field).sum - (before.*field).sum) / count : 0.0;
  }
};

/// Source of request architectures for one run.
class Requests {
 public:
  Requests(const Setup& setup, const Mix& mix, std::uint64_t seed,
           std::size_t unique_pool)
      : mix_(mix), rng_(seed * 0x9e3779b97f4a7c15ULL + 11) {
    if (mix.zipf) {
      pool_ = ln::serve::random_architecture_pool(setup.space, 4096, rng_);
      zipf_ = std::make_unique<ln::serve::ZipfSampler>(pool_.size(), 1.1);
      return;
    }
    // Distinct architectures, stored compactly until a phase needs them.
    std::vector<std::uint64_t> fingerprints;
    fingerprints.reserve(unique_pool);
    compact_.reserve(unique_pool * setup.space.num_layers());
    for (std::size_t i = 0; i < unique_pool; ++i) {
      const ln::space::Architecture arch =
          setup.space.random_architecture(rng_);
      fingerprints.push_back(arch.fingerprint());
      for (const std::size_t op : arch.ops()) {
        compact_.push_back(static_cast<std::uint8_t>(op));
      }
    }
    // A repeat would be a cache hit; in a space of ~7^21 architectures
    // none is expected, so one is refused rather than handled.
    std::sort(fingerprints.begin(), fingerprints.end());
    if (std::adjacent_find(fingerprints.begin(), fingerprints.end()) !=
        fingerprints.end()) {
      throw std::runtime_error("unique request pool holds a repeat");
    }
    layers_ = setup.space.num_layers();
  }

  /// `count` request architectures for the next phase; unique
  /// architectures are never handed out twice (the pool wraps only after
  /// far more requests than the cache holds).
  std::vector<const ln::space::Architecture*> next(std::size_t count) {
    std::vector<const ln::space::Architecture*> out;
    out.reserve(count);
    if (mix_.zipf) {
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back(&pool_[zipf_->sample(rng_)]);
      }
      return out;
    }
    phase_storage_.clear();
    phase_storage_.reserve(count);
    const std::size_t pool = compact_.size() / layers_;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint8_t* ops = &compact_[(cursor_++ % pool) * layers_];
      phase_storage_.emplace_back(
          std::vector<std::size_t>(ops, ops + layers_));
    }
    for (const auto& arch : phase_storage_) out.push_back(&arch);
    return out;
  }

  const std::vector<ln::space::Architecture>& zipf_pool() const {
    return pool_;
  }

 private:
  Mix mix_;
  ln::util::Rng rng_;
  std::vector<ln::space::Architecture> pool_;
  std::unique_ptr<ln::serve::ZipfSampler> zipf_;
  std::vector<std::uint8_t> compact_;
  std::size_t layers_ = 0;
  std::size_t cursor_ = 0;
  std::vector<ln::space::Architecture> phase_storage_;
};

/// Poisson arrivals at `rate` for `count` requests.
std::vector<std::int64_t> poisson_offsets(double rate, std::size_t count,
                                          ln::util::Rng& rng) {
  std::vector<std::int64_t> offsets(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    offsets[i] = static_cast<std::int64_t>(t * 1e9);
    t += -std::log(1.0 - rng.uniform()) / rate;
  }
  return offsets;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Drive one phase through `service`: a generator thread sends, a
/// collector thread resolves; the service is drained when it returns.
Phase run_phase(ln::serve::PredictionService& service, const Load& load,
                Tracer* tracer) {
  const std::size_t n = load.archs.size();
  Phase phase;
  phase.before = service.stats();
  phase.latency_us.assign(n, 0.0);
  phase.lateness_us.assign(n, 0.0);
  phase.submit_us.assign(n, 0.0);
  phase.outcomes.assign(n, Outcome::kUnresolved);
  phase.values.assign(n, 0.0);
  std::vector<std::future<double>> futures(n);
  // Requests sent so far; kDone is set once the generator has finished.
  // Each counter has a cache line of its own: one thread writes it while
  // the other polls, and a shared line made the cache-hit latency of
  // whole runs jump by ~15 % with the stack's placement.
  constexpr std::size_t kDone = std::size_t{1} << 63;
  alignas(64) std::atomic<std::size_t> published{0};
  alignas(64) std::atomic<std::size_t> collected{0};
  const std::size_t sample_every = std::max<std::size_t>(1, n / 48);
  const std::int64_t t0 = now_ns() + 1000000;  // start 1 ms out

  std::thread generator([&] {
    std::size_t i = 0;
    for (; i < n; ++i) {
      const std::int64_t target = t0 + load.offsets_ns[i];
      // Sleep only when far ahead: timer wake-ups can overshoot by
      // hundreds of microseconds, so the last stretch is spun.
      std::int64_t now = now_ns();
      if (target - now > 3000000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(target - now - 2000000));
      }
      while ((now = now_ns()) < target) cpu_relax();
      phase.lateness_us[i] = (now - target) / 1e3;
      if (phase.lateness_us[i] > kAbortLatenessUs && load.offsets_ns[i] > 0) {
        phase.aborted = true;
        break;
      }
      {
        ScopedSpan span(tracer, "serve.submit");
        futures[i] = service.submit(*load.archs[i]);
      }
      phase.submit_us[i] = (now_ns() - now) / 1e3;
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
      if (i % sample_every == 0) {
        phase.outstanding.push_back(static_cast<double>(
            i + 1 - collected.load(std::memory_order_relaxed)));
      }
    }
    phase.sent = i;
    published.store(i | kDone, std::memory_order_release);
    published.notify_one();
  });

  // The collector blocks on each future in send order. A request still
  // unresolved long after its schedule counts as unresolved.
  std::thread collector([&] {
    const auto patience = std::chrono::seconds(10);
    for (std::size_t i = 0;; ++i) {
      // While ahead of the generator, spin briefly (the next request is
      // usually microseconds away, and a futex wake-up costs more than a
      // cache hit), then block: a second busy thread beside the spinning
      // generator would cost the host's vCPUs.
      int spins = 0;
      for (std::size_t seen;
           ((seen = published.load(std::memory_order_acquire)) & ~kDone) <=
           i;) {
        if (seen & kDone) return;
        if (++spins < kCollectorSpins) {
          cpu_relax();
          continue;
        }
        published.wait(seen, std::memory_order_acquire);
      }
      std::future<double>& future = futures[i];
      if (future.wait_for(patience) == std::future_status::ready) {
        try {
          phase.values[i] = future.get();
          phase.outcomes[i] = Outcome::kValue;
        } catch (const ln::serve::ServiceError&) {
          phase.outcomes[i] = Outcome::kTypedError;
        } catch (...) {
          phase.outcomes[i] = Outcome::kOtherError;
        }
      }
      const std::int64_t done = now_ns();
      phase.latency_us[i] = (done - (t0 + load.offsets_ns[i])) / 1e3;
      collected.store(i + 1, std::memory_order_relaxed);
      phase.wall_s = (done - t0) / 1e9;
    }
  });
  generator.join();
  collector.join();

  phase.latency_us.resize(phase.sent);
  phase.lateness_us.resize(phase.sent);
  phase.submit_us.resize(phase.sent);
  phase.after = service.stats();
  return phase;
}

/// Direct predict() of every architecture, split over up to three
/// threads (predict is const-thread-safe).
std::vector<double> direct_predictions(
    const ln::predictors::MlpPredictor& predictor,
    const std::vector<const ln::space::Architecture*>& archs) {
  std::vector<double> out(archs.size());
  const std::size_t threads = 3;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < archs.size(); i += threads) {
        out[i] = predictor.predict(*archs[i]);
      }
    });
  }
  for (auto& thread : pool) thread.join();
  return out;
}

/// Account every sent request of a phase; returns how many failed.
std::uint64_t account(const Phase& phase, const std::vector<double>& expected,
                      Result& result) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < phase.sent; ++i) {
    const bool ok = request_ok(phase.outcomes[i], phase.values[i], expected[i]);
    result.tally.add(ok);
    if (!ok) ++failed;
  }
  return failed;
}

class ServeRun {
 public:
  ServeRun(const Options& options, Setup& setup, const Mix& mix)
      : setup_(setup),
        mix_(mix),
        requests_(setup, mix, options.seed, mix.zipf ? 0 : kUniquePool),
        schedule_rng_(options.seed * 0x2545f4914f6cdd1dULL + 3) {}

  /// Expected values of the zipf pool, computed once.
  void prepare_expected() {
    if (!mix_.zipf) return;
    std::vector<const ln::space::Architecture*> pool;
    for (const auto& arch : requests_.zipf_pool()) pool.push_back(&arch);
    zipf_expected_ = direct_predictions(*setup_.predictor, pool);
  }

  /// Bring a new service to steady state: for serve_zipf every pool
  /// architecture is cached; for serve_unique the cache is filled to
  /// capacity, so every later miss also pays an eviction. `rate` paces
  /// the fill (0 sends it back to back).
  void warm(ln::serve::PredictionService& service, Result& result,
            double rate = 0.0) {
    if (mix_.zipf) {
      std::vector<std::future<double>> futures;
      for (const auto& arch : requests_.zipf_pool()) {
        futures.push_back(service.submit(arch));
      }
      for (auto& future : futures) future.wait();
      return;
    }
    phase(service, rate, service.config().cache_capacity + 4096, result);
  }

  /// Run one phase and account its requests; `rate` 0 is a burst.
  Phase phase(ln::serve::PredictionService& service, double rate,
              std::size_t count, Result& result, Tracer* tracer = nullptr) {
    Load load;
    load.archs = requests_.next(count);
    load.offsets_ns = rate > 0.0
                          ? poisson_offsets(rate, count, schedule_rng_)
                          : std::vector<std::int64_t>(count, 0);
    Phase out = run_phase(service, load, tracer);
    std::vector<double> expected;
    if (mix_.zipf) {
      const auto* base = requests_.zipf_pool().data();
      expected.reserve(count);
      for (const auto* arch : load.archs) {
        expected.push_back(zipf_expected_[arch - base]);
      }
    } else {
      expected = direct_predictions(*setup_.predictor, load.archs);
    }
    out.failed = account(out, expected, result);
    return out;
  }

  /// The rung at ladder index k, measured up to kAttempts times until it
  /// meets the SLO: on a shared host one attempt can be spoilt by a
  /// stall of the host rather than by the service (an attempt whose
  /// generator ran late is not even a valid measurement).
  Rung rung(ln::serve::PredictionService& service, int k, Result& result) {
    const double rate = mix_.ladder_base * std::pow(kLadderStep, k);
    const std::size_t count = std::clamp<std::size_t>(
        static_cast<std::size_t>(rate * kRungSeconds), kRungMinRequests,
        kRungMaxRequests);
    Rung r;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      const Phase p = phase(service, rate, count, result);
      r.rate = rate;
      r.p99_us = windowed_quantile(p.latency_us, kWindow, 0.99);
      r.failed = p.failed;
      r.backlog_growing = backlog_growing(p.outstanding);
      const double late_us = windowed_quantile(p.lateness_us, kWindow, 0.99);
      r.generator_late = p.aborted || late_us > kMaxLatenessUs;
      std::printf("  rung %3d: %10.0f q/s  p99 %9.1f us  lateness p99 %8.1f "
                  "us  backlog %s  failed %llu  -> %s\n",
                  k, rate, r.p99_us, late_us,
                  r.backlog_growing ? "growing" : "steady",
                  static_cast<unsigned long long>(r.failed),
                  meets_slo(r, kSloUs) ? "met"
                  : r.generator_late   ? "invalid (generator late)"
                                       : "missed");
      if (meets_slo(r, kSloUs)) break;
    }
    return r;
  }

  /// Coarse walk up the ladder until two rungs in a row miss after the
  /// first pass (one miss can be a host hiccup; below the first pass up
  /// to three in a row are tolerated), then single rungs above the
  /// highest coarse pass until one misses.
  double ladder(ln::serve::PredictionService& service, Result& result) {
    std::vector<Rung> rungs;
    int last_pass = -1;
    int misses = 0;
    for (int k = 0; k <= kLadderRungs && misses < (last_pass < 0 ? 3 : 2);
         k += kCoarseStride) {
      rungs.push_back(rung(service, k, result));
      if (meets_slo(rungs.back(), kSloUs)) {
        last_pass = k;
        misses = 0;
      } else {
        ++misses;
      }
    }
    if (last_pass >= 0) {
      for (int j = last_pass + 1;
           j < last_pass + kCoarseStride && j <= kLadderRungs; ++j) {
        rungs.push_back(rung(service, j, result));
        if (!meets_slo(rungs.back(), kSloUs)) break;
      }
    }
    return qps_at_slo(rungs, kSloUs);
  }

 private:
  Setup& setup_;
  Mix mix_;
  Requests requests_;
  ln::util::Rng schedule_rng_;
  std::vector<double> zipf_expected_;
};

}  // namespace

void run_serve(const Options& options, Setup& setup, bool zipf,
               Result& result) {
  const Mix& mix = zipf ? kZipf : kUnique;
  const std::int64_t t_inputs = now_ns();
  ServeRun run(options, setup, mix);
  setup.setup_s += (now_ns() - t_inputs) / 1e9;
  run.prepare_expected();

  if (!options.trace) {
    // Bursts sent back to back for the whole window (at least kBursts);
    // each figure is the median over the bursts.
    ln::serve::PredictionService service(*setup.predictor);
    run.warm(service, result);
    std::vector<double> walls, p50s, p99s;
    double requests = 0.0, seconds = 0.0;
    const std::int64_t start = now_ns();
    while (walls.size() < static_cast<std::size_t>(kBursts) ||
           (now_ns() - start) / 1e9 < options.seconds) {
      const Phase p = run.phase(service, 0.0, mix.burst, result);
      std::vector<double> latency(p.sent);
      for (std::size_t i = 0; i < p.sent; ++i) {
        latency[i] = p.latency_us[i] - p.lateness_us[i];  // from the send
      }
      walls.push_back(p.wall_s);
      p50s.push_back(windowed_quantile(latency, kWindow, 0.50));
      p99s.push_back(windowed_quantile(latency, kWindow, 0.99));
      requests += static_cast<double>(p.sent);
      seconds += p.wall_s;
    }
    std::printf("%zu bursts of %zu: median %.4f s, %.0f q/s, latency p50 "
                "%.1f us, p99 %.1f us\n",
                walls.size(), mix.burst, median(walls), requests / seconds,
                median(p50s), median(p99s));
    result.set("wall_s", median(walls), "s");
    result.set("p50_us", median(p50s), "us");
    result.set("p99_us", median(p99s), "us");
    return;
  }

  // Traced. First the open-loop ladder (qps_at_slo) and the reference
  // window on a plain service; then bursts on an untraced and on a traced
  // service (the overhead); then the reference window again on a traced
  // service, warmed at the reference rate, for the split of the request
  // path.
  {
    ln::serve::PredictionService service(*setup.predictor);
    run.warm(service, result);
    std::printf("%s ladder (SLO: p99 <= %.0f us from the scheduled send):\n",
                options.workload.c_str(), kSloUs);
    result.set("serve.qps_at_slo", run.ladder(service, result), "1/s");
    const Phase reference = run.phase(service, mix.reference_rate,
                                      mix.reference_count, result);
    result.set("serve.ref_p50_us",
               windowed_quantile(reference.latency_us, kWindow, 0.50), "us");
    result.set("serve.ref_p99_us",
               windowed_quantile(reference.latency_us, kWindow, 0.99), "us");
  }
  Tracer* tracer = options.tracer;
  std::vector<double> untraced, traced;
  {
    ln::serve::PredictionService service(*setup.predictor);
    run.warm(service, result);
    for (int b = 0; b < kBursts; ++b) {
      untraced.push_back(run.phase(service, 0.0, mix.burst, result).wall_s);
    }
  }
  const TimedPredictor timed(*setup.predictor, tracer);
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::vector<Span> burst_spans;
  {
    ln::serve::PredictionService service(timed);
    run.warm(service, result);
    for (int b = 0; b < kBursts; ++b) {
      tracer->clear();  // coverage is taken over the last burst
      begin = now_ns();
      traced.push_back(
          run.phase(service, 0.0, mix.burst, result, tracer).wall_s);
      end = now_ns();
    }
    burst_spans = tracer->spans();
  }
  ln::serve::PredictionService service(timed);
  run.warm(service, result, mix.reference_rate);
  tracer->clear();
  const Phase reference = run.phase(service, mix.reference_rate,
                                    mix.reference_count, result, tracer);
  const auto stats = aggregate(tracer->spans());
  const auto batch = stats.find("predictors.predict_batch");
  result.set("predictors.predict_batch_us",
             batch == stats.end() ? 0.0 : batch->second.mean_us(), "us");
  result.set("predictors.batch_rows",
             batch == stats.end() ? 0.0 : batch->second.mean_payload(), "rows");
  result.set("serve.submit_us", mean(reference.submit_us), "us");
  // The service's own histogram covers its whole life: the paced warm-up
  // and the reference window, both at the reference rate.
  result.set("serve.service_p99_us", reference.after.latency_us.p99, "us");
  result.set("serve.batch_mean", reference.batch_mean(), "rows");
  result.set("serve.queue_depth_mean", reference.queue_depth_mean(), "count");
  result.set("serve.cache_hit_rate", reference.cache_hit_rate(), "ratio");
  result.set("load.lateness_p99_us",
             windowed_quantile(reference.lateness_us, kWindow, 0.99), "us");
  report_reuse(reference.after.pool, ln::nn::plan::PlanStats{}, result);
  report_trace(options, burst_spans, median(untraced), median(traced), begin,
               end, result);
}

}  // namespace perfbench
