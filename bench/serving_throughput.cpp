// Serving-throughput campaign: the scalability counterpart of the
// search-cost tables.
//
// The north-star deployment amortizes one trained predictor across many
// concurrent consumers (search loops, baselines, external callers). This
// bench quantifies the three levers the serve/ subsystem stacks on top
// of the sequential CostOracle::predict baseline:
//   1. micro-batching   — B pending queries -> one B x (L*K) MLP forward,
//   2. sharded LRU cache — Zipf-skewed popularity means hot
//      architectures are answered without any forward at all,
//   3. concurrency      — multiple batching workers + many clients.
//
// Headline number: closed-loop queries/sec vs the single-thread
// baseline on the same Zipf workload (acceptance floor: >= 5x), with
// cache hit rate, p50/p99 latency, and mean batch size reported per
// configuration.
//
// A second gate keeps the baseline honest: the trained predictor's
// predict_batch(32) must run within 1.5x of a freshly initialized
// predictor of the same shape. Subnormal weights left by training once
// made it ~25x slower at full scale, which inflated every speedup
// measured against the sequential baseline.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "util/table.hpp"

using namespace lightnas;

namespace {

/// Median wall time of one predict_batch call over `batch`, in us.
double time_predict_batch(const predictors::MlpPredictor& predictor,
                          const std::vector<space::Architecture>& batch) {
  constexpr int kRounds = 41;
  constexpr int kCallsPerRound = 25;
  for (int i = 0; i < kCallsPerRound; ++i) {
    predictor.predict_batch(batch);  // warm-up
  }
  std::vector<double> per_call_us;
  for (int round = 0; round < kRounds; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kCallsPerRound; ++i) predictor.predict_batch(batch);
    const std::chrono::duration<double, std::micro> dt =
        std::chrono::steady_clock::now() - t0;
    per_call_us.push_back(dt.count() / kCallsPerRound);
  }
  std::nth_element(per_call_us.begin(),
                   per_call_us.begin() + kRounds / 2, per_call_us.end());
  return per_call_us[kRounds / 2];
}

}  // namespace

int main() {
  bench::banner("serving_throughput",
                "concurrent batched prediction service (extends the "
                "Sec 3.2 predictor into a serving layer)");

  bench::Pipeline pipeline;
  const auto predictor = bench::train_latency_predictor(pipeline);

  util::Rng rng(123);
  const std::vector<space::Architecture> pool =
      serve::random_architecture_pool(pipeline.space,
                                      bench::scaled(4096, 1024), rng);
  const serve::ZipfSampler zipf(pool.size(), 1.1);
  const std::size_t requests = bench::scaled(400000, 80000);
  const std::uint64_t seed = 99;

  std::printf("pool=%zu architectures, zipf s=1.1, %zu requests\n\n",
              pool.size(), requests);

  // Same shape, fresh initialization, marked trained so it serves.
  predictors::MlpPredictor::State fresh_state =
      predictors::MlpPredictor(pipeline.space.num_layers(),
                               pipeline.space.num_ops(), 3)
          .export_state();
  fresh_state.trained = true;
  const predictors::MlpPredictor fresh =
      predictors::MlpPredictor::from_state(fresh_state);
  const std::vector<space::Architecture> batch(pool.begin(),
                                               pool.begin() + 32);
  const double trained_us = time_predict_batch(*predictor, batch);
  const double fresh_us = time_predict_batch(fresh, batch);
  const double ratio = trained_us / fresh_us;
  constexpr double kRatioMax = 1.5;
  const bool ratio_pass = ratio <= kRatioMax;
  std::printf("predict_batch(32): trained %.1f us, fresh %.1f us -> "
              "%.2fx (max %.1fx) %s\n\n",
              trained_us, fresh_us, ratio, kRatioMax,
              ratio_pass ? "OK" : "TOO SLOW");

  const serve::LoadResult baseline = serve::run_sequential_baseline(
      *predictor, pool, zipf, requests, seed);
  std::printf("sequential baseline: %.0f q/s (%.2f s wall)\n\n",
              baseline.qps(), baseline.wall_seconds);

  struct Config {
    const char* label;
    std::size_t workers;
    std::size_t clients;
    std::size_t max_batch;
    std::size_t cache_capacity;
  };
  const std::vector<Config> configs = {
      {"1 worker, no cache", 1, 32, 64, 0},
      {"1 worker, cached", 1, 32, 64, 1 << 16},
      {"2 workers, cached", 2, 32, 64, 1 << 16},
      {"4 workers, cached", 4, 64, 64, 1 << 16},
  };

  util::Table table({"config", "q/s", "speedup", "hit rate", "p50 us",
                     "p99 us", "mean batch"});
  double best_speedup = 0.0;
  double best_qps = 0.0;
  for (const Config& config : configs) {
    serve::ServiceConfig service_config;
    service_config.num_workers = config.workers;
    service_config.max_batch = config.max_batch;
    service_config.cache_capacity = config.cache_capacity;
    service_config.queue_capacity = 256;

    serve::PredictionService service(*predictor, service_config);
    const serve::LoadResult result = serve::run_closed_loop(
        service, pool, zipf, config.clients, requests / config.clients,
        seed);
    const serve::ServiceStats stats = service.stats();
    service.shutdown();

    const double speedup = result.qps() / baseline.qps();
    best_speedup = std::max(best_speedup, speedup);
    best_qps = std::max(best_qps, result.qps());
    table.add_row({config.label, util::fmt_double(result.qps(), 0),
                   util::fmt_double(speedup, 1) + "x",
                   util::fmt_pct(100.0 * stats.cache.hit_rate()) + " %",
                   util::fmt_double(stats.latency_us.p50, 0),
                   util::fmt_double(stats.latency_us.p99, 0),
                   util::fmt_double(stats.batch_size.mean(), 1)});
  }
  table.print(std::cout);

  const bool pass = best_speedup >= 5.0;
  std::printf("\nbest speedup over sequential baseline: %.1fx (floor: 5x)"
              " -> %s\n",
              best_speedup, pass ? "OK" : "BELOW FLOOR");

  io::Json out = io::Json::object();
  out.set("fast_mode", io::Json(bench::fast_mode()));
  out.set("requests", io::Json(requests));
  out.set("pool_size", io::Json(pool.size()));
  out.set("baseline_qps", io::Json(baseline.qps()));
  out.set("best_qps", io::Json(best_qps));
  out.set("best_speedup", io::Json(best_speedup));
  out.set("speedup_floor", io::Json(5.0));
  out.set("pass", io::Json(pass));
  out.set("predict_batch_us_trained", io::Json(trained_us));
  out.set("predict_batch_us_fresh", io::Json(fresh_us));
  out.set("predict_batch_ratio", io::Json(ratio));
  out.set("predict_batch_ratio_max", io::Json(kRatioMax));
  out.set("predict_batch_ratio_pass", io::Json(ratio_pass));
  bench::update_bench_json("BENCH_serve.json", "throughput", out);
  std::printf("updated BENCH_serve.json (section: throughput)\n");

  return pass && ratio_pass ? 0 : 1;
}
