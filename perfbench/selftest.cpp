// Tests of the benchmark's own logic. Run with `python3 perfbench/run.py
// --selftest` (exit 0 when every check passes).

#include <cmath>
#include <cstdio>
#include <thread>

#include "logic.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                 \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
      ++g_failures;                                                 \
    }                                                               \
  } while (0)

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

using perfbench::Span;

Span span(const char* name, std::int64_t start, std::int64_t end, int parent,
          int thread = 0) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.thread = thread;
  return s;
}

void self_time_of_nested_spans() {
  // step [0, 100) holds predict [10, 30) and predict [40, 70); predict
  // [40, 70) itself holds encode [45, 50).
  const std::vector<Span> spans = {
      span("step", 0, 100, -1),   span("predict", 10, 30, 0),
      span("predict", 40, 70, 0), span("encode", 45, 50, 2),
      span("step", 200, 260, -1),
  };
  const auto stats = perfbench::aggregate(spans);
  CHECK(stats.at("step").count == 2);
  CHECK(near(stats.at("step").total_ns, 160));
  CHECK(near(stats.at("step").self_ns, 110));  // 100 - 50 + 60
  CHECK(near(stats.at("predict").total_ns, 50));
  CHECK(near(stats.at("predict").self_ns, 45));
  CHECK(near(stats.at("encode").self_ns, 5));
  CHECK(near(stats.at("step").mean_self_us(), 0.055));
  // Only top-level spans count for coverage: [0,100) and [200,260) of
  // [0, 300) leave 140 uncovered.
  CHECK(near(perfbench::unattributed_share(spans, 0, 300), 140.0 / 300.0));
  // Overlapping top-level spans on two threads are not double counted.
  const std::vector<Span> threads = {span("a", 0, 60, -1, 0),
                                     span("b", 40, 100, -1, 1)};
  CHECK(near(perfbench::unattributed_share(threads, 0, 200), 0.5));
}

void tracer_nests_per_thread() {
  perfbench::Tracer tracer;
  {
    perfbench::ScopedSpan outer(&tracer, "outer");
    perfbench::ScopedSpan inner(&tracer, "inner");
  }
  std::thread other([&] { perfbench::ScopedSpan s(&tracer, "other"); });
  other.join();
  const auto spans = tracer.spans();
  CHECK(spans.size() == 3);
  CHECK(spans[0].parent == -1);
  CHECK(spans[1].parent == 0);
  CHECK(spans[2].parent == -1);  // another thread: no parent
  CHECK(spans[2].thread != spans[0].thread);
  for (const Span& s : spans) CHECK(s.end_ns >= s.start_ns);
  perfbench::ScopedSpan noop(nullptr, "untraced");  // must not crash
}

void quantiles() {
  CHECK(near(perfbench::quantile({}, 0.5), 0.0));
  CHECK(near(perfbench::median({3, 1, 2}), 2.0));
  CHECK(near(perfbench::quantile({1, 2, 3, 4}, 0.5), 2.5));
  CHECK(near(perfbench::quantile({0, 10}, 0.99), 9.9));
  // Three windows of four; the stall in the second moves only its own
  // window's maximum, so the median of window maxima stays at 4.
  const std::vector<double> lat = {1, 2, 3, 4, 1, 900, 3, 4, 1, 2, 3, 4, 7};
  CHECK(near(perfbench::windowed_quantile(lat, 4, 1.0), 4.0));
  CHECK(near(perfbench::quantile(lat, 1.0), 900.0));
  // One window (or fewer values than a window) is the plain quantile.
  CHECK(near(perfbench::windowed_quantile({1, 2, 3}, 4, 1.0), 3.0));
}

void qps_at_slo_selection() {
  using perfbench::Rung;
  const double slo = 1000.0;
  std::vector<Rung> ladder = {
      {1000, 200, false, 0, false},
      {2000, 400, false, 0, false},
      {4000, 900, false, 0, false},
      {8000, 3000, false, 0, false},  // p99 over the SLO
  };
  CHECK(near(perfbench::qps_at_slo(ladder, slo), 4000));
  // A growing backlog disqualifies a rung even with a good p99.
  ladder[2].backlog_growing = true;
  CHECK(near(perfbench::qps_at_slo(ladder, slo), 2000));
  // So does a failed request, and a late generator (invalid, not met).
  ladder[1].failed = 1;
  CHECK(near(perfbench::qps_at_slo(ladder, slo), 1000));
  ladder[0].generator_late = true;
  CHECK(near(perfbench::qps_at_slo(ladder, slo), 0));
  CHECK(!perfbench::meets_slo({500, 100, false, 0, true}, slo));
  // A higher rung that passes again still counts: the highest pass wins.
  std::vector<Rung> bumpy = {{1000, 200, false, 0, false},
                             {2000, 1200, false, 0, false},
                             {3000, 800, false, 0, false}};
  CHECK(near(perfbench::qps_at_slo(bumpy, slo), 3000));

  // Backlog detection from in-flight samples.
  CHECK(!perfbench::backlog_growing({2, 3, 1, 2, 4, 2, 3, 1, 2}));
  CHECK(perfbench::backlog_growing({5, 10, 20, 40, 80, 160, 320, 640, 900}));
  CHECK(!perfbench::backlog_growing({}));
  // Steady but large: last third not above first third by its own size.
  CHECK(!perfbench::backlog_growing({500, 520, 510, 505, 515, 530, 525, 510,
                                     520}));
}

void failure_accounting() {
  perfbench::Tally tally;
  tally.add(true);
  tally.add(false);
  tally.add(true);
  CHECK(tally.attempted == 3);
  CHECK(tally.failed == 1);

  CHECK(perfbench::search_ok(24.18, 24.0, false));
  CHECK(perfbench::search_ok(26.4, 24.0, false));   // exactly 10 %
  CHECK(!perfbench::search_ok(26.5, 24.0, false));  // 10.4 % over
  CHECK(!perfbench::search_ok(21.0, 24.0, false));
  CHECK(!perfbench::search_ok(24.0, 24.0, true));   // aborted
  CHECK(!perfbench::search_ok(std::nan(""), 24.0, false));

  using perfbench::Outcome;
  CHECK(perfbench::request_ok(Outcome::kValue, 1.5, 1.5));
  CHECK(!perfbench::request_ok(Outcome::kValue, 1.5, std::nextafter(1.5, 2.0)));
  CHECK(!perfbench::request_ok(Outcome::kValue, 0.0, -0.0));  // bit-for-bit
  CHECK(!perfbench::request_ok(Outcome::kTypedError, 1.5, 1.5));
  CHECK(!perfbench::request_ok(Outcome::kOtherError, 1.5, 1.5));
  CHECK(!perfbench::request_ok(Outcome::kUnresolved, 1.5, 1.5));
}

void trace_equality() {
  using lightnas::core::SearchEpochStats;
  std::vector<SearchEpochStats> a(3);
  for (std::size_t e = 0; e < a.size(); ++e) {
    a[e].epoch = e;
    a[e].tau = 5.0 - e;
    a[e].lambda = 0.1 * e;
    a[e].lambdas = {a[e].lambda};
    a[e].predicted_cost = 24.0 + e;
    a[e].predicted_costs = {a[e].predicted_cost};
    a[e].valid_loss = 1.0 / (e + 1);
    a[e].valid_accuracy = 0.5;
    a[e].derived = lightnas::space::Architecture({0, 1, 2});
  }
  std::vector<SearchEpochStats> b = a;
  CHECK(perfbench::trace_mismatch(a, b).empty());
  // One ulp in one epoch is a mismatch.
  b[1].valid_loss = std::nextafter(b[1].valid_loss, 2.0);
  CHECK(perfbench::trace_mismatch(a, b) == "epoch 1: valid_loss differs");
  b = a;
  b[2].derived.set_op(1, 0);
  CHECK(perfbench::trace_mismatch(a, b) == "epoch 2: derived differs");
  b = a;
  b[0].lambdas[0] = std::nextafter(b[0].lambdas[0], 1.0);
  CHECK(!perfbench::trace_mismatch(a, b).empty());
  b = a;
  b.pop_back();
  CHECK(!perfbench::trace_mismatch(a, b).empty());
}

}  // namespace

int main() {
  self_time_of_nested_spans();
  tracer_nests_per_thread();
  quantiles();
  qps_at_slo_selection();
  failure_accounting();
  trace_equality();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
