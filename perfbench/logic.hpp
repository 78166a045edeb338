#pragma once

// The benchmark's own arithmetic, kept free of workload code so
// selftest.cpp can pin it down: span recording and self-time
// attribution, quantiles, the qps_at_slo ladder rule, failure
// accounting, and the traced-vs-untraced search trace comparison.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/lightnas.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- spans ---------------------------------------------------------------

/// One timed interval. `parent` indexes the enclosing span recorded on the
/// same thread (-1 for a top-level span); `name` points at a string
/// literal.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int thread = 0;
  /// Optional payload, e.g. the row count of a predict_batch call.
  double payload = 0.0;
};

/// In-memory span log. Thread-safe: every thread keeps its own stack of
/// open spans, so nesting is per thread and spans from several threads
/// interleave freely in the log.
class Tracer {
 public:
  /// Open a span on the calling thread; returns its index.
  int open(const char* name);
  /// Close the span `index` opened on the calling thread (ignored when a
  /// clear() came in between).
  void close(int index, double payload = 0.0);

  std::vector<Span> spans() const;
  /// Drop the recorded spans; call it while no span is open.
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int next_thread_ = 0;
};

/// RAII span; a null tracer makes it a no-op, so workload code runs the
/// same path traced and untraced.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_, payload_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_payload(double payload) { payload_ = payload; }

 private:
  Tracer* tracer_;
  int index_;
  double payload_ = 0.0;
};

/// Per-name aggregate of a span log.
struct SpanStats {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  /// Total minus the time of direct children.
  double self_ns = 0.0;
  double payload_sum = 0.0;

  double mean_us() const { return count ? total_ns / 1e3 / count : 0.0; }
  double mean_self_us() const { return count ? self_ns / 1e3 / count : 0.0; }
  double mean_payload() const { return count ? payload_sum / count : 0.0; }
};

std::map<std::string, SpanStats> aggregate(const std::vector<Span>& spans);

/// Share of [begin_ns, end_ns) covered by no top-level span (on any
/// thread), in [0, 1].
double unattributed_share(const std::vector<Span>& spans,
                          std::int64_t begin_ns, std::int64_t end_ns);

/// Write the span log as JSON (name, start/end relative to `origin_ns`,
/// parent, thread); returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 std::int64_t origin_ns);

// --- statistics ------------------------------------------------------------

/// Linearly interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& values);

/// The median, over consecutive windows of `window` values (a shorter
/// tail window is dropped unless it is the only one), of each window's
/// `q` quantile. A tail statistic that one short host stall cannot move:
/// the stall inflates one window's quantile, not the median of them.
double windowed_quantile(const std::vector<double>& values,
                         std::size_t window, double q);

// --- serving ladder ----------------------------------------------------------

/// The outcome of one offered rate on the open-loop ladder.
struct Rung {
  double rate = 0.0;           ///< offered requests per second
  double p99_us = 0.0;         ///< from each request's scheduled send time
  bool backlog_growing = false;
  std::uint64_t failed = 0;    ///< typed errors, unresolved or wrong values
  bool generator_late = false; ///< the load generator missed its schedule
};

/// True when a rung meets the SLO. A rung whose generator ran late is
/// invalid, never met: its latencies do not describe the offered rate.
bool meets_slo(const Rung& rung, double slo_us);

/// The highest offered rate among the rungs that meet the SLO; 0 when
/// none does.
double qps_at_slo(const std::vector<Rung>& rungs, double slo_us);

/// Whether the in-flight request count sampled across a rung's send
/// window is growing: the mean of the last third exceeds the mean of the
/// first third by more than that first-third mean, and by more than 32.
bool backlog_growing(const std::vector<double>& outstanding);

// --- failure accounting ---------------------------------------------------

/// Attempted and failed operations of one run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// A search fails when it aborted, produced a non-finite cost, or missed
/// its target by more than 10 %.
bool search_ok(double predicted_cost, double target, bool aborted);

/// How one served request ended.
enum class Outcome { kValue, kTypedError, kOtherError, kUnresolved };

/// A served request is correct only when it produced a value that is
/// bit-for-bit the directly predicted one.
bool request_ok(Outcome outcome, double value, double expected);

// --- trace equality ---------------------------------------------------------

/// Empty when the two epoch traces are bit-for-bit identical, otherwise a
/// description of the first difference.
std::string trace_mismatch(const std::vector<lightnas::core::SearchEpochStats>& a,
                           const std::vector<lightnas::core::SearchEpochStats>& b);

}  // namespace perfbench
