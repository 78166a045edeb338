#include "logic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace {

/// Per-thread view of the tracer in use: the thread's index in the log
/// and its stack of open spans.
struct ThreadState {
  const Tracer* owner = nullptr;
  int thread = 0;
  std::vector<int> stack;
};

thread_local ThreadState t_state;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

int Tracer::open(const char* name) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  if (t_state.owner != this) {
    t_state.owner = this;
    t_state.thread = next_thread_++;
    t_state.stack.clear();
  }
  Span span;
  span.name = name;
  span.start_ns = start;
  span.parent = t_state.stack.empty() ? -1 : t_state.stack.back();
  span.thread = t_state.thread;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  t_state.stack.push_back(index);
  return index;
}

void Tracer::close(int index, double payload) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  if (index < 0 || static_cast<std::size_t>(index) >= spans_.size()) return;
  spans_[index].end_ns = end;
  spans_[index].payload = payload;
  if (!t_state.stack.empty() && t_state.stack.back() == index) {
    t_state.stack.pop_back();
  }
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::map<std::string, SpanStats> aggregate(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double duration =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    SpanStats& stats = out[spans[i].name];
    ++stats.count;
    stats.total_ns += duration;
    stats.self_ns += duration - child_ns[i];
    stats.payload_sum += spans[i].payload;
  }
  return out;
}

double unattributed_share(const std::vector<Span>& spans,
                          std::int64_t begin_ns, std::int64_t end_ns) {
  if (end_ns <= begin_ns) return 0.0;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const Span& span : spans) {
    if (span.parent >= 0) continue;
    const std::int64_t lo = std::max(span.start_ns, begin_ns);
    const std::int64_t hi = std::min(span.end_ns, end_ns);
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = begin_ns;
  for (const auto& [lo, hi] : intervals) {
    const std::int64_t from = std::max(lo, cursor);
    if (hi > from) {
      covered += hi - from;
      cursor = hi;
    }
  }
  return 1.0 - static_cast<double>(covered) /
                   static_cast<double>(end_ns - begin_ns);
}

bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 std::int64_t origin_ns) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "  {\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %d, \"thread\": %d, \"payload\": %.17g}%s\n",
                 s.name, (s.start_ns - origin_ns) / 1e3,
                 (s.end_ns - origin_ns) / 1e3, s.parent, s.thread, s.payload,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / values.size();
}

double windowed_quantile(const std::vector<double>& values,
                         std::size_t window, double q) {
  if (window == 0 || values.size() <= window) return quantile(values, q);
  std::vector<double> per_window;
  for (std::size_t lo = 0; lo + window <= values.size(); lo += window) {
    per_window.push_back(quantile(
        std::vector<double>(values.begin() + lo, values.begin() + lo + window),
        q));
  }
  return median(std::move(per_window));
}

bool meets_slo(const Rung& rung, double slo_us) {
  return !rung.generator_late && !rung.backlog_growing && rung.failed == 0 &&
         rung.p99_us <= slo_us;
}

double qps_at_slo(const std::vector<Rung>& rungs, double slo_us) {
  double best = 0.0;
  for (const Rung& rung : rungs) {
    if (meets_slo(rung, slo_us)) best = std::max(best, rung.rate);
  }
  return best;
}

bool backlog_growing(const std::vector<double>& outstanding) {
  const std::size_t third = outstanding.size() / 3;
  if (third == 0) return false;
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < third; ++i) {
    first += outstanding[i];
    last += outstanding[outstanding.size() - 1 - i];
  }
  first /= third;
  last /= third;
  return last - first > std::max(32.0, first);
}

bool search_ok(double predicted_cost, double target, bool aborted) {
  if (aborted || !std::isfinite(predicted_cost) || !(target > 0.0)) {
    return false;
  }
  return std::abs(predicted_cost - target) / target <= 0.10;
}

bool request_ok(Outcome outcome, double value, double expected) {
  return outcome == Outcome::kValue && same_bits(value, expected);
}

std::string trace_mismatch(
    const std::vector<lightnas::core::SearchEpochStats>& a,
    const std::vector<lightnas::core::SearchEpochStats>& b) {
  if (a.size() != b.size()) {
    return "epoch count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  auto doubles_equal = [](const std::vector<double>& x,
                          const std::vector<double>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!same_bits(x[i], y[i])) return false;
    }
    return true;
  };
  for (std::size_t e = 0; e < a.size(); ++e) {
    const auto& x = a[e];
    const auto& y = b[e];
    const char* field = nullptr;
    if (x.epoch != y.epoch) field = "epoch";
    else if (!same_bits(x.tau, y.tau)) field = "tau";
    else if (!same_bits(x.lambda, y.lambda)) field = "lambda";
    else if (!same_bits(x.predicted_cost, y.predicted_cost)) field = "predicted_cost";
    else if (!doubles_equal(x.lambdas, y.lambdas)) field = "lambdas";
    else if (!doubles_equal(x.predicted_costs, y.predicted_costs)) field = "predicted_costs";
    else if (!same_bits(x.sampled_cost_mean, y.sampled_cost_mean)) field = "sampled_cost_mean";
    else if (!same_bits(x.valid_loss, y.valid_loss)) field = "valid_loss";
    else if (!same_bits(x.valid_accuracy, y.valid_accuracy)) field = "valid_accuracy";
    else if (!(x.derived == y.derived)) field = "derived";
    if (field != nullptr) {
      std::ostringstream out;
      out << "epoch " << e << ": " << field << " differs";
      return out.str();
    }
  }
  return "";
}

}  // namespace perfbench
