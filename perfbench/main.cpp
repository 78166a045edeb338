// perfbench — the repository benchmark.
//
//   perfbench --workload search|serve_unique|serve_zipf
//             --seed N --seconds S --trace 0|1
//             --work-dir DIR --out-dir DIR [--commit ID]
//
// Every run builds the predictor as the CLI pipeline does (the set-up),
// runs one workload for about S seconds and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when untraced, the per-layer metrics when traced. A preceding
// "host:" line records the host and configuration. run.py builds this
// binary and is the entry point.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports (BENCHMARK.json's
/// `end_to_end`, in order).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"wall_s", "s"},
    {"p50_us", "us"}, {"p99_us", "us"},
};

/// The per-layer metrics every traced run reports (BENCHMARK.json's
/// `per_layer`). A layer the workload does not exercise reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"hw.measure_s", "s"},
    {"predictors.train_s", "s"},
    {"io.load_predictor_ms", "ms"},
    {"predictors.subnormal_weights", "count"},
    {"nn.pool.train_buffer_hit_rate", "ratio"},
    {"nn.pool.train_tape_hit_rate", "ratio"},
    {"core.w_step_us", "us"},
    {"core.alpha_step_self_us", "us"},
    {"core.eval_us", "us"},
    {"core.snapshot_us", "us"},
    {"campaign.epoch_ms", "ms"},
    {"campaign.alpha_updates", "count"},
    {"campaign.jobs_converged", "count"},
    {"io.checkpoint_ms", "ms"},
    {"predictors.forward_var_us", "us"},
    {"predictors.predict_us", "us"},
    {"predictors.predict_batch_us", "us"},
    {"predictors.batch_rows", "rows"},
    {"nn.pool.buffer_hit_rate", "ratio"},
    {"nn.pool.tape_hit_rate", "ratio"},
    {"nn.plan.hits", "count"},
    {"nn.plan.compiles", "count"},
    {"nn.plan.arena_mb", "MB"},
    {"serve.qps_at_slo", "1/s"},
    {"serve.ref_p50_us", "us"},
    {"serve.ref_p99_us", "us"},
    {"serve.submit_us", "us"},
    {"serve.service_p99_us", "us"},
    {"serve.batch_mean", "rows"},
    {"serve.queue_depth_mean", "count"},
    {"serve.cache_hit_rate", "ratio"},
    {"load.lateness_p99_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "search|serve_unique|serve_zipf --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --out-dir DIR "
               "[--commit ID]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else if (flag == "--commit") {
        options.commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (options.workload != "search" && options.workload != "serve_unique" &&
      options.workload != "serve_zipf") {
    usage("unknown workload '" + options.workload + "'");
  }
  if (!have_seed) usage("--seed is required");
  if (!(options.seconds > 0.0) || !std::isfinite(options.seconds)) {
    usage("--seconds must be positive");
  }
  if (options.work_dir.empty() || options.out_dir.empty()) {
    usage("--work-dir and --out-dir are required");
  }
  return options;
}

void print_result(const Result& result, const MetricSpec* specs,
                  std::size_t count) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.tally.attempted);
  out += ", \"failed\": " + std::to_string(result.tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    double value = 0.0;
    for (const auto& metric : result.metrics) {
      if (metric.first == specs[i].name) value = metric.second.first;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    out += std::string(i ? ", " : "") + "\"" + specs[i].name +
           "\": {\"value\": " + number + ", \"unit\": \"" + specs[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(int argc, char** argv) {
  Options options = parse(argc, argv);
  const std::string knob = forbidden_knob();
  if (!knob.empty()) {
    std::fprintf(stderr,
                 "perfbench: %s is set; refusing to measure a non-default "
                 "configuration\n",
                 knob.c_str());
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);
  std::filesystem::create_directories(options.out_dir);
  Tracer tracer;
  if (options.trace) options.tracer = &tracer;
  std::printf("host: %s\n", host_block_json(options).c_str());
  std::fflush(stdout);

  Result result;
  Setup setup = run_setup(options, options.tracer, result);
  if (options.workload == "search") {
    run_search(options, setup, result);
  } else {
    run_serve(options, setup, options.workload == "serve_zipf", result);
  }
  std::filesystem::remove_all(options.work_dir);

  for (const std::string& note : result.notes) {
    std::printf("INCORRECT: %s\n", note.c_str());
  }
  if (options.trace) {
    report_setup_layers(setup, result);
    for (const auto& [name, value] : result.metrics) {
      std::printf("  %-32s %14.4f %s\n", name.c_str(), value.first,
                  value.second.c_str());
    }
    print_result(result, kPerLayer, std::size(kPerLayer));
    return 0;
  }
  result.set("setup_s", setup.setup_s, "s");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  for (const MetricSpec& spec : kEndToEnd) {
    bool found = false;
    for (const auto& metric : result.metrics) {
      if (metric.first == spec.name) {
        found = metric.second.first > 0.0 && std::isfinite(metric.second.first);
        std::printf("  %-14s %14.4f %s\n", spec.name, metric.second.first,
                    spec.unit);
      }
    }
    if (!found) {
      std::fprintf(stderr, "perfbench: metric %s missing or not positive\n",
                   spec.name);
      return 1;
    }
  }
  print_result(result, kEndToEnd, std::size(kEndToEnd));
  return 0;
}

}  // namespace

void report_trace(const Options& options, const std::vector<Span>& spans,
                  double untraced_s, double traced_s, std::int64_t begin_ns,
                  std::int64_t end_ns, Result& result) {
  result.set("trace.overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s,
             "%");
  result.set("trace.unattributed_pct",
             100.0 * unattributed_share(spans, begin_ns, end_ns), "%");
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  if (!write_spans(path, spans, begin_ns)) {
    result.wrong("could not write " + path);
    return;
  }
  std::printf("span self times (%zu spans, written to %s):\n", spans.size(),
              path.c_str());
  for (const auto& [name, stats] : aggregate(spans)) {
    std::printf("  %-28s n=%-8llu total=%10.3f ms self=%10.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(stats.count),
                stats.total_ns / 1e6, stats.self_ns / 1e6);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
