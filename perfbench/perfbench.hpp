#pragma once

// Shared pieces of the benchmark program: run options, the common set-up
// (measurement campaign -> trained predictor -> artifact round trip), the
// timing predictor decorator used by traced runs, and the result record
// every workload fills in.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "logic.hpp"
#include "nn/data.hpp"
#include "nn/plan.hpp"
#include "nn/pool.hpp"
#include "predictors/mlp_predictor.hpp"
#include "space/search_space.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for checkpoints, artifacts and span logs (inside the
  /// checkout the benchmark runs from).
  std::string work_dir;
  /// Directory the span logs of traced runs are written to.
  std::string out_dir;
  /// Source fingerprint recorded in the host block.
  std::string commit = "unknown";
  /// The span log of a traced run; null when untraced.
  Tracer* tracer = nullptr;
};

/// One run's result: the operation tally plus named metrics with units.
struct Result {
  Tally tally;
  bool correct = true;
  std::vector<std::string> notes;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  /// Record a correctness failure (the run's output is wrong, not merely
  /// an operation that failed).
  void wrong(const std::string& why);
};

/// The predictor pipeline every workload starts from, as the CLI runs
/// it: `measure` (simulated Xavier MAXN, batch 8, 10k samples),
/// `train-predictor` at its defaults, then save_predictor/load_predictor.
struct Setup {
  lightnas::space::SearchSpace space =
      lightnas::space::SearchSpace::fbnet_xavier();
  /// The loaded artifact (what every workload uses).
  std::unique_ptr<lightnas::predictors::MlpPredictor> predictor;
  double measure_s = 0.0;
  double train_s = 0.0;
  double load_ms = 0.0;
  /// Wall time of the pipeline above plus the workload's own input
  /// generation (added by the workload): the run's `setup_s`.
  double setup_s = 0.0;
  /// Reuse counters of predictor training.
  lightnas::nn::PoolStats train_pool;
};

/// Run the pipeline; spans go to `tracer` when non-null. Failures of the
/// round trip are recorded in `result`.
Setup run_setup(const Options& options, Tracer* tracer, Result& result);

/// Subnormal floats in the predictor's exported state.
std::size_t count_subnormal_weights(
    const lightnas::predictors::MlpPredictor& predictor);

/// The search task at the CLI's defaults (`--task-size 16384`).
lightnas::nn::SyntheticTask make_task();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// The set-up's per-layer metrics, common to every traced run.
void report_setup_layers(const Setup& setup, Result& result);

/// Reuse counters of a workload body, as nn.* per-layer metrics.
void report_reuse(const lightnas::nn::PoolStats& pool,
                  const lightnas::nn::plan::PlanStats& plan, Result& result);

/// Epoch wall times of the search, reported as p50_us / p99_us:
/// p50 over the epochs after the warm-up that wrote no checkpoint (the
/// same w-steps, α-steps and eval in every one; warm-up epochs run no
/// α-step and came out ~20 % apart between runs on a shared host, the
/// later ones ~3 %), p99 over all epochs (the checkpoint epochs set it).
struct EpochTimes {
  std::vector<double> steady_us;
  std::vector<double> all_us;

  /// Add one run's epochs; epoch e (0-based) wrote a checkpoint when
  /// (e + 1) % checkpoint_every == 0.
  void add(const std::vector<double>& epoch_us, std::size_t warmup_epochs,
           std::size_t checkpoint_every);
  void report(Result& result) const;
};

/// Timing decorator over the trained predictor: every call opens a span
/// named after the predictor entry point. Thread-safe (the tracer is),
/// and a pure pass-through otherwise, so traced and untraced runs compute
/// the same values.
class TimedPredictor : public lightnas::predictors::HardwarePredictor {
 public:
  TimedPredictor(const lightnas::predictors::MlpPredictor& inner,
                 Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  double predict(const lightnas::space::Architecture& arch) const override;
  std::vector<double> predict_batch(
      const std::vector<lightnas::space::Architecture>& archs) const override;
  lightnas::nn::VarPtr forward_var(
      const lightnas::nn::VarPtr& encoding) const override;
  std::string unit() const override { return inner_.unit(); }

 private:
  const lightnas::predictors::MlpPredictor& inner_;
  Tracer* tracer_;
};

// --- workloads -------------------------------------------------------------
// Each runs its timed body for about `options.seconds` and fills `result`
// with the end-to-end metrics (untraced) or the per-layer metrics
// (traced). `setup_s` and `peak_rss_mb` are added by main.

void run_search(const Options& options, Setup& setup, Result& result);
/// The campaign layers (campaign.*), run by the traced `search`: an
/// untraced and a traced CampaignOrchestrator run whose job traces must
/// agree; its spans go to a log of their own.
void trace_campaign(const Options& options, const Setup& setup,
                    const lightnas::nn::SyntheticTask& task, Result& result);
/// `zipf` selects the serve_zipf mix; otherwise every request is a
/// distinct architecture (serve_unique).
void run_serve(const Options& options, Setup& setup, bool zipf,
               Result& result);

/// Traced-run bookkeeping shared by the workloads: overhead against the
/// untraced wall time, the share of the traced window no top-level span
/// covers, and the span log written to `options.out_dir`.
void report_trace(const Options& options, const std::vector<Span>& spans,
                  double untraced_s, double traced_s, std::int64_t begin_ns,
                  std::int64_t end_ns, Result& result);

/// The host and configuration block printed with every result.
std::string host_block_json(const Options& options);

/// Non-empty (naming the variable) when an environment knob that would
/// skew the measurement is set.
std::string forbidden_knob();

}  // namespace perfbench
