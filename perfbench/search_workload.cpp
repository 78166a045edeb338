// `search`: one LightNas::search on the 22-layer fbnet_xavier space at
// target 24 ms and the CLI `search` defaults, checkpointing every 5
// epochs through io::save_checkpoint.
//
// A search takes longer than a run's window, so each untraced run times
// one search.
//
// The traced run repeats the search through a bench-side loop over the
// public search_step.hpp pieces, in LightNas::search's order, with a span
// around each call; its epoch trace must equal the untraced one bit for
// bit, which proves both ran the same work. It then measures the campaign
// layers (trace_campaign).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/gumbel.hpp"
#include "core/lightnas.hpp"
#include "core/search_step.hpp"
#include "io/serialize.hpp"
#include "nn/ops.hpp"
#include "nn/parallel.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace ln = lightnas;

namespace {

constexpr double kTarget = 24.0;
constexpr std::size_t kCheckpointEvery = 5;

/// `lightnas search --target 24` defaults: 55 epochs, warmup
/// min(config default, epochs / 2).
ln::core::LightNasConfig search_config(std::uint64_t seed) {
  ln::core::LightNasConfig config;
  config.target = kTarget;
  config.seed = seed;
  config.epochs = 55;
  config.warmup_epochs =
      std::min<std::size_t>(config.warmup_epochs, config.epochs / 2);
  return config;
}

struct TimedSearch {
  ln::core::SearchResult result;
  double wall_s = 0.0;
  std::vector<double> epoch_us;
};

/// The untraced search, exactly as the CLI runs it. Epoch boundaries are
/// read from the should_stop hook, which the engine polls after every
/// epoch but the last.
TimedSearch untraced_search(const Setup& setup,
                            const ln::nn::SyntheticTask& task,
                            const ln::core::LightNasConfig& config,
                            const std::string& checkpoint_path) {
  TimedSearch out;
  std::int64_t last = now_ns();
  const std::int64_t start = last;
  ln::core::SearchHooks hooks;
  hooks.checkpoint_every = kCheckpointEvery;
  hooks.on_checkpoint = [&](const ln::core::SearchCheckpoint& ck) {
    ln::io::save_checkpoint(checkpoint_path, ck);
  };
  hooks.should_stop = [&](std::size_t) {
    const std::int64_t now = now_ns();
    out.epoch_us.push_back((now - last) / 1e3);
    last = now;
    return false;
  };
  ln::core::LightNas engine(setup.space, *setup.predictor, task,
                            ln::core::SupernetConfig{}, config);
  out.result = engine.search(hooks);
  const std::int64_t end = now_ns();
  out.epoch_us.push_back((end - last) / 1e3);
  out.wall_s = (end - start) / 1e9;
  return out;
}

bool tensor_finite(const ln::nn::Tensor& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(t[i])) return false;
  }
  return true;
}

/// LightNas::search's loop for a run without watchdog interventions,
/// rebuilt from search_step.hpp with a span around each call. Throws if
/// the watchdog would have intervened: the rollback path is not
/// reproduced here, so the traces could not be compared.
std::vector<ln::core::SearchEpochStats> traced_search(
    const Setup& setup, const ln::predictors::HardwarePredictor& predictor,
    const ln::nn::SyntheticTask& task, const ln::core::LightNasConfig& config,
    const std::string& checkpoint_path, Tracer* tracer) {
  using namespace ln::core;
  const ln::nn::ParallelScope parallel_scope(config.parallel);
  ln::nn::PooledScope pool_scope(config.pool_tensors
                                     ? ln::nn::PoolMode::kInherit
                                     : ln::nn::PoolMode::kDisabled);
  const std::vector<Constraint> constraints{{&predictor, config.target}};
  const SearchTopology topology(setup.space);
  ln::util::Rng rng(config.seed * 0x9e3779b9ULL + 17);
  SharedWTrainer trainer(topology, task, SupernetConfig{}, config,
                         config.epochs * config.w_steps_per_epoch);
  AlphaLambdaHead head(topology, constraints, config);
  const TemperatureSchedule tau_schedule(config.tau_initial, config.tau_final,
                                         config.epochs);
  ln::util::Rng data_rng = rng.fork();
  ln::nn::Batcher train_batches(task.train, config.batch_size, data_rng);
  ln::util::Rng valid_rng = rng.fork();
  ln::nn::Batcher valid_batches(task.valid, config.batch_size, valid_rng);

  SearchResult result;
  double best_accuracy = 0.0;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const double tau = tau_schedule.at(epoch);
    double sampled_cost_sum = 0.0;
    std::size_t sampled_cost_count = 0;
    for (std::size_t step = 0; step < config.w_steps_per_epoch; ++step) {
      ln::nn::Dataset batch;
      {
        ScopedSpan span(tracer, "data.next");
        batch = train_batches.next();
      }
      PathSample sample;
      {
        ScopedSpan span(tracer, "core.sample");
        sample = head.sample(tau, rng);
      }
      {
        ScopedSpan span(tracer, "core.w_step");
        trainer.step(batch, sample.op_choice);
      }
      ++result.weight_updates;
    }
    if (epoch >= config.warmup_epochs) {
      for (std::size_t step = 0; step < config.alpha_steps_per_epoch; ++step) {
        ln::nn::Dataset batch;
        {
          ScopedSpan span(tracer, "data.next");
          batch = valid_batches.next();
        }
        ScopedSpan span(tracer, "core.alpha_step");
        sampled_cost_sum += head.alpha_step(
            trainer.supernet(), trainer.weight_parameters(), batch, tau, rng);
        ++sampled_cost_count;
        ++result.alpha_updates;
      }
    }

    SearchEpochStats stats;
    {
      ScopedSpan span(tracer, "core.eval");
      stats.epoch = epoch;
      stats.tau = tau;
      stats.derived = head.derive();
      stats.lambdas = head.lambda_values();
      stats.predicted_costs.push_back(predictor.predict(stats.derived));
      stats.lambda = stats.lambdas.front();
      stats.predicted_cost = stats.predicted_costs.front();
      stats.sampled_cost_mean =
          sampled_cost_count > 0
              ? sampled_cost_sum / static_cast<double>(sampled_cost_count)
              : stats.predicted_cost;
      const ln::nn::VarPtr logits = trainer.supernet().forward_single_path(
          task.valid.features, stats.derived.ops());
      const ln::nn::VarPtr loss =
          ln::nn::ops::softmax_cross_entropy(logits, task.valid.labels);
      stats.valid_loss = static_cast<double>(loss->value.item());
      stats.valid_accuracy =
          ln::nn::ops::accuracy(logits->value, task.valid.labels);
    }
    const WatchdogConfig& dog = config.watchdog;
    const bool unhealthy =
        !std::isfinite(stats.valid_loss) ||
        !tensor_finite(head.alpha()->value) ||
        !std::isfinite(stats.lambda) ||
        std::abs(stats.lambda) > dog.lambda_limit ||
        !std::isfinite(stats.predicted_cost) ||
        (best_accuracy >= dog.min_reference_accuracy &&
         stats.valid_accuracy < dog.accuracy_collapse_frac * best_accuracy);
    if (dog.enabled && unhealthy) {
      throw std::runtime_error("watchdog would intervene at epoch " +
                               std::to_string(epoch));
    }
    result.trace.push_back(std::move(stats));
    best_accuracy = std::max(best_accuracy, result.trace.back().valid_accuracy);
    result.health.completed_epochs = result.trace.size();

    // The engine's per-epoch rollback capture, which is also what it
    // hands to on_checkpoint.
    SearchCheckpoint ck;
    {
      ScopedSpan span(tracer, "core.snapshot");
      ck.seed = config.seed;
      ck.total_epochs = config.epochs;
      ck.targets = {config.target};
      ck.next_epoch = epoch + 1;
      SharedWTrainer::State w_state = trainer.export_state();
      ck.w_step_counter = w_state.step_counter;
      ck.supernet_weights = std::move(w_state.weights);
      ck.w_velocity = std::move(w_state.velocity);
      AlphaLambdaHead::State head_state = head.export_state();
      ck.alpha = std::move(head_state.alpha);
      ck.adam_m = std::move(head_state.adam_m);
      ck.adam_v = std::move(head_state.adam_v);
      ck.adam_t = head_state.adam_t;
      ck.lambdas = std::move(head_state.lambdas);
      ck.rng = rng.state();
      ck.data_rng = data_rng.state();
      ck.valid_rng = valid_rng.state();
      ck.train_batcher = train_batches.export_state();
      ck.valid_batcher = valid_batches.export_state();
      ck.trace = result.trace;
      ck.weight_updates = result.weight_updates;
      ck.alpha_updates = result.alpha_updates;
      ck.health = result.health;
    }
    if ((epoch + 1) % kCheckpointEvery == 0 || epoch + 1 == config.epochs) {
      ScopedSpan span(tracer, "io.checkpoint");
      ln::io::save_checkpoint(checkpoint_path, ck);
    }
  }
  return result.trace;
}

/// Check one finished search; returns false for a failed operation.
bool check_search(const TimedSearch& run, const std::string& checkpoint_path,
                  Result& result) {
  const ln::core::SearchResult& r = run.result;
  const bool ok = search_ok(r.final_predicted_cost, kTarget,
                            r.health.aborted_early) &&
                  r.trace.size() == 55;
  // The last checkpoint on disk must hold the finished run.
  const ln::core::SearchCheckpoint ck =
      ln::io::load_checkpoint(checkpoint_path);
  if (ck.next_epoch != r.trace.size() ||
      !trace_mismatch(ck.trace, r.trace).empty()) {
    result.wrong("final checkpoint does not match the search");
  }
  std::printf("search: %.3f s, predicted %.3f ms (target %.1f), %s%s\n",
              run.wall_s, r.final_predicted_cost, kTarget,
              r.health.summary().c_str(), ok ? "" : "  FAILED");
  return ok;
}

}  // namespace

void run_search(const Options& options, Setup& setup, Result& result) {
  const std::int64_t t_inputs = now_ns();
  const ln::nn::SyntheticTask task = make_task();
  setup.setup_s += (now_ns() - t_inputs) / 1e9;
  const std::string checkpoint_path = options.work_dir + "/checkpoint.json";

  if (!options.trace) {
    std::vector<double> walls;
    EpochTimes epochs;
    const std::int64_t start = now_ns();
    for (std::uint64_t i = 0;
         i == 0 || (now_ns() - start) / 1e9 < options.seconds; ++i) {
      const ln::core::LightNasConfig config =
          search_config(options.seed * 1000 + i);
      const TimedSearch run =
          untraced_search(setup, task, config, checkpoint_path);
      result.tally.add(check_search(run, checkpoint_path, result));
      walls.push_back(run.wall_s);
      epochs.add(run.epoch_us, config.warmup_epochs, kCheckpointEvery);
    }
    result.set("wall_s", median(walls), "s");
    epochs.report(result);
    return;
  }

  // Traced: the untraced search first (for the reference trace, the
  // reuse counters and the overhead baseline), then the span-instrumented
  // replica with the same seed.
  const ln::core::LightNasConfig config = search_config(options.seed * 1000);
  const TimedSearch untraced =
      untraced_search(setup, task, config, checkpoint_path);
  result.tally.add(check_search(untraced, checkpoint_path, result));
  const ln::core::RunHealth& health = untraced.result.health;
  ln::nn::PoolStats pool;
  pool.buffer_hits = health.pool_buffer_hits;
  pool.buffer_misses = health.pool_buffer_misses;
  pool.tape_hits = health.pool_tape_hits;
  pool.tape_misses = health.pool_tape_misses;
  ln::nn::plan::PlanStats plan;
  plan.hits = health.plan_hits;
  plan.compiles = health.plan_compiles;
  plan.arena_bytes = health.plan_arena_bytes;
  report_reuse(pool, plan, result);

  Tracer* tracer = options.tracer;
  const TimedPredictor timed(*setup.predictor, tracer);
  tracer->clear();
  const std::int64_t begin = now_ns();
  std::vector<ln::core::SearchEpochStats> trace;
  try {
    trace = traced_search(setup, timed, task, config,
                          options.work_dir + "/traced_checkpoint.json",
                          tracer);
  } catch (const std::exception& e) {
    result.wrong(std::string("traced search: ") + e.what());
  }
  const std::int64_t end = now_ns();
  const std::string mismatch = trace_mismatch(untraced.result.trace, trace);
  if (!mismatch.empty()) {
    result.wrong("traced search diverged from the untraced one: " + mismatch);
  } else {
    std::printf("traced search reproduced all %zu epochs bit for bit\n",
                trace.size());
  }

  const auto stats = aggregate(tracer->spans());
  auto mean_us = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.mean_us();
  };
  result.set("core.w_step_us", mean_us("core.w_step"), "us");
  const auto alpha = stats.find("core.alpha_step");
  result.set("core.alpha_step_self_us",
             alpha == stats.end() ? 0.0 : alpha->second.mean_self_us(), "us");
  result.set("core.eval_us", mean_us("core.eval"), "us");
  result.set("core.snapshot_us", mean_us("core.snapshot"), "us");
  result.set("io.checkpoint_ms", mean_us("io.checkpoint") / 1e3, "ms");
  result.set("predictors.forward_var_us", mean_us("predictors.forward_var"),
             "us");
  result.set("predictors.predict_us", mean_us("predictors.predict"), "us");
  report_trace(options, tracer->spans(), untraced.wall_s, (end - begin) / 1e9,
               begin, end, result);
  trace_campaign(options, setup, task, result);
}

}  // namespace perfbench
