// Training-stack throughput: predictor training and search steps,
// serial vs. 2/4/8 parallel GEMM lanes.
//
// Three claims are checked, with different strictness:
//  - Determinism (always enforced, any hardware): the threaded and the
//    repeated search paths must produce bit-identical results to the
//    serial path. A mismatch exits 1.
//  - Pool steady state (always enforced): repeating the identical
//    serial search over the bench's long-lived warmed pool must incur
//    zero buffer misses. The cumulative process-wide miss counter is
//    still reported but is dominated by cold first-touch discovery and
//    scales with workload size — the steady window is the property that
//    would regress on a leak.
//  - Speedup (enforced only when the machine can express it): with
//    >= 4 hardware threads available, predictor training at 4 lanes
//    must be >= 2x faster than serial, else exit 1. On smaller machines
//    (CI containers are often 1-2 cores) the gate is SKIPPED — a 4-lane
//    run on one core cannot beat serial by construction. The verdict is
//    recorded in the JSON as `speedup_gate`
//    (pass|fail|skipped_smoke|skipped_low_core) next to `hw_threads`,
//    so a sub-1x reading on a starved container is self-describing.
//
// `--smoke` (used by the ctest registration, together with
// LIGHTNAS_FAST=1) shrinks the workload to seconds and checks the
// determinism and pool contracts only.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/lightnas.hpp"
#include "hw/cost_model.hpp"
#include "io/json.hpp"
#include "nn/parallel.hpp"
#include "nn/pool.hpp"
#include "predictors/mlp_predictor.hpp"
#include "util/table.hpp"

using namespace lightnas;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic synthetic campaign: random architectures priced by the
/// analytic cost model. Measurement noise is irrelevant for throughput,
/// so this keeps dataset construction off the clock.
predictors::MeasurementDataset make_dataset(const space::SearchSpace& space,
                                            std::size_t count) {
  const hw::CostModel model(hw::DeviceProfile::jetson_xavier_maxn(), 8);
  util::Rng rng(1234);
  predictors::MeasurementDataset data;
  data.architectures.reserve(count);
  data.encodings.reserve(count);
  data.targets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    space::Architecture arch = space.random_architecture(rng);
    data.encodings.push_back(arch.encode_one_hot(space.num_ops()));
    data.targets.push_back(model.network_latency_ms(space, arch));
    data.architectures.push_back(std::move(arch));
  }
  return data;
}

struct TrainRun {
  double seconds = 0.0;
  predictors::MlpPredictor::State state;
  std::vector<double> probe;
};

TrainRun run_training(const space::SearchSpace& space,
                      const predictors::MeasurementDataset& data,
                      std::size_t epochs,
                      const nn::ParallelContext* parallel) {
  predictors::MlpPredictor predictor(space.num_layers(), space.num_ops(),
                                     /*seed=*/7);
  predictors::MlpTrainConfig config;
  config.epochs = epochs;
  config.batch_size = 128;
  config.parallel = parallel;
  const double start = now_seconds();
  predictor.train(data, config);
  TrainRun run;
  run.seconds = now_seconds() - start;
  run.state = predictor.export_state();
  const std::vector<space::Architecture> probe_archs(
      data.architectures.begin(),
      data.architectures.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(64, data.size())));
  run.probe = parallel != nullptr
                  ? predictor.predict_batch(probe_archs, *parallel)
                  : predictor.predict_batch(probe_archs);
  return run;
}

bool states_identical(const predictors::MlpPredictor::State& a,
                      const predictors::MlpPredictor::State& b) {
  if (a.tensors.size() != b.tensors.size()) return false;
  for (std::size_t i = 0; i < a.tensors.size(); ++i) {
    if (a.tensors[i] != b.tensors[i]) return false;  // exact float equality
  }
  return a.target_mean == b.target_mean && a.target_std == b.target_std;
}

struct SearchRun {
  double seconds = 0.0;
  std::string arch;
  double predicted_cost = 0.0;
};

SearchRun run_search(const space::SearchSpace& space,
                     const predictors::MlpPredictor& predictor,
                     const nn::SyntheticTask& task, bool smoke,
                     const nn::ParallelContext* parallel) {
  core::LightNasConfig config;
  config.seed = 3;
  config.epochs = smoke ? 2 : 6;
  config.warmup_epochs = 1;
  config.w_steps_per_epoch = smoke ? 8 : 32;
  config.alpha_steps_per_epoch = smoke ? 4 : 12;
  config.batch_size = smoke ? 16 : 48;
  config.target = 24.0;
  config.parallel = parallel;
  core::LightNas engine(space, predictor, task, core::SupernetConfig{},
                        config);
  const double start = now_seconds();
  const core::SearchResult result = engine.search();
  SearchRun run;
  run.seconds = now_seconds() - start;
  run.arch = result.architecture.serialize();
  run.predicted_cost = result.final_predicted_cost;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  smoke = smoke || bench::fast_mode();

  bench::banner("train_throughput",
                "parallel blocked-GEMM training engine (serial vs threads)");

  // Long-lived tensor pool for the whole bench. Engines install
  // PoolMode::kInherit scopes, which *create and destroy* a private pool
  // when the caller has none active — so without this scope every
  // search() leg below rediscovered its buffers cold and the cumulative
  // miss counter grew linearly with the number of legs (the old
  // pool_misses:15018 reading). With it, warmth carries across legs and
  // the steady-state window below measures the pool's real behavior.
  nn::PooledScope bench_pool(nn::PoolMode::kFresh);

  const space::SearchSpace space = space::SearchSpace::fbnet_xavier();
  const std::size_t samples = smoke ? 768 : 6000;
  const std::size_t epochs = smoke ? 4 : 30;
  const std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4, 8};

  std::fprintf(stderr, "dataset: %zu synthetic measurements\n", samples);
  const predictors::MeasurementDataset data = make_dataset(space, samples);

  // --- predictor training ---------------------------------------------
  const TrainRun serial = run_training(space, data, epochs, nullptr);
  std::fprintf(stderr, "serial training: %.2fs (%zu epochs)\n",
               serial.seconds, epochs);

  util::Table table({"threads", "train (s)", "speedup", "bit-identical"});
  table.add_row({"1 (serial)", util::fmt_double(serial.seconds, 2), "1.0",
                 "reference"});

  bool identical = true;
  double speedup_at_4 = 0.0;
  std::vector<std::unique_ptr<nn::ParallelContext>> contexts;
  for (const std::size_t threads : thread_counts) {
    nn::ParallelConfig pc;
    pc.threads = threads;
    contexts.push_back(std::make_unique<nn::ParallelContext>(pc));
    const TrainRun run =
        run_training(space, data, epochs, contexts.back().get());
    const bool same = states_identical(serial.state, run.state) &&
                      serial.probe == run.probe;
    identical = identical && same;
    const double speedup = serial.seconds / run.seconds;
    if (threads == 4) speedup_at_4 = speedup;
    table.add_row({std::to_string(threads),
                   util::fmt_double(run.seconds, 2),
                   util::fmt_double(speedup, 2), same ? "yes" : "NO"});
  }
  std::printf("\npredictor training (%zu samples, %zu epochs):\n", samples,
              epochs);
  table.print(std::cout);

  // --- search steps ----------------------------------------------------
  predictors::MlpPredictor predictor =
      predictors::MlpPredictor::from_state(serial.state);
  nn::SyntheticTaskConfig task_config;
  task_config.train_size = smoke ? 512 : 4096;
  const nn::SyntheticTask task = nn::make_synthetic_task(task_config);

  const SearchRun search_serial =
      run_search(space, predictor, task, smoke, nullptr);

  // Steady-state pool window: the cumulative pool counters at process
  // exit mix in every cold first-touch allocation (dataset construction,
  // predictor training, the first epochs of each search), so their miss
  // count grows with workload size without indicating a leak. Repeat the
  // identical serial search over the now-warmed pool and measure the
  // delta — in a healthy steady state the second run's misses are (near)
  // zero because every buffer shape was discovered by the first.
  const nn::PoolStats pool_warm = nn::TensorPool::global_stats();
  const SearchRun search_steady =
      run_search(space, predictor, task, smoke, nullptr);
  const nn::PoolStats pool_steady =
      nn::TensorPool::global_stats() - pool_warm;
  const bool steady_repeat_same =
      search_serial.arch == search_steady.arch &&
      search_serial.predicted_cost == search_steady.predicted_cost;
  identical = identical && steady_repeat_same;

  nn::ParallelConfig search_pc;
  search_pc.threads = 4;
  const nn::ParallelContext search_ctx(search_pc);
  const SearchRun search_parallel =
      run_search(space, predictor, task, smoke, &search_ctx);
  const bool search_same =
      search_serial.arch == search_parallel.arch &&
      search_serial.predicted_cost == search_parallel.predicted_cost;
  identical = identical && search_same;

  util::Table search_table({"config", "search (s)", "speedup", "derived"});
  search_table.add_row({"serial",
                        util::fmt_double(search_serial.seconds, 2), "1.0",
                        "reference"});
  search_table.add_row(
      {"serial (warm)", util::fmt_double(search_steady.seconds, 2),
       util::fmt_double(search_serial.seconds / search_steady.seconds, 2),
       steady_repeat_same ? "bit-identical" : "MISMATCH"});
  search_table.add_row(
      {"4 threads", util::fmt_double(search_parallel.seconds, 2),
       util::fmt_double(search_serial.seconds / search_parallel.seconds, 2),
       search_same ? "bit-identical" : "MISMATCH"});
  std::printf("\nsearch steps:\n");
  search_table.print(std::cout);
  std::printf("steady-state pool window (2nd serial search): %llu buffer "
              "misses, %.4f hit rate\n",
              static_cast<unsigned long long>(pool_steady.buffer_misses),
              pool_steady.buffer_hit_rate());

  // --- gate verdicts (computed before the JSON so the file records
  // --- them; a 0.958x speedup on a 2-core container previously went
  // --- into the JSON with no hint that the gate never applied) --------
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const char* speedup_gate = "pass";
  if (smoke) {
    speedup_gate = "skipped_smoke";
  } else if (hw_threads < 4) {
    speedup_gate = "skipped_low_core";
  } else if (speedup_at_4 < 2.0) {
    speedup_gate = "fail";
  }

  // --- machine-readable summary ----------------------------------------
  {
    const std::size_t steps =
        epochs * ((samples + 128 - 1) / 128);  // batch_size = 128
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    io::Json out = io::Json::object();
    out.set("bench", io::Json("train_throughput"));
    out.set("smoke", io::Json(smoke));
    out.set("steps_per_s_serial",
            io::Json(static_cast<double>(steps) / serial.seconds));
    out.set("speedup_at_4_threads", io::Json(speedup_at_4));
    out.set("speedup_gate", io::Json(speedup_gate));
    out.set("hw_threads", io::Json(static_cast<std::size_t>(hw_threads)));
    out.set("search_s_serial", io::Json(search_serial.seconds));
    out.set("search_s_4_threads", io::Json(search_parallel.seconds));
    out.set("bit_identical", io::Json(identical));
    // Cumulative pool counters (whole process, cold discovery included)
    // plus the warmed steady-state window measured above — the cumulative
    // miss count scales with workload size and says nothing about leaks;
    // the steady window is the real property.
    const nn::PoolStats pool = nn::TensorPool::global_stats();
    out.set("pool_hit_rate", io::Json(pool.buffer_hit_rate()));
    out.set("pool_misses",
            io::Json(static_cast<std::size_t>(pool.buffer_misses)));
    out.set("pool_steady_misses",
            io::Json(static_cast<std::size_t>(pool_steady.buffer_misses)));
    out.set("pool_steady_hit_rate", io::Json(pool_steady.buffer_hit_rate()));
    out.set("pool_steady_zero_miss", io::Json(pool_steady.buffer_misses == 0));
    // ru_maxrss is KiB on Linux.
    out.set("peak_rss_bytes",
            io::Json(static_cast<std::size_t>(usage.ru_maxrss) * 1024));
    bench::update_bench_json("BENCH_train.json", "throughput", out);
    std::printf("\nupdated BENCH_train.json (section: throughput)\n");
  }

  // --- verdict ---------------------------------------------------------
  if (!identical) {
    std::printf("\nFAIL: parallel/repeat results are not "
                "bit-identical to serial\n");
    return 1;
  }
  std::printf("\ndeterminism: all measured runs bit-identical to serial\n");

  if (pool_steady.buffer_misses != 0) {
    std::printf("FAIL: %llu pool misses during the warmed repeat search "
                "(steady state must be all hits)\n",
                static_cast<unsigned long long>(pool_steady.buffer_misses));
    return 1;
  }
  std::printf("steady-state pool: zero misses over the warmed repeat "
              "search\n");

  if (std::strcmp(speedup_gate, "skipped_smoke") == 0) {
    std::printf("speedup gate: SKIPPED (smoke mode)\n");
    return 0;
  }
  if (std::strcmp(speedup_gate, "skipped_low_core") == 0) {
    std::printf(
        "speedup gate: SKIPPED (%u hardware thread(s); a 4-lane run "
        "cannot beat serial on this machine)\n",
        hw_threads);
    return 0;
  }
  std::printf("speedup at 4 threads: %.2fx (required >= 2.0x)\n",
              speedup_at_4);
  if (std::strcmp(speedup_gate, "fail") == 0) {
    std::printf("FAIL: parallel speedup below 2x\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
