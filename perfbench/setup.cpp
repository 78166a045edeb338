#include <sys/resource.h>

#include <cmath>
#include <filesystem>

#include "hw/device.hpp"
#include "hw/simulator.hpp"
#include "io/serialize.hpp"
#include "perfbench.hpp"
#include "predictors/dataset.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace ln = lightnas;

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& metric : metrics) {
    if (metric.first == name) {
      metric.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Result::wrong(const std::string& why) {
  correct = false;
  notes.push_back(why);
}

Setup run_setup(const Options& options, Tracer* tracer, Result& result) {
  Setup setup;
  const std::int64_t start = now_ns();

  // `lightnas measure`: simulated Xavier MAXN at batch 8, 10k samples,
  // device seed 42, sampling seed 43.
  ln::predictors::MeasurementDataset data;
  {
    ScopedSpan span(tracer, "hw.measure");
    const std::int64_t t0 = now_ns();
    ln::hw::HardwareSimulator device(
        ln::hw::DeviceProfile::jetson_xavier_maxn(), 8, 42);
    ln::util::Rng rng(43);
    data = ln::predictors::build_measurement_dataset(
        setup.space, device, 10000, ln::predictors::Metric::kLatencyMs, rng);
    setup.measure_s = (now_ns() - t0) / 1e9;
  }

  // `lightnas train-predictor` at its defaults: 80/20 split, 120 epochs,
  // batch 128, pooled tensors.
  ln::util::Rng split_rng(7);
  auto [train, valid] = data.split(0.8, split_rng);
  ln::predictors::MlpPredictor trained(setup.space.num_layers(),
                                       setup.space.num_ops(), 7, "ms");
  {
    ScopedSpan span(tracer, "predictors.train");
    ln::predictors::MlpTrainConfig config;
    config.epochs = 120;
    config.batch_size = 128;
    const ln::nn::PoolStats pool0 = ln::nn::TensorPool::global_stats();
    const std::int64_t t0 = now_ns();
    trained.train(train, config);
    setup.train_s = (now_ns() - t0) / 1e9;
    setup.train_pool = ln::nn::TensorPool::global_stats() - pool0;
  }

  // Artifact round trip, as between `train-predictor` and `search`.
  const std::string path = options.work_dir + "/predictor.json";
  {
    ScopedSpan span(tracer, "io.save_predictor");
    ln::io::save_predictor(path, trained);
  }
  {
    ScopedSpan span(tracer, "io.load_predictor");
    const std::int64_t t0 = now_ns();
    setup.predictor = std::make_unique<ln::predictors::MlpPredictor>(
        ln::io::load_predictor(path));
    setup.load_ms = (now_ns() - t0) / 1e6;
  }
  setup.setup_s = (now_ns() - start) / 1e9;

  // Checks outside the set-up time: the loaded artifact predicts exactly
  // what the trained model does, and the model is usable.
  const double rmse = setup.predictor->evaluate(valid).rmse;
  if (!std::isfinite(rmse) || rmse > 1.0) {
    result.wrong("held-out RMSE " + std::to_string(rmse) + " ms");
  }
  for (std::size_t i = 0; i < valid.size() && i < 64; ++i) {
    const ln::space::Architecture& arch = valid.architectures[i];
    const double a = trained.predict(arch);
    const double b = setup.predictor->predict(arch);
    if (!(a == b)) {
      result.wrong("predictor changed across save/load");
      break;
    }
  }
  return setup;
}

std::size_t count_subnormal_weights(
    const ln::predictors::MlpPredictor& predictor) {
  std::size_t count = 0;
  for (const std::vector<float>& tensor : predictor.export_state().tensors) {
    for (const float w : tensor) {
      if (std::fpclassify(w) == FP_SUBNORMAL) ++count;
    }
  }
  return count;
}

ln::nn::SyntheticTask make_task() {
  ln::nn::SyntheticTaskConfig config;
  config.train_size = 16384;
  return ln::nn::make_synthetic_task(config);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void report_setup_layers(const Setup& setup, Result& result) {
  result.set("hw.measure_s", setup.measure_s, "s");
  result.set("predictors.train_s", setup.train_s, "s");
  result.set("io.load_predictor_ms", setup.load_ms, "ms");
  result.set("predictors.subnormal_weights",
             static_cast<double>(count_subnormal_weights(*setup.predictor)),
             "count");
  const auto& pool = setup.train_pool;
  result.set("nn.pool.train_buffer_hit_rate", pool.buffer_hit_rate(),
             "ratio");
  const std::uint64_t tapes = pool.tape_hits + pool.tape_misses;
  result.set("nn.pool.train_tape_hit_rate",
             tapes ? static_cast<double>(pool.tape_hits) / tapes : 0.0,
             "ratio");
}

void report_reuse(const ln::nn::PoolStats& pool,
                  const ln::nn::plan::PlanStats& plan, Result& result) {
  result.set("nn.pool.buffer_hit_rate", pool.buffer_hit_rate(), "ratio");
  const std::uint64_t tapes = pool.tape_hits + pool.tape_misses;
  result.set("nn.pool.tape_hit_rate",
             tapes ? static_cast<double>(pool.tape_hits) / tapes : 0.0,
             "ratio");
  result.set("nn.plan.hits", static_cast<double>(plan.hits), "count");
  result.set("nn.plan.compiles", static_cast<double>(plan.compiles), "count");
  result.set("nn.plan.arena_mb", plan.arena_bytes / 1048576.0, "MB");
}

void EpochTimes::add(const std::vector<double>& epoch_us,
                     std::size_t warmup_epochs, std::size_t checkpoint_every) {
  for (std::size_t e = 0; e < epoch_us.size(); ++e) {
    all_us.push_back(epoch_us[e]);
    if (e >= warmup_epochs && (e + 1) % checkpoint_every != 0) {
      steady_us.push_back(epoch_us[e]);
    }
  }
}

void EpochTimes::report(Result& result) const {
  result.set("p50_us", quantile(steady_us, 0.50), "us");
  result.set("p99_us", quantile(all_us, 0.99), "us");
}

double TimedPredictor::predict(const ln::space::Architecture& arch) const {
  ScopedSpan span(tracer_, "predictors.predict");
  return inner_.predict(arch);
}

std::vector<double> TimedPredictor::predict_batch(
    const std::vector<ln::space::Architecture>& archs) const {
  ScopedSpan span(tracer_, "predictors.predict_batch");
  span.set_payload(static_cast<double>(archs.size()));
  return inner_.predict_batch(archs);
}

ln::nn::VarPtr TimedPredictor::forward_var(
    const ln::nn::VarPtr& encoding) const {
  ScopedSpan span(tracer_, "predictors.forward_var");
  return inner_.forward_var(encoding);
}

}  // namespace perfbench
