#include "predictors/mlp_predictor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/ops.hpp"
#include "nn/optim.hpp"
#include "nn/parallel.hpp"
#include "nn/pool.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lightnas::predictors {

namespace {

// The paper's predictor: three fully connected layers, 128-64-1.
std::vector<std::size_t> layer_sizes(std::size_t input_dim) {
  return {input_dim, 128, 64, 1};
}

}  // namespace

MlpPredictor::MlpPredictor(std::size_t num_layers, std::size_t num_ops,
                           std::uint64_t seed, std::string unit)
    : num_layers_(num_layers), num_ops_(num_ops), unit_(std::move(unit)) {
  util::Rng rng(seed);
  mlp_ = std::make_unique<nn::Mlp>(layer_sizes(input_dim()), rng,
                                   "latency_mlp");
  // Frozen outside train(): a backward through forward_var (the search's
  // alpha step) then computes no gradient for the predictor's weights.
  for (const nn::VarPtr& p : mlp_->parameters()) p->requires_grad = false;
}

double MlpPredictor::train(const MeasurementDataset& data,
                           const MlpTrainConfig& config) {
  assert(data.size() >= 2);
  assert(config.batch_size > 0);

  // Route every kernel in the loop (forward, backward, bias/ReLU)
  // through the configured parallel context for the duration of train().
  const nn::ParallelScope parallel_scope(config.parallel);
  // Memory-reuse layer: per-epoch graphs recycle instead of reallocating
  // (pure buffer recycling — weights are bit-identical either way).
  const nn::PooledScope pool_scope(config.pool_tensors
                                       ? nn::PoolMode::kInherit
                                       : nn::PoolMode::kDisabled);
  const std::vector<nn::VarPtr> params = mlp_->parameters();
  const nn::RequiresGradScope trainable(params, true);

  target_mean_ = util::mean(data.targets);
  target_std_ = std::max(util::stddev(data.targets), 1e-6);

  util::Rng rng(config.seed);
  nn::Adam optimizer(params, config.learning_rate, 0.9, 0.999, 1e-8,
                     config.weight_decay);
  const nn::CosineSchedule schedule(config.learning_rate,
                                    config.epochs + 1);

  double last_epoch_loss = 0.0;
  std::size_t step_epoch = 0;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    optimizer.set_lr(schedule.lr_at(step_epoch++));
    const std::vector<std::size_t> order = rng.permutation(data.size());
    double epoch_loss = 0.0;
    std::size_t batches = 0;

    for (std::size_t start = 0; start < order.size();
         start += config.batch_size) {
      const std::size_t end =
          std::min(start + config.batch_size, order.size());
      const std::size_t rows = end - start;

      // Fully overwritten below — pooled hits skip the zero-fill pass.
      nn::Tensor x = nn::Tensor::uninitialized(rows, input_dim());
      nn::Tensor y = nn::Tensor::uninitialized(rows, 1);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t idx = order[start + r];
        const std::vector<float>& enc = data.encodings[idx];
        assert(enc.size() == input_dim());
        std::copy(enc.begin(), enc.end(),
                  x.data().begin() +
                      static_cast<std::ptrdiff_t>(r * input_dim()));
        y.at(r, 0) = static_cast<float>(
            (data.targets[idx] - target_mean_) / target_std_);
      }

      optimizer.zero_grad();
      nn::VarPtr pred = mlp_->forward(nn::make_const(std::move(x)));
      nn::VarPtr loss = nn::ops::mse_loss(pred, nn::make_const(std::move(y)));
      nn::backward(loss);
      optimizer.step();

      epoch_loss += static_cast<double>(loss->value.item());
      ++batches;
    }
    last_epoch_loss = epoch_loss / static_cast<double>(batches);
    if (config.log_every != 0 && (epoch + 1) % config.log_every == 0) {
      util::log_info() << "mlp-predictor epoch " << (epoch + 1) << "/"
                       << config.epochs << " mse=" << last_epoch_loss;
    }
  }
  trained_ = true;
  return last_epoch_loss;
}

double MlpPredictor::predict(const space::Architecture& arch) const {
  return predict_encoding(arch.encode_one_hot(num_ops_));
}

double MlpPredictor::predict_encoding(
    const std::vector<float>& encoding) const {
  assert(trained_);
  assert(encoding.size() == input_dim());
  nn::Tensor x = nn::Tensor::uninitialized(1, input_dim());
  std::copy(encoding.begin(), encoding.end(), x.data().begin());
  const nn::VarPtr out = mlp_->forward(nn::make_const(std::move(x)));
  return target_mean_ +
         target_std_ * static_cast<double>(out->value.item());
}

std::vector<double> MlpPredictor::predict_batch(
    const std::vector<space::Architecture>& archs,
    const nn::ParallelContext& ctx) const {
  const nn::ParallelScope parallel_scope(&ctx);
  return predict_batch(archs);
}

std::vector<double> MlpPredictor::predict_batch(
    const std::vector<space::Architecture>& archs) const {
  assert(trained_);
  if (archs.empty()) return {};
  nn::Tensor x = nn::Tensor::uninitialized(archs.size(), input_dim());
  for (std::size_t r = 0; r < archs.size(); ++r) {
    const std::vector<float> enc = archs[r].encode_one_hot(num_ops_);
    assert(enc.size() == input_dim());
    std::copy(enc.begin(), enc.end(),
              x.data().begin() +
                  static_cast<std::ptrdiff_t>(r * input_dim()));
  }
  const nn::Tensor out = mlp_->forward_inference(x);
  std::vector<double> result(archs.size());
  for (std::size_t r = 0; r < archs.size(); ++r) {
    result[r] =
        target_mean_ + target_std_ * static_cast<double>(out.at(r, 0));
  }
  return result;
}

nn::VarPtr MlpPredictor::forward_var(const nn::VarPtr& encoding) const {
  assert(trained_);
  assert(encoding->value.rows() == 1);
  assert(encoding->value.cols() == input_dim());
  const nn::VarPtr normalized = mlp_->forward(encoding);
  return nn::ops::add_scalar(nn::ops::scale(normalized, target_std_),
                             target_mean_);
}

MlpPredictor::State MlpPredictor::export_state() const {
  State state;
  state.num_layers = num_layers_;
  state.num_ops = num_ops_;
  state.unit = unit_;
  state.target_mean = target_mean_;
  state.target_std = target_std_;
  state.trained = trained_;
  for (const nn::VarPtr& param : mlp_->parameters()) {
    // State stays a plain std::vector blob (it is a serialization
    // format, not kernel storage), so copy out of the aligned buffer.
    state.tensors.emplace_back(param->value.data().begin(),
                               param->value.data().end());
    state.shapes.emplace_back(param->value.rows(), param->value.cols());
  }
  return state;
}

MlpPredictor MlpPredictor::from_state(const State& state) {
  // The whole blob is checked before the model is built: the header's
  // dimensions must agree with the tensors it carries, so a hostile
  // num_layers/num_ops cannot make the constructor allocate more than
  // the blob itself holds.
  if (state.num_layers == 0 || state.num_ops == 0 ||
      state.num_layers > std::numeric_limits<std::size_t>::max() /
                             state.num_ops) {
    throw std::runtime_error("predictor state: invalid num_layers/num_ops");
  }
  const std::vector<std::size_t> sizes =
      layer_sizes(state.num_layers * state.num_ops);
  if (state.tensors.size() != 2 * (sizes.size() - 1)) {
    throw std::runtime_error("predictor state: wrong tensor count");
  }
  // shapes is parallel to tensors; a blob with fewer shape entries than
  // tensors would otherwise read state.shapes[i] out of bounds below.
  if (state.shapes.size() != state.tensors.size()) {
    throw std::runtime_error(
        "predictor state: shape/tensor count mismatch");
  }
  for (std::size_t i = 0; i < state.tensors.size(); ++i) {
    // nn::Mlp::parameters() order: weight (in x out), then bias (1 x out).
    const std::size_t layer = i / 2;
    const std::size_t rows = i % 2 == 0 ? sizes[layer] : 1;
    const std::size_t cols = sizes[layer + 1];
    if (state.shapes[i] != std::make_pair(rows, cols) ||
        rows > std::numeric_limits<std::size_t>::max() / cols ||
        state.tensors[i].size() != rows * cols) {
      throw std::runtime_error("predictor state: shape mismatch");
    }
    for (const float w : state.tensors[i]) {
      if (!std::isfinite(w)) {
        throw std::runtime_error("predictor state: non-finite weight");
      }
    }
  }
  if (!std::isfinite(state.target_mean) ||
      !std::isfinite(state.target_std) || !(state.target_std > 0.0)) {
    throw std::runtime_error(
        "predictor state: target_mean must be finite and target_std > 0");
  }

  MlpPredictor predictor(state.num_layers, state.num_ops, /*seed=*/0,
                         state.unit);
  const std::vector<nn::VarPtr> params = predictor.mlp_->parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    // Artifacts written before Adam flushed decayed weights still carry
    // subnormal ones; they load clean.
    std::transform(state.tensors[i].begin(), state.tensors[i].end(),
                   params[i]->value.data().begin(), [](float w) {
                     return nn::flush_below(w, nn::kMinWeight);
                   });
  }
  predictor.target_mean_ = state.target_mean;
  predictor.target_std_ = state.target_std;
  predictor.trained_ = state.trained;
  return predictor;
}

PredictorReport MlpPredictor::evaluate(
    const MeasurementDataset& data) const {
  std::vector<double> predicted;
  predicted.reserve(data.size());
  for (const std::vector<float>& enc : data.encodings) {
    predicted.push_back(predict_encoding(enc));
  }
  return evaluate_predictions(predicted, data.targets);
}

}  // namespace lightnas::predictors
