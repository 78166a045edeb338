#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/gumbel.hpp"
#include "core/lightnas.hpp"
#include "core/search_step.hpp"
#include "core/supernet.hpp"
#include "nn/ops.hpp"
#include "nn/optim.hpp"
#include "nn/pool.hpp"
#include "hw/simulator.hpp"
#include "predictors/dataset.hpp"
#include "predictors/mlp_predictor.hpp"
#include "util/stats.hpp"

namespace lightnas::core {
namespace {

bool bits_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

bool all_zero(const nn::Tensor& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] != 0.0f) return false;
  }
  return true;
}

TEST(Gumbel, NoiseShapeAndMoments) {
  util::Rng rng(1);
  const nn::Tensor noise = gumbel_noise(50, 50, rng);
  EXPECT_EQ(noise.rows(), 50u);
  std::vector<double> xs;
  xs.reserve(noise.size());
  for (std::size_t i = 0; i < noise.size(); ++i) {
    xs.push_back(noise[i]);
  }
  EXPECT_NEAR(util::mean(xs), 0.5772, 0.05);
}

TEST(TemperatureSchedule, DecaysFromInitialToFinal) {
  const TemperatureSchedule sched(5.0, 0.1, 100);
  EXPECT_DOUBLE_EQ(sched.at(0), 5.0);
  EXPECT_NEAR(sched.at(100), 0.1, 1e-9);
  EXPECT_NEAR(sched.at(1000), 0.1, 1e-9);
  for (std::size_t e = 1; e <= 100; ++e) {
    EXPECT_LT(sched.at(e), sched.at(e - 1));
  }
}

class SupernetTest : public ::testing::Test {
 protected:
  SupernetTest()
      : space_(space::SearchSpace::fbnet_xavier()),
        task_(nn::make_synthetic_task(small_task())),
        net_(space_, task_.train.feature_dim(), 10, config()) {}

  static nn::SyntheticTaskConfig small_task() {
    nn::SyntheticTaskConfig config;
    config.train_size = 256;
    config.valid_size = 64;
    return config;
  }
  static SupernetConfig config() {
    SupernetConfig c;
    c.seed = 5;
    return c;
  }

  space::SearchSpace space_;
  nn::SyntheticTask task_;
  SurrogateSupernet net_;
};

TEST_F(SupernetTest, HiddenWidthGrowsWithKernelExpansionAndStage) {
  const space::Operator k3e3{space::OpKind::kMBConv, 3, 3};
  const space::Operator k3e6{space::OpKind::kMBConv, 3, 6};
  const space::Operator k7e6{space::OpKind::kMBConv, 7, 6};
  const space::Operator skip{space::OpKind::kSkip, 0, 0};
  EXPECT_EQ(net_.hidden_width(skip), 0u);
  EXPECT_LT(net_.hidden_width(k3e3), net_.hidden_width(k3e6));
  EXPECT_LT(net_.hidden_width(k3e6), net_.hidden_width(k7e6));
  EXPECT_LT(net_.hidden_width(k3e6, 1), net_.hidden_width(k3e6, 6));
}

TEST_F(SupernetTest, SinglePathOutputShape) {
  const space::Architecture arch = space_.mobilenet_v2_like();
  const nn::VarPtr logits =
      net_.forward_single_path(task_.valid.features, arch.ops());
  EXPECT_EQ(logits->value.rows(), task_.valid.size());
  EXPECT_EQ(logits->value.cols(), 10u);
}

TEST_F(SupernetTest, GatesValuedOneDoNotChangeOutput) {
  const space::Architecture arch = space_.mobilenet_v2_like();
  const nn::VarPtr plain =
      net_.forward_single_path(task_.valid.features, arch.ops());

  std::vector<nn::VarPtr> gates(space_.num_layers(), nullptr);
  for (std::size_t l = 1; l < space_.num_layers(); ++l) {
    gates[l] = nn::make_leaf(nn::Tensor::scalar(1.0f));
  }
  const nn::VarPtr gated =
      net_.forward_single_path(task_.valid.features, arch.ops(), gates);
  for (std::size_t i = 0; i < plain->value.size(); ++i) {
    ASSERT_NEAR(gated->value[i], plain->value[i], 1e-5f);
  }
}

TEST_F(SupernetTest, GateGradientsExistForEveryGatedLayer) {
  const space::Architecture arch = space_.mobilenet_v2_like();
  std::vector<nn::VarPtr> gates(space_.num_layers(), nullptr);
  for (std::size_t l = 1; l < space_.num_layers(); ++l) {
    gates[l] = nn::make_leaf(nn::Tensor::scalar(1.0f));
  }
  const nn::VarPtr logits =
      net_.forward_single_path(task_.valid.features, arch.ops(), gates);
  nn::backward(
      nn::ops::softmax_cross_entropy(logits, task_.valid.labels));
  for (std::size_t l = 1; l < space_.num_layers(); ++l) {
    EXPECT_NE(gates[l]->grad.item(), 0.0f) << "layer " << l;
  }
}

TEST_F(SupernetTest, MultiPathWithOneHotEqualsSinglePath) {
  util::Rng rng(7);
  const space::Architecture arch = space_.random_architecture(rng);
  nn::Tensor weights =
      nn::Tensor::zeros(space_.num_layers(), space_.num_ops());
  for (std::size_t l = 0; l < space_.num_layers(); ++l) {
    weights.at(l, arch.op_at(l)) = 1.0f;
  }
  const nn::VarPtr multi = net_.forward_multi_path(
      task_.valid.features, nn::make_const(std::move(weights)));
  const nn::VarPtr single =
      net_.forward_single_path(task_.valid.features, arch.ops());
  for (std::size_t i = 0; i < multi->value.size(); ++i) {
    ASSERT_NEAR(multi->value[i], single->value[i], 1e-4f);
  }
}

TEST_F(SupernetTest, MultiPathMemoryIsKTimesSinglePath) {
  // The Sec 3.3 / Table 1 claim quantified: multi-path activation
  // memory is ~K x the single-path footprint.
  const double ratio =
      static_cast<double>(net_.activations_multi_path(128)) /
      static_cast<double>(net_.activations_single_path(128));
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, static_cast<double>(space_.num_ops()) + 1.0);
}

TEST_F(SupernetTest, WeightParametersCoverAllBlocks) {
  // stem (2) + classifier (2) + 22 layers x 6 MBConv blocks x 4 tensors.
  const std::size_t expected = 2 + 2 + 22 * 6 * 4;
  EXPECT_EQ(net_.weight_parameters().size(), expected);
}

TEST_F(SupernetTest, PathManifestIsExactlyTheGradientSupport) {
  // The manifest must name every weight a single-path backward writes
  // (or the sparse w-step would miss a gradient) and nothing else.
  const std::vector<nn::VarPtr> params = net_.weight_parameters();
  const std::size_t skip = space_.ops().skip_index();
  util::Rng rng(17);
  std::vector<std::uint32_t> manifest;
  for (std::size_t trial = 0; trial < 24; ++trial) {
    std::vector<std::size_t> ops =
        trial == 0 ? space_.uniform_architecture(skip).ops()
                   : space_.random_architecture(rng).ops();
    SCOPED_TRACE("trial " + std::to_string(trial));
    for (const nn::VarPtr& p : params) p->zero_grad();
    nn::backward(nn::ops::softmax_cross_entropy(
        net_.forward_single_path(task_.valid.features, ops),
        task_.valid.labels));
    std::vector<std::uint32_t> support;
    for (std::uint32_t i = 0; i < params.size(); ++i) {
      if (!all_zero(params[i]->grad)) support.push_back(i);
    }
    net_.path_parameters(ops, manifest);
    EXPECT_EQ(manifest, support);

    // Stem and classifier always; four tensors per non-skip layer and
    // nothing for a skip.
    std::size_t blocks = 0;
    for (const std::size_t op : ops) blocks += op != skip ? 1 : 0;
    EXPECT_EQ(manifest.size(), 2 + 2 + 4 * blocks);
    ASSERT_GE(manifest.size(), 4u);
    EXPECT_EQ(manifest[0], 0u);
    EXPECT_EQ(manifest[1], 1u);
    EXPECT_EQ(manifest.back(), params.size() - 1);
    EXPECT_EQ(manifest[manifest.size() - 2], params.size() - 2);
  }
}

class SearchTest : public ::testing::Test {
 protected:
  static LightNasConfig tiny_config(double target) {
    LightNasConfig config;
    config.target = target;
    config.epochs = 8;
    config.warmup_epochs = 3;
    config.w_steps_per_epoch = 4;
    config.alpha_steps_per_epoch = 4;
    config.batch_size = 32;
    config.seed = 2;
    return config;
  }
  static nn::SyntheticTaskConfig tiny_task() {
    nn::SyntheticTaskConfig config;
    config.train_size = 512;
    config.valid_size = 256;
    return config;
  }

  /// A cheap, perfectly-trained stand-in predictor for engine tests:
  /// linear in the encoding (like a LUT) but built directly from the
  /// noise-free cost model.
  class LinearOracle : public predictors::HardwarePredictor {
   public:
    LinearOracle(const space::SearchSpace& space, const hw::CostModel& model)
        : space_(&space) {
      weights_.resize(space.num_layers() * space.num_ops());
      // Per-op marginal cost relative to an all-skip base.
      const space::Architecture base =
          space.uniform_architecture(space.ops().skip_index());
      base_ = model.network_latency_ms(space, base);
      for (std::size_t l = 0; l < space.num_layers(); ++l) {
        for (std::size_t k = 0; k < space.num_ops(); ++k) {
          space::Architecture probe = base;
          if (space.layers()[l].searchable) probe.set_op(l, k);
          weights_[l * space.num_ops() + k] =
              model.network_latency_ms(space, probe) - base_;
        }
      }
    }
    double predict(const space::Architecture& arch) const override {
      const auto enc = arch.encode_one_hot(space_->num_ops());
      double total = base_;
      for (std::size_t i = 0; i < enc.size(); ++i) {
        total += enc[i] * weights_[i];
      }
      return total;
    }
    nn::VarPtr forward_var(const nn::VarPtr& encoding) const override {
      nn::Tensor w(weights_.size(), 1);
      for (std::size_t i = 0; i < weights_.size(); ++i) {
        w[i] = static_cast<float>(weights_[i]);
      }
      return nn::ops::add_scalar(
          nn::ops::matmul(encoding, nn::make_const(std::move(w))), base_);
    }
    std::string unit() const override { return "ms"; }

   private:
    const space::SearchSpace* space_;
    std::vector<double> weights_;
    double base_ = 0.0;
  };

  space::SearchSpace space_ = space::SearchSpace::fbnet_xavier();
  hw::CostModel model_{hw::DeviceProfile::jetson_xavier_maxn(), 8};
};

TEST_F(SearchTest, TraceIsComplete) {
  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  const LinearOracle predictor(space_, model_);
  LightNas engine(space_, predictor, task, SupernetConfig{},
                  tiny_config(22.0));
  const SearchResult result = engine.search();
  EXPECT_EQ(result.trace.size(), 8u);
  EXPECT_EQ(result.weight_updates, 8u * 4u);
  EXPECT_EQ(result.alpha_updates, 5u * 4u);
  for (const SearchEpochStats& stats : result.trace) {
    EXPECT_GT(stats.tau, 0.0);
    EXPECT_GT(stats.predicted_cost, 0.0);
    EXPECT_EQ(stats.derived.num_layers(), space_.num_layers());
    EXPECT_GE(stats.valid_accuracy, 0.0);
    EXPECT_LE(stats.valid_accuracy, 1.0);
  }
}

TEST_F(SearchTest, LambdaMovesTowardConstraint) {
  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  const LinearOracle predictor(space_, model_);
  // Start far below an unreachable target: lambda must go negative to
  // reward latency (Sec 3.4).
  LightNas engine(space_, predictor, task, SupernetConfig{},
                  tiny_config(33.0));
  const SearchResult result = engine.search();
  EXPECT_LT(result.final_lambda, 0.0);
  // And the search raised the architecture's cost from the all-op-0
  // initialization.
  const double initial = predictor.predict(space_.uniform_architecture(0));
  EXPECT_GT(result.final_predicted_cost, initial);
}

TEST_F(SearchTest, ReproducibleForSameSeed) {
  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  const LinearOracle predictor(space_, model_);
  LightNas a(space_, predictor, task, SupernetConfig{}, tiny_config(22.0));
  LightNas b(space_, predictor, task, SupernetConfig{}, tiny_config(22.0));
  EXPECT_EQ(a.search().architecture.ops(), b.search().architecture.ops());
}

TEST_F(SearchTest, DifferentSeedsExploreDifferently) {
  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  const LinearOracle predictor(space_, model_);
  LightNasConfig c1 = tiny_config(22.0);
  LightNasConfig c2 = tiny_config(22.0);
  c2.seed = 77;
  LightNas a(space_, predictor, task, SupernetConfig{}, c1);
  LightNas b(space_, predictor, task, SupernetConfig{}, c2);
  EXPECT_NE(a.search().architecture.ops(), b.search().architecture.ops());
}

TEST_F(SearchTest, FixedLayerNeverChanges) {
  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  const LinearOracle predictor(space_, model_);
  LightNas engine(space_, predictor, task, SupernetConfig{},
                  tiny_config(25.0));
  const SearchResult result = engine.search();
  EXPECT_EQ(result.architecture.op_at(0), 0u);
  for (const SearchEpochStats& stats : result.trace) {
    EXPECT_EQ(stats.derived.op_at(0), 0u);
  }
}

/// Throws from forward_var, i.e. midway through an alpha step.
class ThrowingPredictor : public predictors::HardwarePredictor {
 public:
  double predict(const space::Architecture&) const override { return 1.0; }
  nn::VarPtr forward_var(const nn::VarPtr&) const override {
    throw std::runtime_error("forward_var failed");
  }
  std::string unit() const override { return "ms"; }
};

TEST_F(SearchTest, SparseWStepsMatchDenseReferenceTrajectory) {
  // A hand-rolled dense w-step (whole-supernet zero_grad, forward and
  // backward on the path, dense clipped SGD) against the trainer's
  // path-sparse one, with alpha steps interleaved as in a search.
  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  const LinearOracle predictor(space_, model_);
  const std::vector<Constraint> constraints = {{&predictor, 22.0}};
  const SearchTopology topology(space_);
  constexpr std::size_t kSteps = 200;
  for (const bool plans : {false, true}) {
    SCOPED_TRACE(plans ? "plans on" : "plans off");
    LightNasConfig config = tiny_config(22.0);
    config.plan.enabled = plans;
    config.plan.compile_after = 1;
    SharedWTrainer trainer(topology, task, SupernetConfig{}, config, kSteps);
    AlphaLambdaHead head(topology, constraints, config);

    SupernetConfig seeded;
    seeded.seed ^= config.seed;
    const SurrogateSupernet reference(space_, task.train.feature_dim(),
                                      trainer.supernet().num_classes(),
                                      seeded);
    const std::vector<nn::VarPtr> ref_params = reference.weight_parameters();
    nn::Sgd ref_sgd(ref_params, config.w_lr, config.w_momentum,
                    config.w_weight_decay, /*clip_norm=*/5.0);
    const nn::CosineSchedule ref_schedule(config.w_lr, kSteps);

    util::Rng path_rng(5), train_rng(6), valid_rng(7), alpha_rng(8);
    nn::Batcher train_batches(task.train, config.batch_size, train_rng);
    nn::Batcher valid_batches(task.valid, config.batch_size, valid_rng);
    // A small pool of recurring paths (so plans compile and serve hits)
    // mixed with fresh ones.
    std::vector<std::vector<std::size_t>> recurring;
    for (std::size_t i = 0; i < 6; ++i) {
      recurring.push_back(space_.random_architecture(path_rng).ops());
    }
    const nn::plan::PlanStats before = nn::plan::global_stats();
    nn::PooledScope pooled(nn::PoolMode::kFresh);
    for (std::size_t s = 0; s < kSteps; ++s) {
      const std::vector<std::size_t> ops =
          s % 3 == 0 ? space_.random_architecture(path_rng).ops()
                     : recurring[path_rng.uniform_index(recurring.size())];
      const nn::Dataset batch = train_batches.next();
      const double loss = trainer.step(batch, ops);

      ref_sgd.zero_grad();
      const nn::VarPtr ref_loss = nn::ops::softmax_cross_entropy(
          reference.forward_single_path(batch.features, ops), batch.labels);
      nn::backward(ref_loss);
      ref_sgd.set_lr(ref_schedule.lr_at(s));
      ref_sgd.step();
      ASSERT_EQ(loss, static_cast<double>(ref_loss->value.item()))
          << "step " << s;

      if (s % 10 == 9) {
        head.alpha_step(trainer.supernet(), trainer.weight_parameters(),
                        valid_batches.next(), 1.0, alpha_rng);
      }
    }
    if (plans) EXPECT_GT((nn::plan::global_stats() - before).hits, 0u);

    const SharedWTrainer::State state = trainer.export_state();
    const nn::Sgd::State ref_state = ref_sgd.export_state();
    ASSERT_EQ(state.weights.size(), ref_params.size());
    for (std::size_t i = 0; i < ref_params.size(); ++i) {
      SCOPED_TRACE("param " + std::to_string(i));
      EXPECT_TRUE(bits_equal(state.weights[i], ref_params[i]->value));
      EXPECT_TRUE(bits_equal(state.velocity[i], ref_state.velocity[i]));
    }
  }
}

TEST_F(SearchTest, AlphaStepMatchesReferenceWithWeightGradientsOn) {
  // The head's alpha step computes no supernet weight gradient; a
  // reference rebuilt from public pieces, with weight gradients on,
  // must reach the same alpha, Adam state and lambdas bit for bit.
  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  const LinearOracle predictor(space_, model_);
  const std::vector<Constraint> constraints = {{&predictor, 22.0},
                                               {&predictor, 30.0}};
  const SearchTopology topology(space_);
  const LightNasConfig config = tiny_config(22.0);
  SharedWTrainer trainer(topology, task, SupernetConfig{}, config, 8);
  AlphaLambdaHead head(topology, constraints, config);

  util::Rng train_rng(3), path_rng(4);
  nn::Batcher train_batches(task.train, config.batch_size, train_rng);
  for (std::size_t s = 0; s < 3; ++s) {
    trainer.step(train_batches.next(),
                 space_.random_architecture(path_rng).ops());
  }
  const std::vector<nn::VarPtr>& weights = trainer.weight_parameters();
  for (const nn::VarPtr& w : weights) w->zero_grad();

  const std::size_t rows = topology.num_searchable();
  const nn::VarPtr alpha = nn::make_leaf(
      nn::Tensor::zeros(rows, topology.num_ops()), "alpha");
  nn::Adam adam({alpha}, config.alpha_lr, 0.9, 0.999, 1e-8,
                config.alpha_weight_decay);
  std::vector<nn::LambdaAscent> lambdas(
      constraints.size(),
      nn::LambdaAscent(config.lambda_lr, config.lambda_init));

  util::Rng head_rng(11), ref_rng(11), valid_rng(12);
  nn::Batcher valid_batches(task.valid, config.batch_size, valid_rng);
  for (std::size_t k = 0; k < 12; ++k) {
    SCOPED_TRACE("alpha step " + std::to_string(k));
    const nn::Dataset batch = valid_batches.next();
    const double tau = 2.0 - 0.1 * static_cast<double>(k);
    head.alpha_step(trainer.supernet(), weights, batch, tau, head_rng);
    for (const nn::VarPtr& w : weights) {
      ASSERT_TRUE(w->requires_grad) << w->name;
      ASSERT_TRUE(all_zero(w->grad)) << w->name;
    }

    // Reference: the same step, op for op, with the weights trainable.
    const nn::VarPtr p_hat = nn::ops::row_softmax(nn::ops::scale(
        nn::ops::add(alpha, nn::make_const(gumbel_noise(
                                rows, topology.num_ops(), ref_rng))),
        1.0 / tau));
    std::vector<std::size_t> ops(space_.num_layers(), 0);
    std::vector<nn::VarPtr> gates(space_.num_layers(), nullptr);
    for (std::size_t s = 0; s < rows; ++s) {
      const std::size_t layer = topology.searchable_layers()[s];
      ops[layer] = p_hat->value.argmax_row(s);
      const nn::VarPtr soft = nn::ops::select(p_hat, s, ops[layer]);
      gates[layer] = nn::ops::add_scalar(
          nn::ops::sub(soft, nn::ops::detach(soft)), 1.0);
    }
    nn::VarPtr loss = nn::ops::softmax_cross_entropy(
        trainer.supernet().forward_single_path(batch.features, ops, gates),
        batch.labels);
    const nn::VarPtr encoding =
        topology.assemble_encoding(nn::ops::binarize_rows_ste(p_hat));
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      const nn::VarPtr violation = nn::ops::add_scalar(
          nn::ops::scale(constraints[c].predictor->forward_var(encoding),
                         1.0 / constraints[c].target),
          -1.0);
      loss = nn::ops::add(loss,
                          nn::ops::scale(violation, lambdas[c].value()));
      if (config.penalty_mu != 0.0) {
        loss = nn::ops::add(
            loss, nn::ops::scale(nn::ops::mul(violation, violation),
                                 config.penalty_mu));
      }
    }
    adam.zero_grad();
    nn::backward(loss);
    adam.step();
    const space::Architecture derived = topology.derive(alpha->value);
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      lambdas[c].step(constraints[c].predictor->predict(derived) /
                          constraints[c].target -
                      1.0);
    }
    // The reference did write weight gradients; clear them so the next
    // head step is checked from all-zero again.
    bool leaked = false;
    for (const nn::VarPtr& w : weights) leaked |= !all_zero(w->grad);
    EXPECT_TRUE(leaked);
    for (const nn::VarPtr& w : weights) w->zero_grad();

    const AlphaLambdaHead::State state = head.export_state();
    const nn::Adam::State ref_adam = adam.export_state();
    EXPECT_TRUE(bits_equal(state.alpha, alpha->value));
    ASSERT_EQ(state.adam_m.size(), 1u);
    EXPECT_TRUE(bits_equal(state.adam_m[0], ref_adam.m[0]));
    EXPECT_TRUE(bits_equal(state.adam_v[0], ref_adam.v[0]));
    EXPECT_EQ(state.adam_t, ref_adam.t);
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      EXPECT_EQ(state.lambdas[c], lambdas[c].value());
    }
  }
}

TEST_F(SearchTest, AlphaStepsComputeNoPredictorWeightGradients) {
  // The constraint predictor is trained once and then only read: its
  // weights stay frozen outside train(), so alpha steps add nothing to
  // their gradients.
  hw::HardwareSimulator device(hw::DeviceProfile::jetson_xavier_maxn(), 8,
                               42);
  util::Rng data_rng(5);
  const predictors::MeasurementDataset data =
      predictors::build_measurement_dataset(
          space_, device, 64, predictors::Metric::kLatencyMs, data_rng);
  predictors::MlpPredictor predictor(space_.num_layers(), space_.num_ops());
  predictors::MlpTrainConfig train_config;
  train_config.epochs = 2;
  predictor.train(data, train_config);
  for (const nn::VarPtr& p : predictor.parameters()) {
    ASSERT_FALSE(p->requires_grad) << p->name;
    p->zero_grad();  // the last training step's gradient
  }
  // Loaded from a snapshot, as the CLI does: never trained here.
  predictors::MlpPredictor loaded =
      predictors::MlpPredictor::from_state(predictor.export_state());

  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  // Targets below every prediction, so the lambdas grow and the cost
  // terms carry gradient into the predictors.
  const std::vector<Constraint> constraints = {{&predictor, 10.0},
                                               {&loaded, 12.0}};
  const SearchTopology topology(space_);
  const LightNasConfig config = tiny_config(22.0);
  SharedWTrainer trainer(topology, task, SupernetConfig{}, config, 8);
  AlphaLambdaHead head(topology, constraints, config);
  util::Rng rng(1), batch_rng(2);
  nn::Batcher valid_batches(task.valid, config.batch_size, batch_rng);
  const nn::Tensor alpha_before = head.export_state().alpha;
  for (std::size_t k = 0; k < 6; ++k) {
    head.alpha_step(trainer.supernet(), trainer.weight_parameters(),
                    valid_batches.next(), 1.0, rng);
  }
  const AlphaLambdaHead::State state = head.export_state();
  EXPECT_FALSE(bits_equal(state.alpha, alpha_before));
  EXPECT_GT(state.lambdas[0], 0.0);
  EXPECT_GT(state.lambdas[1], 0.0);
  for (const predictors::MlpPredictor* mlp : {&predictor, &loaded}) {
    for (const nn::VarPtr& p : mlp->parameters()) {
      EXPECT_FALSE(p->requires_grad) << p->name;
      for (std::size_t i = 0; i < p->grad.size(); ++i) {
        ASSERT_TRUE(p->grad[i] == 0.0f && !std::signbit(p->grad[i]))
            << p->name << "[" << i << "] = " << p->grad[i];
      }
    }
  }
}

TEST_F(SearchTest, AlphaStepRestoresTrainableWeightsWhenItThrows) {
  const nn::SyntheticTask task = nn::make_synthetic_task(tiny_task());
  const ThrowingPredictor predictor;
  const std::vector<Constraint> constraints = {{&predictor, 22.0}};
  const SearchTopology topology(space_);
  const LightNasConfig config = tiny_config(22.0);
  SharedWTrainer trainer(topology, task, SupernetConfig{}, config, 8);
  AlphaLambdaHead head(topology, constraints, config);
  util::Rng rng(1), batch_rng(2);
  nn::Batcher valid_batches(task.valid, config.batch_size, batch_rng);
  EXPECT_THROW(head.alpha_step(trainer.supernet(),
                               trainer.weight_parameters(),
                               valid_batches.next(), 1.0, rng),
               std::runtime_error);
  for (const nn::VarPtr& w : trainer.weight_parameters()) {
    EXPECT_TRUE(w->requires_grad) << w->name;
  }
}

}  // namespace
}  // namespace lightnas::core
