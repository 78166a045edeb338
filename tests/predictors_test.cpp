#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/ops.hpp"
#include "predictors/lut_predictor.hpp"
#include "predictors/mlp_predictor.hpp"
#include "predictors/ensemble.hpp"
#include "predictors/oracle.hpp"
#include "util/stats.hpp"

namespace lightnas::predictors {
namespace {

class PredictorTest : public ::testing::Test {
 protected:
  space::SearchSpace space_ = space::SearchSpace::fbnet_xavier();
  hw::HardwareSimulator device_{hw::DeviceProfile::jetson_xavier_maxn(), 8,
                                42};
};

TEST_F(PredictorTest, DatasetBuilderShapesAndEncodings) {
  util::Rng rng(1);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 50, Metric::kLatencyMs, rng);
  EXPECT_EQ(data.size(), 50u);
  for (const auto& enc : data.encodings) {
    ASSERT_EQ(enc.size(), space_.num_layers() * space_.num_ops());
    float total = 0.0f;
    for (float v : enc) total += v;
    EXPECT_FLOAT_EQ(total, static_cast<float>(space_.num_layers()));
  }
  for (double t : data.targets) EXPECT_GT(t, 0.0);
}

TEST_F(PredictorTest, DatasetSplitFractions) {
  util::Rng rng(2);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 100, Metric::kLatencyMs, rng);
  const auto [train, valid] = data.split(0.8, rng);
  EXPECT_EQ(train.size(), 80u);
  EXPECT_EQ(valid.size(), 20u);
}

TEST_F(PredictorTest, BiasedSamplingWidensCostRange) {
  util::Rng rng_a(3), rng_b(3);
  const MeasurementDataset uniform = build_measurement_dataset(
      space_, device_, 400, Metric::kLatencyMs, rng_a, 0.0);
  const MeasurementDataset enriched = build_measurement_dataset(
      space_, device_, 400, Metric::kLatencyMs, rng_b, 0.6);
  const double uniform_range = util::max_of(uniform.targets) -
                               util::min_of(uniform.targets);
  const double enriched_range = util::max_of(enriched.targets) -
                                util::min_of(enriched.targets);
  EXPECT_GT(enriched_range, uniform_range);
}

TEST_F(PredictorTest, MlpLearnsLatencyToLowRmse) {
  util::Rng rng(4);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 1200, Metric::kLatencyMs, rng);
  auto [train, valid] = data.split(0.8, rng);
  MlpPredictor mlp(space_.num_layers(), space_.num_ops(), 7);
  MlpTrainConfig config;
  config.epochs = 60;
  config.batch_size = 64;
  mlp.train(train, config);
  const PredictorReport report = mlp.evaluate(valid);
  EXPECT_LT(report.rmse, 0.6);      // << the multi-ms latency spread
  EXPECT_GT(report.pearson, 0.97);
  EXPECT_GT(report.kendall, 0.8);
  EXPECT_LT(std::abs(report.bias), 0.2);
}

TEST_F(PredictorTest, MlpForwardVarMatchesPredict) {
  util::Rng rng(5);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 300, Metric::kLatencyMs, rng);
  MlpPredictor mlp(space_.num_layers(), space_.num_ops(), 7);
  MlpTrainConfig config;
  config.epochs = 10;
  mlp.train(data, config);

  const space::Architecture arch = space_.random_architecture(rng);
  const std::vector<float> enc = arch.encode_one_hot(space_.num_ops());
  nn::Tensor x(1, enc.size());
  std::copy(enc.begin(), enc.end(), x.data().begin());
  const nn::VarPtr out = mlp.forward_var(nn::make_const(std::move(x)));
  EXPECT_NEAR(out->value.item(), mlp.predict(arch), 1e-3);
}

// Regression: a state blob whose shapes array is shorter than its
// tensors array used to index state.shapes[i] out of bounds during
// reconstruction. Every count mismatch must be a clean runtime_error.
TEST_F(PredictorTest, FromStateRejectsInconsistentStateBlobs) {
  const MlpPredictor predictor(space_.num_layers(), space_.num_ops(), 7);
  const MlpPredictor::State good = predictor.export_state();
  ASSERT_EQ(good.tensors.size(), good.shapes.size());

  // Round trip of a consistent blob works.
  EXPECT_NO_THROW(MlpPredictor::from_state(good));

  MlpPredictor::State missing_shape = good;
  missing_shape.shapes.pop_back();
  EXPECT_THROW(MlpPredictor::from_state(missing_shape),
               std::runtime_error);

  MlpPredictor::State no_shapes = good;
  no_shapes.shapes.clear();
  EXPECT_THROW(MlpPredictor::from_state(no_shapes), std::runtime_error);

  MlpPredictor::State missing_tensor = good;
  missing_tensor.tensors.pop_back();
  EXPECT_THROW(MlpPredictor::from_state(missing_tensor),
               std::runtime_error);

  MlpPredictor::State bad_shape = good;
  bad_shape.shapes.front().first += 1;
  EXPECT_THROW(MlpPredictor::from_state(bad_shape), std::runtime_error);
}

TEST_F(PredictorTest, FromStateRejectsInvalidHeaderAndValues) {
  const MlpPredictor predictor(space_.num_layers(), space_.num_ops(), 7);
  const MlpPredictor::State good = predictor.export_state();
  const auto rejects = [](const MlpPredictor::State& state) {
    EXPECT_THROW(MlpPredictor::from_state(state), std::runtime_error);
  };

  MlpPredictor::State no_layers = good;
  no_layers.num_layers = 0;
  rejects(no_layers);

  // A header that disagrees with its tensors is rejected before the
  // constructor would allocate num_layers * num_ops x 128 floats.
  MlpPredictor::State huge = good;
  huge.num_layers = std::size_t{1} << 40;
  rejects(huge);
  huge.num_ops = std::size_t{1} << 40;  // the product overflows
  rejects(huge);

  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {std::nanf(""), inf, -inf}) {
    MlpPredictor::State weight = good;
    weight.tensors[2][5] = bad;
    rejects(weight);
  }

  for (const double mean : {std::nan(""), HUGE_VAL}) {
    MlpPredictor::State state = good;
    state.target_mean = mean;
    rejects(state);
  }
  for (const double std_dev : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    MlpPredictor::State state = good;
    state.target_std = std_dev;
    rejects(state);
  }
}

TEST_F(PredictorTest, FromStateFlushesSubnormalWeights) {
  const MlpPredictor predictor(space_.num_layers(), space_.num_ops(), 7);
  MlpPredictor::State state = predictor.export_state();
  // As saved by a build that let Adam leave subnormal weights, and
  // tiny normal ones whose products underflow, behind.
  std::size_t injected = 0;
  for (std::vector<float>& tensor : state.tensors) {
    for (std::size_t i = 0; i < tensor.size(); i += 3) {
      const float tiny = (i % 2 == 0) ? 1e-40f : 1e-30f;
      tensor[i] = (i % 4 == 0) ? tiny : -tiny;
      ++injected;
    }
  }
  ASSERT_GT(injected, 0u);
  const MlpPredictor::State loaded =
      MlpPredictor::from_state(state).export_state();
  for (std::size_t t = 0; t < loaded.tensors.size(); ++t) {
    for (std::size_t i = 0; i < loaded.tensors[t].size(); ++i) {
      const float w = loaded.tensors[t][i];
      ASSERT_NE(std::fpclassify(w), FP_SUBNORMAL);
      if (i % 3 == 0) {
        EXPECT_EQ(w, 0.0f);
      } else {
        EXPECT_EQ(w, state.tensors[t][i]);  // normal weights untouched
      }
    }
  }
}

TEST_F(PredictorTest, TrainedMlpHasNoSubnormalWeights) {
  // Small data, many Adam steps: weight decay drives the dead units'
  // weights toward zero. Before Adam flushed them, this run ended with
  // ~740 subnormal weights. Now they are exactly zero: no weight is left
  // below kMinWeight, where its products could underflow.
  util::Rng rng(4);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 300, Metric::kLatencyMs, rng);
  MlpPredictor mlp(space_.num_layers(), space_.num_ops(), 7);
  MlpTrainConfig config;
  config.epochs = 100;
  config.batch_size = 16;
  mlp.train(data, config);
  std::size_t tiny = 0;
  std::size_t zero = 0;
  for (const std::vector<float>& tensor : mlp.export_state().tensors) {
    for (const float w : tensor) {
      tiny += (w != 0.0f && std::fabs(w) < nn::kMinWeight) ? 1 : 0;
      zero += w == 0.0f ? 1 : 0;
    }
  }
  EXPECT_EQ(tiny, 0u);
  EXPECT_GT(zero, 0u);
}

TEST_F(PredictorTest, MlpIsDifferentiableWrtEncoding) {
  util::Rng rng(6);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 300, Metric::kLatencyMs, rng);
  MlpPredictor mlp(space_.num_layers(), space_.num_ops(), 7);
  MlpTrainConfig config;
  config.epochs = 10;
  mlp.train(data, config);

  const space::Architecture arch = space_.random_architecture(rng);
  const std::vector<float> enc = arch.encode_one_hot(space_.num_ops());
  nn::Tensor x(1, enc.size());
  std::copy(enc.begin(), enc.end(), x.data().begin());
  nn::VarPtr input = nn::make_leaf(std::move(x));
  nn::backward(mlp.forward_var(input));
  EXPECT_GT(input->grad.abs_max(), 0.0f);  // dLAT/dencoding exists (Eq 12)
}

TEST_F(PredictorTest, LutEntriesPositiveAndComplete) {
  const LutPredictor lut(space_, device_);
  EXPECT_EQ(lut.num_layers(), space_.num_layers());
  EXPECT_EQ(lut.num_ops(), space_.num_ops());
  for (std::size_t l = 0; l < lut.num_layers(); ++l) {
    for (std::size_t k = 0; k < lut.num_ops(); ++k) {
      EXPECT_GT(lut.entry(l, k), 0.0);
    }
  }
}

TEST_F(PredictorTest, LutPredictIsSumOfEntries) {
  const LutPredictor lut(space_, device_);
  const space::Architecture arch = space_.mobilenet_v2_like();
  double manual = 0.0;
  for (std::size_t l = 0; l < space_.num_layers(); ++l) {
    manual += lut.entry(l, arch.op_at(l));
  }
  EXPECT_NEAR(lut.predict(arch), manual, 1e-9);
}

TEST_F(PredictorTest, LutShowsSystematicPositiveBias) {
  // Fig 5 (right): the LUT consistently over-predicts (isolated
  // measurements include per-op sync overheads the fused network run
  // does not pay).
  const LutPredictor lut(space_, device_);
  util::Rng rng(8);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 200, Metric::kLatencyMs, rng);
  const PredictorReport report = lut.evaluate(data);
  EXPECT_GT(report.bias, 5.0);  // multi-ms constant gap
  EXPECT_GT(report.debiased_rmse, 0.05);
  EXPECT_GT(report.pearson, 0.95);  // still strongly rank-correlated
}

TEST_F(PredictorTest, MlpBeatsDebiasedLutOnHeldout) {
  // The paper's headline predictor claim: MLP RMSE (0.04 ms) is well
  // below even the debiased LUT RMSE (0.41 ms). We check the ordering at
  // reduced scale.
  util::Rng rng(9);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 2500, Metric::kLatencyMs, rng);
  auto [train, valid] = data.split(0.8, rng);
  MlpPredictor mlp(space_.num_layers(), space_.num_ops(), 7);
  MlpTrainConfig config;
  config.epochs = 110;
  config.batch_size = 64;
  mlp.train(train, config);
  const LutPredictor lut(space_, device_);
  EXPECT_LT(mlp.evaluate(valid).rmse, lut.evaluate(valid).debiased_rmse);
}

TEST_F(PredictorTest, EnergyPredictorWorksThroughSameMachinery) {
  util::Rng rng(10);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 1200, Metric::kEnergyMj, rng);
  auto [train, valid] = data.split(0.8, rng);
  MlpPredictor mlp(space_.num_layers(), space_.num_ops(), 7, "mJ");
  MlpTrainConfig config;
  config.epochs = 60;
  mlp.train(train, config);
  const PredictorReport report = mlp.evaluate(valid);
  EXPECT_EQ(mlp.unit(), "mJ");
  EXPECT_GT(report.pearson, 0.95);
  // Energy targets are in the hundreds of mJ; RMSE should be a tiny
  // fraction of the spread despite thermal noise.
  EXPECT_LT(report.rmse, 40.0);
}

TEST_F(PredictorTest, OracleMatchesCostModel) {
  const SimulatorOracle oracle(space_, device_.model(),
                               Metric::kLatencyMs);
  const space::Architecture arch = space_.mobilenet_v2_like();
  EXPECT_DOUBLE_EQ(oracle.predict(arch),
                   device_.model().network_latency_ms(space_, arch));
  EXPECT_EQ(oracle.unit(), "ms");
  const SimulatorOracle energy(space_, device_.model(), Metric::kEnergyMj);
  EXPECT_EQ(energy.unit(), "mJ");
  EXPECT_DOUBLE_EQ(energy.predict(arch),
                   device_.model().network_energy_mj(space_, arch));
}

TEST_F(PredictorTest, EnsembleAtLeastMatchesWorstMember) {
  util::Rng rng(11);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 1000, Metric::kLatencyMs, rng);
  auto [train, valid] = data.split(0.8, rng);
  EnsemblePredictor ensemble(space_.num_layers(), space_.num_ops(), 3);
  MlpTrainConfig config;
  config.epochs = 30;
  ensemble.train(train, config);
  const double ensemble_rmse = ensemble.evaluate(valid).rmse;
  double worst_member = 0.0;
  for (std::size_t m = 0; m < ensemble.size(); ++m) {
    worst_member =
        std::max(worst_member, ensemble.member(m).evaluate(valid).rmse);
  }
  EXPECT_LE(ensemble_rmse, worst_member);
}

TEST_F(PredictorTest, EnsembleForwardVarIsMemberMean) {
  util::Rng rng(12);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 300, Metric::kLatencyMs, rng);
  EnsemblePredictor ensemble(space_.num_layers(), space_.num_ops(), 2);
  MlpTrainConfig config;
  config.epochs = 8;
  ensemble.train(data, config);

  const space::Architecture arch = space_.random_architecture(rng);
  const std::vector<float> enc = arch.encode_one_hot(space_.num_ops());
  nn::Tensor x(1, enc.size());
  std::copy(enc.begin(), enc.end(), x.data().begin());
  const nn::VarPtr out = ensemble.forward_var(nn::make_const(std::move(x)));
  EXPECT_NEAR(out->value.item(), ensemble.predict(arch), 1e-3);
  const double manual_mean = (ensemble.member(0).predict(arch) +
                              ensemble.member(1).predict(arch)) /
                             2.0;
  EXPECT_NEAR(ensemble.predict(arch), manual_mean, 1e-6);
}

TEST_F(PredictorTest, EnsembleUncertaintyProperties) {
  util::Rng rng(13);
  const MeasurementDataset data = build_measurement_dataset(
      space_, device_, 600, Metric::kLatencyMs, rng);
  EnsemblePredictor ensemble(space_.num_layers(), space_.num_ops(), 4);
  MlpTrainConfig config;
  config.epochs = 15;
  ensemble.train(data, config);

  // Disagreement is non-negative everywhere and strictly positive
  // somewhere (independently-initialized members never coincide).
  double max_unc = 0.0;
  for (int i = 0; i < 10; ++i) {
    const double u = ensemble.uncertainty(space_.random_architecture(rng));
    EXPECT_GE(u, 0.0);
    max_unc = std::max(max_unc, u);
  }
  EXPECT_GT(max_unc, 0.0);

  // A single-member "ensemble" has zero disagreement by construction.
  EnsemblePredictor solo(space_.num_layers(), space_.num_ops(), 1);
  MlpTrainConfig solo_config;
  solo_config.epochs = 5;
  solo.train(data, solo_config);
  EXPECT_DOUBLE_EQ(solo.uncertainty(space_.mobilenet_v2_like()), 0.0);
}

TEST_F(PredictorTest, ReportToStringContainsMetrics) {
  const PredictorReport report =
      evaluate_predictions({1.0, 2.0, 3.0}, {1.1, 2.1, 2.9});
  const std::string text = report.to_string("ms");
  EXPECT_NE(text.find("RMSE"), std::string::npos);
  EXPECT_NE(text.find("kendall"), std::string::npos);
}

}  // namespace
}  // namespace lightnas::predictors
