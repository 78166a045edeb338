#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../tools/cli_args.hpp"
#include "core/lightnas.hpp"
#include "hw/simulator.hpp"
#include "io/serialize.hpp"
#include "nn/ops.hpp"
#include "predictors/dataset.hpp"

namespace lightnas {
namespace {

// --- fault injection on the simulator ----------------------------------

space::SearchSpace test_space() { return space::SearchSpace::fbnet_xavier(); }

TEST(FaultInjection, DisabledSpecLeavesMeasurementsUntouched) {
  const space::SearchSpace space = test_space();
  const space::Architecture arch = space.mobilenet_v2_like();
  hw::HardwareSimulator plain(hw::DeviceProfile::jetson_xavier_maxn(), 8, 7);
  hw::HardwareSimulator specced(hw::DeviceProfile::jetson_xavier_maxn(), 8,
                                7);
  specced.set_fault_spec(hw::FaultSpec{});  // all probabilities zero
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(plain.measure_latency_ms(space, arch),
              specced.measure_latency_ms(space, arch));
  }
}

TEST(FaultInjection, OutliersInflateMeasurements) {
  const space::SearchSpace space = test_space();
  const space::Architecture arch = space.mobilenet_v2_like();
  hw::HardwareSimulator clean(hw::DeviceProfile::jetson_xavier_maxn(), 8, 7);
  hw::HardwareSimulator faulty(hw::DeviceProfile::jetson_xavier_maxn(), 8,
                               8);
  hw::FaultSpec spec;
  spec.outlier_prob = 1.0;
  spec.outlier_scale_lo = 4.0;
  spec.outlier_scale_hi = 8.0;
  faulty.set_fault_spec(spec);
  const double baseline = clean.measure_latency_ms(space, arch, 20);
  double sum = 0.0;
  for (int i = 0; i < 20; ++i) {
    sum += faulty.measure_latency_ms(space, arch);
  }
  EXPECT_GT(sum / 20.0, 3.0 * baseline);
}

TEST(FaultInjection, TryMeasureReportsFailuresAndTimeouts) {
  const space::SearchSpace space = test_space();
  const space::Architecture arch = space.mobilenet_v2_like();
  hw::HardwareSimulator device(hw::DeviceProfile::jetson_xavier_maxn(), 8,
                               9);
  hw::FaultSpec spec;
  spec.transient_failure_prob = 0.3;
  spec.hang_prob = 0.2;
  device.set_fault_spec(spec);
  int ok = 0, failed = 0, hung = 0;
  for (int i = 0; i < 500; ++i) {
    const hw::Measurement m = device.try_measure_latency_ms(space, arch);
    switch (m.status) {
      case hw::MeasurementStatus::kOk:
        ++ok;
        EXPECT_TRUE(std::isfinite(m.value));
        EXPECT_GT(m.value, 0.0);
        break;
      case hw::MeasurementStatus::kTransientFailure: ++failed; break;
      case hw::MeasurementStatus::kTimeout: ++hung; break;
    }
  }
  EXPECT_GT(ok, 150);
  EXPECT_GT(failed, 50);
  EXPECT_GT(hung, 30);
}

TEST(FaultInjection, DriftIsBoundedAndRecalibrationResetsIt) {
  const space::SearchSpace space = test_space();
  const space::Architecture arch = space.mobilenet_v2_like();
  hw::HardwareSimulator device(hw::DeviceProfile::jetson_xavier_maxn(), 8,
                               10);
  hw::FaultSpec spec;
  spec.drift_per_measurement = 0.05;
  spec.drift_max_frac = 0.05;
  device.set_fault_spec(spec);
  for (int i = 0; i < 200; ++i) {
    (void)device.measure_latency_ms(space, arch);
    EXPECT_GE(device.drift_state(), 0.95);
    EXPECT_LE(device.drift_state(), 1.05);
  }
  EXPECT_NE(device.drift_state(), 1.0);
  device.recalibrate();
  EXPECT_EQ(device.drift_state(), 1.0);
}

TEST(FaultInjection, ZeroRepeatsIsAnArgumentError) {
  const space::SearchSpace space = test_space();
  const space::Architecture arch = space.mobilenet_v2_like();
  hw::HardwareSimulator device(hw::DeviceProfile::jetson_xavier_maxn());
  EXPECT_THROW((void)device.measure_latency_ms(space, arch, 0),
               std::invalid_argument);
}

// --- robust measurement campaign ----------------------------------------

TEST(RobustCampaign, ReportAccountsForEverySampleAndAttempt) {
  const space::SearchSpace space = test_space();
  hw::HardwareSimulator device(hw::DeviceProfile::jetson_xavier_maxn(), 8,
                               11);
  hw::FaultSpec spec;
  spec.outlier_prob = 0.2;
  spec.transient_failure_prob = 0.1;
  spec.hang_prob = 0.02;
  spec.drift_per_measurement = 1e-3;
  device.set_fault_spec(spec);
  util::Rng rng(12);
  predictors::CampaignReport report;
  const predictors::MeasurementDataset data =
      predictors::build_robust_measurement_dataset(
          space, device, 30, predictors::Metric::kLatencyMs, rng, {},
          &report);
  EXPECT_EQ(report.requested_samples, 30u);
  EXPECT_EQ(report.kept_samples + report.dropped_samples, 30u);
  EXPECT_EQ(data.size(), report.kept_samples);
  EXPECT_GE(report.attempts, report.kept_samples * 5);
  EXPECT_GT(report.retries, 0u);
  EXPECT_GT(report.transient_failures, 0u);
  EXPECT_GT(report.rejected_outliers, 0u);
  EXPECT_GT(report.simulated_wall_clock_s, 0.0);
  EXPECT_GT(report.attempt_failure_rate(), 0.0);
  for (double t : data.targets) {
    EXPECT_TRUE(std::isfinite(t));
    EXPECT_GT(t, 0.0);
  }
}

TEST(RobustCampaign, DeadDeviceDropsEverySampleInsteadOfRecordingGarbage) {
  const space::SearchSpace space = test_space();
  hw::HardwareSimulator device(hw::DeviceProfile::jetson_xavier_maxn(), 8,
                               13);
  hw::FaultSpec spec;
  spec.transient_failure_prob = 1.0;
  device.set_fault_spec(spec);
  util::Rng rng(14);
  predictors::CampaignReport report;
  const predictors::MeasurementDataset data =
      predictors::build_robust_measurement_dataset(
          space, device, 5, predictors::Metric::kLatencyMs, rng, {}, &report);
  EXPECT_EQ(data.size(), 0u);
  EXPECT_EQ(report.dropped_samples, 5u);
  EXPECT_DOUBLE_EQ(report.attempt_failure_rate(), 1.0);
}

TEST(RobustCampaign, RejectsInvalidConfig) {
  const space::SearchSpace space = test_space();
  hw::HardwareSimulator device(hw::DeviceProfile::jetson_xavier_maxn());
  util::Rng rng(1);
  predictors::RobustCampaignConfig config;
  config.repeats = 0;
  EXPECT_THROW((void)predictors::build_robust_measurement_dataset(
                   space, device, 1, predictors::Metric::kLatencyMs, rng,
                   config),
               std::invalid_argument);
  config = {};
  config.min_good_repeats = 10;  // > repeats: every sample would drop
  EXPECT_THROW((void)predictors::build_robust_measurement_dataset(
                   space, device, 1, predictors::Metric::kLatencyMs, rng,
                   config),
               std::invalid_argument);
}

// --- divergence watchdog -------------------------------------------------

/// Predictor with a constant (possibly non-finite) estimate and zero
/// gradient: lets a test drive the lambda integrator at a precise rate.
class ConstantPredictor : public predictors::HardwarePredictor {
 public:
  ConstantPredictor(const space::SearchSpace& space, double value)
      : dims_(space.num_layers() * space.num_ops()), value_(value) {}
  double predict(const space::Architecture&) const override { return value_; }
  nn::VarPtr forward_var(const nn::VarPtr& encoding) const override {
    return nn::ops::add_scalar(
        nn::ops::matmul(encoding,
                        nn::make_const(nn::Tensor::zeros(dims_, 1))),
        value_);
  }
  std::string unit() const override { return "ms"; }

 private:
  std::size_t dims_;
  double value_;
};

class WatchdogTest : public ::testing::Test {
 protected:
  WatchdogTest()
      : space_(test_space()), task_(nn::make_synthetic_task(tiny_task())) {}

  static nn::SyntheticTaskConfig tiny_task() {
    nn::SyntheticTaskConfig config;
    config.train_size = 256;
    config.valid_size = 128;
    return config;
  }
  static core::LightNasConfig runaway_config() {
    core::LightNasConfig config;
    config.target = 2.0;  // constant prediction 30 -> gradient ~14/step
    config.epochs = 10;
    config.warmup_epochs = 2;
    config.w_steps_per_epoch = 2;
    config.alpha_steps_per_epoch = 4;
    config.batch_size = 32;
    config.seed = 3;
    config.lambda_lr = 0.5;
    config.penalty_mu = 0.0;
    config.watchdog.lambda_limit = 10.0;
    config.watchdog.max_rollbacks = 2;
    return config;
  }

  space::SearchSpace space_;
  nn::SyntheticTask task_;
};

TEST_F(WatchdogTest, RunawayLambdaTriggersRollbackThenBoundedAbort) {
  const ConstantPredictor predictor(space_, 30.0);
  core::LightNas engine(space_, predictor, task_, core::SupernetConfig{},
                        runaway_config());
  const core::SearchResult result = engine.search();
  EXPECT_EQ(result.health.rollbacks, 2u);
  EXPECT_TRUE(result.health.aborted_early);
  ASSERT_GE(result.health.events.size(), 3u);
  for (const core::WatchdogEvent& event : result.health.events) {
    EXPECT_NE(event.reason.find("lambda"), std::string::npos);
  }
  EXPECT_FALSE(result.health.events.back().rolled_back);
  // The shipped architecture comes from a healthy epoch, not the
  // diverged live state.
  EXPECT_EQ(result.architecture.num_layers(), space_.num_layers());
  EXPECT_LE(std::abs(result.final_lambda),
            runaway_config().watchdog.lambda_limit);
}

TEST_F(WatchdogTest, DisabledWatchdogLetsLambdaRunAway) {
  const ConstantPredictor predictor(space_, 30.0);
  core::LightNasConfig config = runaway_config();
  config.watchdog.enabled = false;
  core::LightNas engine(space_, predictor, task_, core::SupernetConfig{},
                        config);
  const core::SearchResult result = engine.search();
  EXPECT_EQ(result.health.rollbacks, 0u);
  EXPECT_TRUE(result.health.events.empty());
  EXPECT_FALSE(result.health.aborted_early);
  EXPECT_EQ(result.trace.size(), config.epochs);
  EXPECT_GT(std::abs(result.final_lambda), config.watchdog.lambda_limit);
}

TEST_F(WatchdogTest, NonFinitePredictionAbortsWithoutSnapshot) {
  const ConstantPredictor predictor(
      space_, std::numeric_limits<double>::quiet_NaN());
  core::LightNasConfig config = runaway_config();
  config.target = 20.0;
  core::LightNas engine(space_, predictor, task_, core::SupernetConfig{},
                        config);
  const core::SearchResult result = engine.search();
  // The very first epoch's telemetry is already non-finite, so there is
  // no healthy snapshot to roll back to.
  EXPECT_TRUE(result.health.aborted_early);
  EXPECT_EQ(result.health.rollbacks, 0u);
  ASSERT_EQ(result.health.events.size(), 1u);
  EXPECT_FALSE(result.health.events.front().rolled_back);
  EXPECT_EQ(result.architecture.num_layers(), space_.num_layers());
}

// --- config / constraint validation --------------------------------------

class ValidationTest : public WatchdogTest {};

TEST_F(ValidationTest, RejectsBadConfigsWithDescriptiveErrors) {
  const ConstantPredictor predictor(space_, 30.0);
  const auto build = [&](core::LightNasConfig config) {
    core::LightNas engine(space_, predictor, task_, core::SupernetConfig{},
                          config);
  };
  core::LightNasConfig ok = runaway_config();
  EXPECT_NO_THROW(build(ok));

  core::LightNasConfig bad = ok;
  bad.epochs = 0;
  EXPECT_THROW(build(bad), std::invalid_argument);

  bad = ok;
  bad.warmup_epochs = bad.epochs;
  EXPECT_THROW(build(bad), std::invalid_argument);

  bad = ok;
  bad.target = 0.0;
  EXPECT_THROW(build(bad), std::invalid_argument);

  bad = ok;
  bad.target = -3.0;
  EXPECT_THROW(build(bad), std::invalid_argument);

  bad = ok;
  bad.w_lr = 0.0;
  EXPECT_THROW(build(bad), std::invalid_argument);

  bad = ok;
  bad.tau_final = 0.0;
  EXPECT_THROW(build(bad), std::invalid_argument);

  bad = ok;
  bad.tau_initial = bad.tau_final / 2.0;
  EXPECT_THROW(build(bad), std::invalid_argument);
}

TEST_F(ValidationTest, RejectsBadConstraints) {
  const ConstantPredictor predictor(space_, 30.0);
  EXPECT_THROW(core::LightNas(space_, {}, task_, core::SupernetConfig{},
                              runaway_config()),
               std::invalid_argument);
  EXPECT_THROW(core::LightNas(space_, {{nullptr, 20.0}}, task_,
                              core::SupernetConfig{}, runaway_config()),
               std::invalid_argument);
  EXPECT_THROW(core::LightNas(space_, {{&predictor, 0.0}}, task_,
                              core::SupernetConfig{}, runaway_config()),
               std::invalid_argument);
  EXPECT_THROW(
      core::LightNas(space_,
                     {{&predictor,
                       std::numeric_limits<double>::quiet_NaN()}},
                     task_, core::SupernetConfig{}, runaway_config()),
      std::invalid_argument);
}

// --- CLI argument hardening ----------------------------------------------

class ArgsTest : public ::testing::Test {
 protected:
  static cli::Args make(std::vector<std::string> tokens) {
    tokens.insert(tokens.begin(), "lightnas");
    std::vector<char*> argv;
    argv.reserve(tokens.size());
    for (std::string& t : tokens) argv.push_back(t.data());
    storage_ = std::move(tokens);
    return cli::Args(static_cast<int>(argv.size()), argv.data());
  }
  static std::vector<std::string> storage_;
};
std::vector<std::string> ArgsTest::storage_;

TEST_F(ArgsTest, ParsesValidNumbers) {
  const cli::Args args = make({"--target", "24.5", "--samples", "100"});
  EXPECT_DOUBLE_EQ(args.require_double("target"), 24.5);
  EXPECT_DOUBLE_EQ(args.get_double("target", 1.0), 24.5);
  EXPECT_EQ(args.get_size("samples", 1), 100u);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(args.get_size("missing", 7), 7u);
}

TEST_F(ArgsTest, RejectsPartiallyConsumedNumbersNamingTheFlag) {
  const cli::Args args = make({"--target", "24.5ms"});
  try {
    (void)args.require_double("target");
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--target"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("24.5ms"), std::string::npos);
  }
  EXPECT_THROW((void)args.get_double("target", 1.0), std::runtime_error);
}

TEST_F(ArgsTest, RejectsNonNumericAndNegativeSizes) {
  EXPECT_THROW((void)make({"--samples", "many"}).get_size("samples", 1),
               std::runtime_error);
  EXPECT_THROW((void)make({"--samples", "-5"}).get_size("samples", 1),
               std::runtime_error);
  EXPECT_THROW((void)make({"--samples", "12x"}).get_size("samples", 1),
               std::runtime_error);
  EXPECT_THROW((void)make({"--target", "nope"}).require_double("target"),
               std::runtime_error);
}

TEST_F(ArgsTest, RejectsFlagsTheCommandDoesNotTakeNamingTheFlag) {
  // Global flags are accepted by every command.
  EXPECT_NO_THROW(make({"--epochs", "5", "--threads", "2", "--isa", "scalar"})
                      .reject_unknown("train-predictor"));
  EXPECT_NO_THROW(make({"--tensor-pool", "0"}).reject_unknown("devices"));
  const std::vector<std::pair<std::string, std::vector<std::string>>> bad = {
      {"search", {"--target", "24", "--plan", "on"}},  // removed flag
      {"search-campaign", {"--plan", "off"}},
      {"train-predictor", {"--epoch", "5"}},  // typo of --epochs
      {"measure", {"--target", "24"}},        // another command's flag
  };
  for (const auto& [command, tokens] : bad) {
    SCOPED_TRACE(command);
    const std::string flag = tokens[tokens.size() - 2];
    try {
      make(tokens).reject_unknown(command);
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(flag + " "), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(make({}).reject_unknown("plan"), std::runtime_error);
}

// --- non-finite JSON round-trip ------------------------------------------

TEST(JsonNonFinite, NonFiniteDoublesSerializeAsNull) {
  EXPECT_EQ(io::Json(std::numeric_limits<double>::quiet_NaN()).dump(),
            "null");
  EXPECT_EQ(io::Json(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(io::Json(-std::numeric_limits<double>::infinity()).dump(),
            "null");
}

TEST(JsonNonFinite, VectorsRoundTripWithNaNHoles) {
  const std::vector<double> values = {
      1.5, std::numeric_limits<double>::quiet_NaN(), -2.25,
      std::numeric_limits<double>::infinity()};
  const io::Json parsed =
      io::Json::parse(io::Json::from_doubles(values).dump());
  const std::vector<double> back = parsed.to_doubles();
  ASSERT_EQ(back.size(), 4u);
  EXPECT_DOUBLE_EQ(back[0], 1.5);
  EXPECT_TRUE(std::isnan(back[1]));
  EXPECT_DOUBLE_EQ(back[2], -2.25);
  EXPECT_TRUE(std::isnan(back[3]));  // inf degrades to NaN, never garbage
}

TEST(JsonNonFinite, SeventeenDigitsRoundTripDoublesExactly) {
  for (double v : {0.1 + 0.2, 1.0 / 3.0, 3.141592653589793, -1e-300}) {
    const io::Json parsed = io::Json::parse(io::Json(v).dump());
    EXPECT_EQ(parsed.as_number(), v);
  }
}

TEST(JsonNonFinite, SearchResultWithNaNCostRoundTrips) {
  core::SearchResult result;
  result.architecture = test_space().mobilenet_v2_like();
  result.final_predicted_cost = std::numeric_limits<double>::quiet_NaN();
  result.final_lambda = 0.5;
  result.final_costs = {result.final_predicted_cost};
  result.final_lambdas = {0.5};
  result.health.aborted_early = true;
  result.health.events.push_back({3, "non-finite validation loss", false});
  const core::SearchResult back = io::search_result_from_json(
      io::Json::parse(io::search_result_to_json(result).dump()));
  EXPECT_TRUE(std::isnan(back.final_predicted_cost));
  EXPECT_DOUBLE_EQ(back.final_lambda, 0.5);
  EXPECT_TRUE(back.health.aborted_early);
  ASSERT_EQ(back.health.events.size(), 1u);
  EXPECT_EQ(back.health.events[0].reason, "non-finite validation loss");
  EXPECT_EQ(back.architecture.ops(), result.architecture.ops());
}

}  // namespace
}  // namespace lightnas
