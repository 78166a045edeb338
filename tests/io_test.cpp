#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "io/json.hpp"
#include "io/serialize.hpp"

namespace lightnas::io {
namespace {

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null").type(), Json::Type::kNull);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-42").as_number(), -42.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, StringEscapes) {
  const Json j = Json::parse(R"("a\"b\\c\nd\te")");
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd\te");
  // Round-trip through dump.
  EXPECT_EQ(Json::parse(j.dump()).as_string(), j.as_string());
}

TEST(Json, UnicodeEscapeDecodesToUtf8) {
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");
}

TEST(Json, ArraysAndObjects) {
  const Json j = Json::parse(R"({"a": [1, 2, 3], "b": {"c": true}})");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.at("a").size(), 3u);
  EXPECT_DOUBLE_EQ(j.at("a").at(1).as_number(), 2.0);
  EXPECT_TRUE(j.at("b").at("c").as_bool());
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("z"));
}

TEST(Json, DumpParseRoundTrip) {
  Json obj = Json::object();
  obj.set("name", Json("lightnas"));
  obj.set("values", Json::from_doubles({1.5, -2.25, 1e-6}));
  obj.set("flag", Json(true));
  Json nested = Json::object();
  nested.set("x", Json(7));
  obj.set("nested", std::move(nested));

  const Json restored = Json::parse(obj.dump());
  EXPECT_EQ(restored.at("name").as_string(), "lightnas");
  EXPECT_DOUBLE_EQ(restored.at("values").at(2).as_number(), 1e-6);
  EXPECT_DOUBLE_EQ(restored.at("nested").at("x").as_number(), 7.0);
}

TEST(Json, FloatVectorRoundTripIsExact) {
  // float32 -> double -> %.9g -> parse -> float32 must be lossless.
  std::vector<float> values{1.0f, -0.333333343f, 3.14159274f, 1e-20f,
                            123456.789f};
  const Json j = Json::parse(Json::from_floats(values).dump());
  const std::vector<float> restored = j.to_floats();
  ASSERT_EQ(restored.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(restored[i], values[i]);
  }
}

TEST(Json, ParseErrorsThrow) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]2"), std::runtime_error);
  EXPECT_THROW(Json::parse("nul"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
}

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "lightnas_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
  space::SearchSpace space_ = space::SearchSpace::fbnet_xavier();
};

TEST_F(SerializeTest, PredictorRoundTripPreservesPredictions) {
  hw::HardwareSimulator device(hw::DeviceProfile::jetson_xavier_maxn(), 8,
                               42);
  util::Rng rng(1);
  const predictors::MeasurementDataset data =
      predictors::build_measurement_dataset(
          space_, device, 400, predictors::Metric::kLatencyMs, rng);
  predictors::MlpPredictor predictor(space_.num_layers(), space_.num_ops());
  predictors::MlpTrainConfig config;
  config.epochs = 15;
  predictor.train(data, config);

  save_predictor(path("predictor.json"), predictor);
  const predictors::MlpPredictor restored =
      load_predictor(path("predictor.json"));
  EXPECT_TRUE(restored.is_trained());
  EXPECT_EQ(restored.unit(), predictor.unit());
  for (int i = 0; i < 10; ++i) {
    const space::Architecture arch = space_.random_architecture(rng);
    EXPECT_NEAR(restored.predict(arch), predictor.predict(arch), 1e-5);
  }
}

TEST_F(SerializeTest, PredictorWrongKindRejected) {
  Json bogus = Json::object();
  bogus.set("kind", Json("something.else"));
  bogus.set("version", Json(1));
  write_json_file(path("bogus.json"), bogus);
  EXPECT_THROW(load_predictor(path("bogus.json")), std::runtime_error);
}

// Every hostile predictor artifact is a typed std::runtime_error: no UB
// size_t cast of a negative, NaN or huge dimension, no allocation sized
// by a header the tensors do not back, no non-finite value accepted.
TEST_F(SerializeTest, PredictorLoaderRejectsHostileArtifacts) {
  const predictors::MlpPredictor predictor(space_.num_layers(),
                                           space_.num_ops());
  const Json good = predictor_to_json(predictor);
  ASSERT_NO_THROW(predictor_from_json(good));

  // Json has no mutable accessors; rebuild the document with one
  // top-level key (or one tensor field) replaced.
  const auto with = [&](const std::string& key, Json value) {
    Json out = Json::object();
    for (const auto& [k, v] : good.as_object()) out.set(k, v);
    out.set(key, std::move(value));
    return out;
  };
  const auto with_tensor = [&](const std::string& key, Json value) {
    Json tensors = Json::array();
    const std::vector<Json>& all = good.at("tensors").as_array();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (i != 0) {
        tensors.push_back(all[i]);
        continue;
      }
      Json first = Json::object();
      for (const auto& [k, v] : all[0].as_object()) first.set(k, v);
      first.set(key, value);
      tensors.push_back(std::move(first));
    }
    return with("tensors", std::move(tensors));
  };
  const auto rejects = [](const Json& json) {
    EXPECT_THROW(predictor_from_json(json), std::runtime_error)
        << json.dump().substr(0, 120);
  };

  for (const char* dim : {"num_layers", "num_ops"}) {
    rejects(with(dim, Json(-1.0)));
    rejects(with(dim, Json()));  // null: a NaN written out
    rejects(with(dim, Json(2.5)));
    rejects(with(dim, Json(1e30)));
    rejects(with(dim, Json(0.0)));
    rejects(with(dim, Json("22")));
    // Within size range, but not what the tensors carry.
    rejects(with(dim, Json(4294967295.0)));
  }
  rejects(with_tensor("rows", Json(-3.0)));
  rejects(with_tensor("cols", Json(1e300)));

  // Non-finite weights: null (NaN) and a double that overflows float.
  Json nan_data = Json::array();
  Json big_data = Json::array();
  const std::vector<float> first = predictor.export_state().tensors[0];
  for (std::size_t i = 0; i < first.size(); ++i) {
    nan_data.push_back(i == 7 ? Json() : Json(static_cast<double>(first[i])));
    big_data.push_back(i == 7 ? Json(1e300)
                              : Json(static_cast<double>(first[i])));
  }
  rejects(with_tensor("data", nan_data));
  rejects(with_tensor("data", big_data));

  rejects(with("target_mean", Json()));
  rejects(with("target_std", Json()));
  rejects(with("target_std", Json(0.0)));
  rejects(with("target_std", Json(-2.0)));
}

TEST_F(SerializeTest, DatasetRoundTrip) {
  hw::HardwareSimulator device(hw::DeviceProfile::jetson_xavier_maxn(), 8,
                               7);
  util::Rng rng(2);
  const predictors::MeasurementDataset data =
      predictors::build_measurement_dataset(
          space_, device, 50, predictors::Metric::kEnergyMj, rng);
  save_dataset(path("dataset.json"), data, space_.num_ops());
  const predictors::MeasurementDataset restored =
      load_dataset(path("dataset.json"));
  ASSERT_EQ(restored.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(restored.architectures[i].ops(), data.architectures[i].ops());
    EXPECT_NEAR(restored.targets[i], data.targets[i], 1e-6);
    EXPECT_EQ(restored.encodings[i], data.encodings[i]);
  }
}

TEST_F(SerializeTest, SearchResultRoundTrip) {
  core::SearchResult result;
  util::Rng rng(3);
  result.architecture = space_.random_architecture(rng);
  result.final_predicted_cost = 23.9;
  result.final_lambda = -0.4;
  result.weight_updates = 100;
  result.alpha_updates = 50;
  for (int e = 0; e < 3; ++e) {
    core::SearchEpochStats stats;
    stats.epoch = static_cast<std::size_t>(e);
    stats.tau = 5.0 - e;
    stats.lambda = -0.1 * e;
    stats.predicted_cost = 20.0 + e;
    stats.sampled_cost_mean = 19.0 + e;
    stats.valid_loss = 2.0 - 0.1 * e;
    stats.valid_accuracy = 0.3 + 0.05 * e;
    stats.derived = space_.random_architecture(rng);
    result.trace.push_back(std::move(stats));
  }

  save_search_result(path("result.json"), result);
  const core::SearchResult restored =
      load_search_result(path("result.json"));
  EXPECT_EQ(restored.architecture, result.architecture);
  EXPECT_NEAR(restored.final_predicted_cost, 23.9, 1e-9);
  EXPECT_NEAR(restored.final_lambda, -0.4, 1e-9);
  EXPECT_EQ(restored.weight_updates, 100u);
  ASSERT_EQ(restored.trace.size(), 3u);
  EXPECT_EQ(restored.trace[2].derived, result.trace[2].derived);
  EXPECT_NEAR(restored.trace[1].valid_accuracy, 0.35, 1e-9);
}

TEST_F(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(load_predictor(path("does_not_exist.json")),
               std::runtime_error);
}

}  // namespace
}  // namespace lightnas::io
