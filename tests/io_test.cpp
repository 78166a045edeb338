#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "io/json.hpp"
#include "io/serialize.hpp"
#include "legacy_json.hpp"
#include "util/rng.hpp"

namespace lightnas::io {
namespace {

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null").type(), Json::Type::kNull);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-42").as_number(), -42.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("-12.5E+3").as_number(), -12500.0);
  EXPECT_EQ(Json::parse("25e-1").as_number(), 2.5);
  EXPECT_TRUE(std::signbit(Json::parse("-0").as_number()));
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
  // float32 -> double -> shortest round-trip text -> parse -> float32
  // must be lossless.
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
  // Numbers outside the JSON grammar or the double range; the first three
  // used to parse as a prefix.
  for (const char* text :
       {"[1.2.3]", "[1-2]", "[1e5e5]", "+1", "01", ".5", "[-]", "1.", "1e",
        "1e+", "-.5", "0x10", "1e999", "-1e999", "[1,2e400]"}) {
    EXPECT_THROW(Json::parse(text), std::runtime_error) << text;
  }
  EXPECT_THROW(Json::parse(R"("\uzzzz")"), std::runtime_error);
  EXPECT_THROW(Json::parse(R"("\u-001")"), std::runtime_error);
}

TEST(Json, IntegralNumbersKeepTheirIntegerSpelling) {
  EXPECT_EQ(Json(3.0).dump(), "3");
  EXPECT_EQ(Json(-42).dump(), "-42");
  EXPECT_EQ(Json(-0.0).dump(), "-0");
  EXPECT_EQ(Json(999999999999999.0).dump(), "999999999999999");
  EXPECT_EQ(Json(0.1).dump(), "0.1");
  EXPECT_EQ(Json(1e15).dump(), "1e+15");
}

// A checkpoint holding a subnormal used to save but not resume: the old
// reader rejected its own "%.17g" output as out of range.
TEST(Json, SubnormalsAndNegativeZeroRoundTrip) {
  const double values[] = {1e-310, std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           -0.0};
  for (const double v : values) {
    const double back = Json::parse(Json(v).dump()).as_number();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v))
        << Json(v).dump();
  }
  EXPECT_EQ(Json::parse("9.9999999999999694e-311").as_number(), 1e-310);
  EXPECT_EQ(Json::parse("-4.9406564584124654e-324").as_number(),
            -std::numeric_limits<double>::denorm_min());
}

// 1M seeded float bit patterns, plus every float of the binade holding
// +-7.038531e-26f: shortest-float text read as a double and cast back
// lands on the wrong float there, so a float-specific writer would fail.
TEST(Json, FloatBitPatternsRoundTripExactly) {
  const auto check = [](const std::vector<float>& values) {
    const std::vector<float> back =
        Json::parse(Json::from_floats(values).dump()).to_floats();
    ASSERT_EQ(back.size(), values.size());
    const auto [in, out] = std::mismatch(
        values.begin(), values.end(), back.begin(), [](float a, float b) {
          return std::bit_cast<std::uint32_t>(a) ==
                 std::bit_cast<std::uint32_t>(b);
        });
    ASSERT_TRUE(in == values.end()) << *in << " read back as " << *out;
  };
  constexpr std::size_t kChunk = 1 << 8;
  std::vector<float> chunk;
  chunk.reserve(kChunk);
  util::Rng rng(13);
  for (std::size_t i = 0; i < (1u << 20); ++i) {
    const auto v = std::bit_cast<float>(
        static_cast<std::uint32_t>(rng.next_u64() >> 32));
    if (std::isfinite(v)) chunk.push_back(v);
    if (chunk.size() == kChunk) {
      check(chunk);
      chunk.clear();
    }
  }
  check(chunk);
  const std::uint32_t binade = std::bit_cast<std::uint32_t>(7.038531e-26f) &
                               0x7f800000u;
  for (const std::uint32_t sign : {0u, 0x80000000u}) {
    for (std::uint32_t m = 0; m < (1u << 23); m += kChunk) {
      chunk.clear();
      for (std::uint32_t k = 0; k < kChunk; ++k) {
        chunk.push_back(std::bit_cast<float>(sign | binade | (m + k)));
      }
      check(chunk);
    }
  }
}

TEST(Json, DoubleBitPatternsRoundTripExactly) {
  util::Rng rng(14);
  for (std::size_t i = 0; i < (1u << 20); ++i) {
    const double v = std::bit_cast<double>(rng.next_u64());
    const Json back = Json::parse(Json(v).dump());
    if (!std::isfinite(v)) {
      ASSERT_TRUE(back.is_null());
      continue;
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back.as_number()),
              std::bit_cast<std::uint64_t>(v))
        << Json(v).dump();
  }
}

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the tests of this fixture in
    // parallel processes, and each TearDown removes its directory.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("lightnas_io_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
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

// Tensors and predictors written with the old "%.17g"/"%.0f" number
// formatting still load, bit for bit.
TEST_F(SerializeTest, LegacyFormattedArtifactsLoadBitForBit) {
  nn::Tensor t(3, 4);
  const float values[] = {1.0f,   -0.0f,  0.1f,         -3.14159274f,
                          1e-20f, 1e-40f, -1e-45f,      123456.789f,
                          -2.5f,  3.4e38f, 16777216.0f, 7.038531e-26f};
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = values[i];
  const nn::Tensor back = detail::tensor_from_json(
      Json::parse(legacy_dump(detail::tensor_to_json(t))));
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back[i]),
              std::bit_cast<std::uint32_t>(t[i]))
        << t[i];
  }

  const predictors::MlpPredictor predictor(space_.num_layers(),
                                           space_.num_ops());
  const Json json = predictor_to_json(predictor);
  const std::string legacy = legacy_dump(json);
  // The new reader restores every number of the old text exactly, so it
  // re-serializes to what the new writer produces.
  EXPECT_EQ(Json::parse(legacy).dump(), json.dump());
  const predictors::MlpPredictor::State a = predictor.export_state();
  const predictors::MlpPredictor::State b =
      predictor_from_json(Json::parse(legacy)).export_state();
  EXPECT_EQ(b.target_mean, a.target_mean);
  EXPECT_EQ(b.target_std, a.target_std);
  ASSERT_EQ(b.tensors.size(), a.tensors.size());
  for (std::size_t i = 0; i < a.tensors.size(); ++i) {
    EXPECT_EQ(b.tensors[i], a.tensors[i]);
  }
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
