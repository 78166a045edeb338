#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/lightnas.hpp"
#include "io/serialize.hpp"
#include "legacy_json.hpp"
#include "nn/ops.hpp"

namespace lightnas::core {
namespace {

/// Noise-free linear predictor (same construction as the core tests):
/// the engine under test must be deterministic, so the predictor is too.
class LinearOracle : public predictors::HardwarePredictor {
 public:
  LinearOracle(const space::SearchSpace& space, const hw::CostModel& model)
      : space_(&space) {
    weights_.resize(space.num_layers() * space.num_ops());
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
    for (std::size_t i = 0; i < enc.size(); ++i) total += enc[i] * weights_[i];
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

/// `text` with the number after the first `marker` past `anchor`
/// replaced by `value` (checkpoint dumps are compact, keys sorted).
std::string replace_number(std::string text, const std::string& anchor,
                           const std::string& marker,
                           const std::string& value) {
  const std::size_t at = text.find(marker, text.find(anchor));
  if (at == std::string::npos) {
    ADD_FAILURE() << marker << " not found";
    return text;
  }
  const std::size_t start = at + marker.size();
  return text.replace(start, text.find_first_of(",]}", start) - start,
                      value);
}

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest()
      : space_(space::SearchSpace::fbnet_xavier()),
        model_(hw::DeviceProfile::jetson_xavier_maxn(), 8),
        task_(nn::make_synthetic_task(tiny_task())),
        predictor_(space_, model_) {}

  static LightNasConfig tiny_config() {
    LightNasConfig config;
    config.target = 22.0;
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

  LightNas make_engine(const LightNasConfig& config) {
    return LightNas(space_, predictor_, task_, SupernetConfig{}, config);
  }

  /// Asserts every observable of two runs matches bit-for-bit.
  static void expect_identical(const SearchResult& a, const SearchResult& b,
                               std::size_t from_epoch) {
    ASSERT_EQ(a.trace.size(), b.trace.size());
    EXPECT_EQ(a.architecture.ops(), b.architecture.ops());
    EXPECT_EQ(a.final_predicted_cost, b.final_predicted_cost);
    EXPECT_EQ(a.final_lambda, b.final_lambda);
    EXPECT_EQ(a.weight_updates, b.weight_updates);
    EXPECT_EQ(a.alpha_updates, b.alpha_updates);
    for (std::size_t e = from_epoch; e < a.trace.size(); ++e) {
      SCOPED_TRACE("epoch " + std::to_string(e));
      EXPECT_EQ(a.trace[e].derived.ops(), b.trace[e].derived.ops());
      EXPECT_EQ(a.trace[e].lambda, b.trace[e].lambda);
      EXPECT_EQ(a.trace[e].predicted_cost, b.trace[e].predicted_cost);
      EXPECT_EQ(a.trace[e].sampled_cost_mean, b.trace[e].sampled_cost_mean);
      EXPECT_EQ(a.trace[e].valid_loss, b.trace[e].valid_loss);
      EXPECT_EQ(a.trace[e].valid_accuracy, b.trace[e].valid_accuracy);
    }
  }

  space::SearchSpace space_;
  hw::CostModel model_;
  nn::SyntheticTask task_;
  LinearOracle predictor_;
};

TEST_F(CheckpointTest, HooksSearchMatchesPlainSearch) {
  const SearchResult plain = make_engine(tiny_config()).search();
  const SearchResult hooked = make_engine(tiny_config()).search(SearchHooks{});
  expect_identical(plain, hooked, 0);
}

TEST_F(CheckpointTest, ResumeReproducesUninterruptedRun) {
  const SearchResult full = make_engine(tiny_config()).search();

  // Kill the run after epoch 4, keeping only the last checkpoint — the
  // simulated power cut.
  constexpr std::size_t kKillAt = 4;
  std::optional<SearchCheckpoint> saved;
  SearchHooks hooks;
  hooks.on_checkpoint = [&](const SearchCheckpoint& ck) { saved = ck; };
  hooks.should_stop = [](std::size_t done) { return done >= kKillAt; };
  const SearchResult partial = make_engine(tiny_config()).search(hooks);
  EXPECT_TRUE(partial.health.interrupted);
  EXPECT_EQ(partial.trace.size(), kKillAt);
  ASSERT_TRUE(saved.has_value());
  ASSERT_EQ(saved->next_epoch, kKillAt);

  SearchHooks resume;
  resume.resume = &*saved;
  const SearchResult resumed = make_engine(tiny_config()).search(resume);
  EXPECT_TRUE(resumed.health.resumed);
  EXPECT_EQ(resumed.health.resumed_from_epoch, kKillAt);
  expect_identical(full, resumed, 0);
}

TEST_F(CheckpointTest, ResumeThroughJsonFileIsStillExact) {
  const SearchResult full = make_engine(tiny_config()).search();

  const std::string path =
      (std::filesystem::temp_directory_path() / "lightnas_ck_test.json")
          .string();
  SearchHooks hooks;
  hooks.checkpoint_every = 3;
  hooks.on_checkpoint = [&](const SearchCheckpoint& ck) {
    io::save_checkpoint(path, ck);
  };
  hooks.should_stop = [](std::size_t done) { return done >= 3; };
  (void)make_engine(tiny_config()).search(hooks);
  ASSERT_TRUE(std::filesystem::exists(path));
  // Atomic write: the temp file never survives a successful save.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const SearchCheckpoint loaded = io::load_checkpoint(path);
  EXPECT_EQ(loaded.next_epoch, 3u);
  SearchHooks resume;
  resume.resume = &loaded;
  const SearchResult resumed = make_engine(tiny_config()).search(resume);
  expect_identical(full, resumed, 0);
  std::filesystem::remove(path);
}

TEST_F(CheckpointTest, CheckpointJsonRoundTripPreservesState) {
  std::optional<SearchCheckpoint> saved;
  SearchHooks hooks;
  hooks.on_checkpoint = [&](const SearchCheckpoint& ck) { saved = ck; };
  hooks.should_stop = [](std::size_t done) { return done >= 5; };
  (void)make_engine(tiny_config()).search(hooks);
  ASSERT_TRUE(saved.has_value());

  const io::Json json =
      io::Json::parse(io::checkpoint_to_json(*saved).dump());
  const SearchCheckpoint back = io::checkpoint_from_json(json);
  EXPECT_EQ(back.seed, saved->seed);
  EXPECT_EQ(back.next_epoch, saved->next_epoch);
  EXPECT_EQ(back.w_step_counter, saved->w_step_counter);
  EXPECT_EQ(back.targets, saved->targets);
  EXPECT_EQ(back.lambdas, saved->lambdas);
  EXPECT_EQ(back.adam_t, saved->adam_t);
  EXPECT_EQ(back.cooldown_scale, saved->cooldown_scale);
  EXPECT_EQ(back.rng.s, saved->rng.s);
  EXPECT_EQ(back.data_rng.s, saved->data_rng.s);
  EXPECT_EQ(back.valid_rng.s, saved->valid_rng.s);
  EXPECT_EQ(back.train_batcher.order, saved->train_batcher.order);
  EXPECT_EQ(back.train_batcher.cursor, saved->train_batcher.cursor);
  EXPECT_EQ(back.alpha.data(), saved->alpha.data());
  ASSERT_EQ(back.supernet_weights.size(), saved->supernet_weights.size());
  for (std::size_t i = 0; i < back.supernet_weights.size(); ++i) {
    ASSERT_EQ(back.supernet_weights[i].data(),
              saved->supernet_weights[i].data());
  }
  ASSERT_EQ(back.trace.size(), saved->trace.size());
  for (std::size_t e = 0; e < back.trace.size(); ++e) {
    EXPECT_EQ(back.trace[e].lambda, saved->trace[e].lambda);
    EXPECT_EQ(back.trace[e].derived.ops(), saved->trace[e].derived.ops());
  }
}

// A checkpoint written with the old "%.17g"/"%.0f" number formatting
// restores identical bits and resumes to the uninterrupted result.
TEST_F(CheckpointTest, LegacyFormattedCheckpointResumesExactly) {
  const SearchResult full = make_engine(tiny_config()).search();
  std::optional<SearchCheckpoint> saved;
  SearchHooks hooks;
  hooks.on_checkpoint = [&](const SearchCheckpoint& ck) { saved = ck; };
  hooks.should_stop = [](std::size_t done) { return done >= 5; };
  (void)make_engine(tiny_config()).search(hooks);
  ASSERT_TRUE(saved.has_value());

  const io::Json json = io::checkpoint_to_json(*saved);
  const io::Json legacy = io::Json::parse(io::legacy_dump(json));
  // Equal dumps mean every number read back with the same bits.
  ASSERT_EQ(legacy.dump(), json.dump());
  const SearchCheckpoint loaded = io::checkpoint_from_json(legacy);
  EXPECT_EQ(io::checkpoint_to_json(loaded).dump(), json.dump());

  SearchHooks resume;
  resume.resume = &loaded;
  expect_identical(full, make_engine(tiny_config()).search(resume), 0);
}

TEST_F(CheckpointTest, ResumeRejectsMismatchedFingerprint) {
  std::optional<SearchCheckpoint> saved;
  SearchHooks hooks;
  hooks.on_checkpoint = [&](const SearchCheckpoint& ck) { saved = ck; };
  hooks.should_stop = [](std::size_t done) { return done >= 2; };
  (void)make_engine(tiny_config()).search(hooks);
  ASSERT_TRUE(saved.has_value());

  LightNasConfig other_seed = tiny_config();
  other_seed.seed = 99;
  SearchHooks resume;
  resume.resume = &*saved;
  EXPECT_THROW(make_engine(other_seed).search(resume), std::invalid_argument);

  LightNasConfig other_target = tiny_config();
  other_target.target = 30.0;
  EXPECT_THROW(make_engine(other_target).search(resume),
               std::invalid_argument);

  LightNasConfig other_epochs = tiny_config();
  other_epochs.epochs = 12;
  EXPECT_THROW(make_engine(other_epochs).search(resume),
               std::invalid_argument);
}

// A mutated batcher order must never reach Dataset::gather, which does
// not bounds-check: every hostile value resumes with a typed error.
TEST_F(CheckpointTest, HostileCheckpointIntegersResumeWithTypedErrors) {
  std::optional<SearchCheckpoint> saved;
  SearchHooks hooks;
  hooks.on_checkpoint = [&](const SearchCheckpoint& ck) { saved = ck; };
  hooks.should_stop = [](std::size_t done) { return done >= 2; };
  (void)make_engine(tiny_config()).search(hooks);
  ASSERT_TRUE(saved.has_value());
  const std::string text = io::checkpoint_to_json(*saved).dump();
  const auto resume_from = [this](const std::string& json) {
    const SearchCheckpoint ck =
        io::checkpoint_from_json(io::Json::parse(json));
    SearchHooks resume;
    resume.resume = &ck;
    (void)make_engine(tiny_config()).search(resume);
  };
  // The unmodified text resumes.
  EXPECT_NO_THROW(resume_from(text));

  for (const char* batcher : {"\"train_batcher\"", "\"valid_batcher\""}) {
    const std::vector<std::size_t>& order =
        std::string(batcher) == "\"train_batcher\""
            ? saved->train_batcher.order
            : saved->valid_batcher.order;
    // Sizes, but not a permutation of [0, n): the batcher refuses them.
    for (const std::size_t index : {order.size(), order[1]}) {
      SCOPED_TRACE(std::string(batcher) + " index " + std::to_string(index));
      EXPECT_THROW(resume_from(replace_number(text, batcher, "\"order\":[",
                                              std::to_string(index))),
                   std::invalid_argument);
    }
    // Not sizes at all: the loader refuses them.
    for (const char* index : {"-1", "1.5", "1e300"}) {
      SCOPED_TRACE(std::string(batcher) + " index " + index);
      EXPECT_THROW(
          resume_from(replace_number(text, batcher, "\"order\":[", index)),
          std::runtime_error);
    }
  }
  for (const char* field : {"\"next_epoch\":", "\"adam_t\":",
                            "\"rollbacks\":", "\"pool_buffer_hits\":"}) {
    for (const char* value : {"-1", "1.5", "1e300"}) {
      SCOPED_TRACE(std::string(field) + value);
      EXPECT_THROW(resume_from(replace_number(text, "{", field, value)),
                   std::runtime_error);
    }
  }
}

TEST_F(CheckpointTest, CheckpointEveryControlsEmissionCadence) {
  std::vector<std::size_t> emitted;
  SearchHooks hooks;
  hooks.checkpoint_every = 3;
  hooks.on_checkpoint = [&](const SearchCheckpoint& ck) {
    emitted.push_back(ck.next_epoch);
  };
  (void)make_engine(tiny_config()).search(hooks);
  // Every 3rd epoch, plus the final epoch (8) regardless of cadence.
  EXPECT_EQ(emitted, (std::vector<std::size_t>{3, 6, 8}));
}

}  // namespace
}  // namespace lightnas::core
