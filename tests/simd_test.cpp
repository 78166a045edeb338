// Tests of the SIMD microkernel layer (nn/simd.hpp): ISA selection and
// overrides, the scalar-vs-AVX2 bit-identity contract on odd shapes and
// non-finite values, aligned pooled storage, checkpointed search
// trajectories crossing ISA tiers, and the LIGHTNAS_CHECK shape guards
// that replaced the Release-stripped asserts in the hot paths.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/lightnas.hpp"
#include "hw/cost_model.hpp"
#include "nn/aligned.hpp"
#include "nn/ops.hpp"
#include "nn/pool.hpp"
#include "nn/simd.hpp"
#include "nn/tensor.hpp"
#include "predictors/mlp_predictor.hpp"
#include "util/rng.hpp"

namespace lightnas {
namespace {

using nn::simd::IsaLevel;
using nn::simd::ScopedIsa;

bool avx2_usable() {
  return nn::simd::avx2_compiled() &&
         nn::simd::cpu_supports(IsaLevel::kAvx2);
}

nn::Tensor random_tensor(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Tensor t = nn::Tensor::uninitialized(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

bool bits_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

TEST(SimdIsa, ParseAndNameRoundTrip) {
  IsaLevel level;
  ASSERT_TRUE(nn::simd::parse_isa("scalar", &level));
  EXPECT_EQ(level, IsaLevel::kScalar);
  ASSERT_TRUE(nn::simd::parse_isa("avx2", &level));
  EXPECT_EQ(level, IsaLevel::kAvx2);
  ASSERT_TRUE(nn::simd::parse_isa("avx2fma", &level));
  EXPECT_EQ(level, IsaLevel::kAvx2Fma);
  EXPECT_FALSE(nn::simd::parse_isa("", &level));
  EXPECT_FALSE(nn::simd::parse_isa("sse2", &level));
  EXPECT_FALSE(nn::simd::parse_isa("AVX2", &level));
  EXPECT_STREQ(nn::simd::isa_name(IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(nn::simd::isa_name(IsaLevel::kAvx2), "avx2");
  EXPECT_STREQ(nn::simd::isa_name(IsaLevel::kAvx2Fma), "avx2fma");
}

TEST(SimdIsa, DetectBestNeverPicksFma) {
  // FMA changes rounding, so automatic selection must never choose it —
  // checkpoints would stop being portable across hosts.
  const IsaLevel best = nn::simd::detect_best();
  EXPECT_NE(best, IsaLevel::kAvx2Fma);
  if (avx2_usable()) {
    EXPECT_EQ(best, IsaLevel::kAvx2);
  } else {
    EXPECT_EQ(best, IsaLevel::kScalar);
  }
}

TEST(SimdIsa, ScopedIsaNestsAndRestores) {
  const IsaLevel ambient = nn::simd::active_isa();
  {
    ScopedIsa outer(IsaLevel::kScalar);
    EXPECT_EQ(nn::simd::active_isa(), IsaLevel::kScalar);
    {
      ScopedIsa inner(IsaLevel::kAvx2);
      EXPECT_EQ(nn::simd::active_isa(), IsaLevel::kAvx2);
    }
    EXPECT_EQ(nn::simd::active_isa(), IsaLevel::kScalar);
  }
  EXPECT_EQ(nn::simd::active_isa(), ambient);
}

TEST(SimdIsa, SetGlobalValidatesSupport) {
  const IsaLevel previous = nn::simd::global_isa();
  // Scalar is supported everywhere.
  nn::simd::set_global_isa(IsaLevel::kScalar);
  EXPECT_EQ(nn::simd::global_isa(), IsaLevel::kScalar);
  if (!avx2_usable()) {
    EXPECT_THROW(nn::simd::set_global_isa(IsaLevel::kAvx2),
                 std::runtime_error);
  }
  nn::simd::set_global_isa(previous);
}

// --- bit-identity: the contract the search trajectory rests on --------

/// C(i, j) as one ascending-p chain from +0 over a_at(i, p) * b_at(p, j)
/// — the contract every GEMM tier must reproduce bit for bit.
template <typename AAt, typename BAt>
nn::Tensor chain_reference(std::size_t m, std::size_t k, std::size_t n,
                           AAt a_at, BAt b_at) {
  nn::Tensor c = nn::Tensor::zeros(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a_at(i, p) * b_at(p, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

/// Plant -0, a subnormal and (on every third shape) a NaN into `t`.
/// One NaN payload and no infinities, so every NaN result carries the
/// same bits whichever operand order a compiler picks.
void plant_specials(nn::Tensor& t, std::size_t salt) {
  if (t.size() == 0) return;
  t[0] = -0.0f;
  t[t.size() - 1] = 1e-40f;  // subnormal
  if (t.size() > 2) t[t.size() / 2] = -3e-39f;
  if (salt % 3 == 0) {
    t[salt % t.size()] = std::numeric_limits<float>::quiet_NaN();
  }
}

TEST(SimdIdentity, OddShapeGemmSweepMatchesScalarBitwise) {
  // m < 4 row tails, n % 8 column tails, k in {0, 1} and -0 /
  // subnormal / NaN operands; the scalar tier is checked against the
  // sequential chain, the AVX2 tier against the scalar tier.
  const std::size_t dims[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17};
  const std::size_t depths[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17};
  for (const std::size_t m : dims) {
    for (const std::size_t k : depths) {
      for (const std::size_t n : dims) {
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                     " n=" + std::to_string(n));
        nn::Tensor a = random_tensor(m, k, 10 + m * 1000 + k);
        nn::Tensor b = random_tensor(k, n, 20 + k * 1000 + n);
        nn::Tensor at = random_tensor(k, m, 30 + m + k * 31);
        nn::Tensor bt = random_tensor(n, k, 40 + n + k * 31);
        plant_specials(a, m + k + n);
        plant_specials(b, m * k + n);
        plant_specials(at, m + k * n);
        plant_specials(bt, m * n + k);
        nn::Tensor s_nn, s_tn, s_nt;
        {
          ScopedIsa scalar(IsaLevel::kScalar);
          s_nn = nn::matmul(a, b);
          s_tn = nn::matmul_tn(at, b);
          s_nt = nn::matmul_nt(a, bt);
        }
        const auto a_at = [&](std::size_t i, std::size_t p) {
          return a.at(i, p);
        };
        const auto at_at = [&](std::size_t i, std::size_t p) {
          return at.at(p, i);
        };
        const auto b_at = [&](std::size_t p, std::size_t j) {
          return b.at(p, j);
        };
        const auto bt_at = [&](std::size_t p, std::size_t j) {
          return bt.at(j, p);
        };
        EXPECT_TRUE(bits_equal(s_nn, chain_reference(m, k, n, a_at, b_at)));
        EXPECT_TRUE(bits_equal(s_tn, chain_reference(m, k, n, at_at, b_at)));
        EXPECT_TRUE(bits_equal(s_nt, chain_reference(m, k, n, a_at, bt_at)));
        if (!avx2_usable()) continue;
        ScopedIsa vec(IsaLevel::kAvx2);
        EXPECT_TRUE(bits_equal(s_nn, nn::matmul(a, b)));
        EXPECT_TRUE(bits_equal(s_tn, nn::matmul_tn(at, b)));
        EXPECT_TRUE(bits_equal(s_nt, nn::matmul_nt(a, bt)));
      }
    }
  }
}

TEST(SimdIdentity, FusedBiasReluOddWidthsMatchScalarBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  const std::size_t dims[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17};
  for (const std::size_t rows : dims) {
    for (const std::size_t cols : dims) {
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   " cols=" + std::to_string(cols));
      const nn::Tensor x = random_tensor(rows, cols, 50 + rows * 131 + cols);
      const nn::Tensor bias = random_tensor(1, cols, 60 + cols);
      nn::Tensor scalar_out = x;
      nn::Tensor vec_out = x;
      {
        ScopedIsa scalar(IsaLevel::kScalar);
        scalar_out.add_row_relu_inplace(bias);
      }
      {
        ScopedIsa vec(IsaLevel::kAvx2);
        vec_out.add_row_relu_inplace(bias);
      }
      EXPECT_TRUE(bits_equal(scalar_out, vec_out));
    }
  }
}

TEST(SimdIdentity, NanAndInfPropagateIdentically) {
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  nn::Tensor a = random_tensor(9, 11, 7);
  nn::Tensor b = random_tensor(11, 13, 8);
  a.at(0, 0) = nan;
  a.at(4, 5) = inf;
  b.at(2, 2) = -inf;
  b.at(10, 12) = nan;
  nn::Tensor s_nn;
  {
    ScopedIsa scalar(IsaLevel::kScalar);
    s_nn = nn::matmul(a, b);
  }
  // The scalar reference itself must propagate (no zero-operand skips).
  EXPECT_TRUE(std::isnan(s_nn.at(0, 0)));
  {
    ScopedIsa vec(IsaLevel::kAvx2);
    EXPECT_TRUE(bits_equal(s_nn, nn::matmul(a, b)));
  }

  // Fused relu: a NaN input stays NaN (scalar max(v, 0) keeps it; the
  // vmaxps operand order in the AVX2 kernel must match — the historical
  // bug this pins down returned 0 for NaN lanes).
  nn::Tensor x = random_tensor(3, 9, 9);
  const nn::Tensor bias = nn::Tensor::zeros(1, 9);
  x.at(1, 4) = nan;
  x.at(2, 8) = -inf;
  nn::Tensor scalar_out = x;
  nn::Tensor vec_out = x;
  {
    ScopedIsa scalar(IsaLevel::kScalar);
    scalar_out.add_row_relu_inplace(bias);
  }
  EXPECT_TRUE(std::isnan(scalar_out.at(1, 4)));
  EXPECT_EQ(scalar_out.at(2, 8), 0.0f);  // -inf clamps to 0
  {
    ScopedIsa vec(IsaLevel::kAvx2);
    vec_out.add_row_relu_inplace(bias);
  }
  EXPECT_TRUE(bits_equal(scalar_out, vec_out));
}

// --- aligned storage ---------------------------------------------------

TEST(SimdAligned, TensorStorageIsVectorAligned) {
  for (const std::size_t n : {1u, 7u, 8u, 63u, 64u, 1000u}) {
    const nn::Tensor t(1, n, 1.0f);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data().data()) %
                  nn::kTensorAlignment,
              0u);
  }
}

TEST(SimdAligned, PoolAcquireReleaseRoundTripStaysAligned) {
  nn::PooledScope scope(nn::PoolMode::kFresh);
  nn::TensorPool& pool = scope.pool();
  for (const std::size_t n : {3u, 16u, 100u, 4096u}) {
    nn::AlignedVector buffer = pool.acquire(n);
    ASSERT_EQ(buffer.size(), n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.data()) %
                  nn::kTensorAlignment,
              0u);
    const float* first_base = buffer.data();
    pool.release(std::move(buffer));
    // Same-size reacquire recycles the parked buffer, still aligned.
    nn::AlignedVector again = pool.acquire(n);
    EXPECT_EQ(again.data(), first_base);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(again.data()) %
                  nn::kTensorAlignment,
              0u);
    pool.release(std::move(again));
  }
  const nn::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.buffer_hits, 4u);
  EXPECT_EQ(stats.buffer_misses, 4u);
}

TEST(SimdAligned, PooledTensorsAreAligned) {
  nn::PooledScope scope(nn::PoolMode::kFresh);
  for (int rep = 0; rep < 3; ++rep) {
    const nn::Tensor t = nn::Tensor::uninitialized(5, 13);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data().data()) %
                  nn::kTensorAlignment,
              0u);
  }
}

// --- trajectory identity across ISA tiers -----------------------------

class SimdTrajectoryTest : public ::testing::Test {
 protected:
  SimdTrajectoryTest() : space_(space::SearchSpace::fbnet_xavier()) {}

  predictors::MlpPredictor train_predictor(IsaLevel isa) {
    const ScopedIsa forced(isa);
    const hw::CostModel model(hw::DeviceProfile::jetson_xavier_maxn(), 8);
    util::Rng rng(77);
    predictors::MeasurementDataset data;
    for (std::size_t i = 0; i < 192; ++i) {
      space::Architecture arch = space_.random_architecture(rng);
      data.encodings.push_back(arch.encode_one_hot(space_.num_ops()));
      data.targets.push_back(model.network_latency_ms(space_, arch));
      data.architectures.push_back(std::move(arch));
    }
    predictors::MlpPredictor predictor(space_.num_layers(), space_.num_ops(),
                                       /*seed=*/13);
    predictors::MlpTrainConfig config;
    config.epochs = 2;
    config.batch_size = 32;
    predictor.train(data, config);
    return predictor;
  }

  static core::LightNasConfig tiny_config() {
    core::LightNasConfig config;
    config.seed = 17;
    config.epochs = 4;
    config.warmup_epochs = 1;
    config.w_steps_per_epoch = 4;
    config.alpha_steps_per_epoch = 2;
    config.batch_size = 16;
    config.target = 24.0;
    return config;
  }

  static void expect_identical(const core::SearchResult& a,
                               const core::SearchResult& b) {
    ASSERT_EQ(a.trace.size(), b.trace.size());
    EXPECT_EQ(a.architecture.ops(), b.architecture.ops());
    EXPECT_EQ(a.final_predicted_cost, b.final_predicted_cost);
    EXPECT_EQ(a.final_lambda, b.final_lambda);
    for (std::size_t e = 0; e < a.trace.size(); ++e) {
      SCOPED_TRACE("epoch " + std::to_string(e));
      EXPECT_EQ(a.trace[e].derived.ops(), b.trace[e].derived.ops());
      EXPECT_EQ(a.trace[e].lambda, b.trace[e].lambda);
      EXPECT_EQ(a.trace[e].predicted_cost, b.trace[e].predicted_cost);
      EXPECT_EQ(a.trace[e].valid_loss, b.trace[e].valid_loss);
    }
  }

  space::SearchSpace space_;
};

TEST_F(SimdTrajectoryTest, PredictorWeightsIdenticalAcrossIsa) {
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  const auto scalar_state = train_predictor(IsaLevel::kScalar).export_state();
  const auto vec_state = train_predictor(IsaLevel::kAvx2).export_state();
  ASSERT_EQ(scalar_state.tensors.size(), vec_state.tensors.size());
  for (std::size_t i = 0; i < scalar_state.tensors.size(); ++i) {
    EXPECT_EQ(scalar_state.tensors[i], vec_state.tensors[i]);
  }
  EXPECT_EQ(scalar_state.target_mean, vec_state.target_mean);
  EXPECT_EQ(scalar_state.target_std, vec_state.target_std);
}

TEST_F(SimdTrajectoryTest, CheckpointedSearchCrossesIsaTiersExactly) {
  if (!avx2_usable()) GTEST_SKIP() << "no AVX2 tier on this host/build";
  const predictors::MlpPredictor predictor =
      train_predictor(IsaLevel::kScalar);
  nn::SyntheticTaskConfig task_config;
  task_config.train_size = 256;
  task_config.valid_size = 128;
  const nn::SyntheticTask task = nn::make_synthetic_task(task_config);
  const auto run = [&](const core::SearchHooks& hooks, IsaLevel isa) {
    const ScopedIsa forced(isa);
    core::LightNas engine(space_, predictor, task, core::SupernetConfig{},
                          tiny_config());
    return engine.search(hooks);
  };

  const core::SearchResult scalar_full =
      run(core::SearchHooks{}, IsaLevel::kScalar);
  const core::SearchResult vec_full = run(core::SearchHooks{}, IsaLevel::kAvx2);
  expect_identical(scalar_full, vec_full);

  // Kill a scalar run after epoch 2, resume the checkpoint under AVX2:
  // the stitched trajectory must equal the uninterrupted scalar one —
  // checkpoints are portable across hosts with and without AVX2.
  std::optional<core::SearchCheckpoint> saved;
  core::SearchHooks kill;
  kill.on_checkpoint = [&](const core::SearchCheckpoint& ck) { saved = ck; };
  kill.should_stop = [](std::size_t done) { return done >= 2; };
  const core::SearchResult partial = run(kill, IsaLevel::kScalar);
  EXPECT_TRUE(partial.health.interrupted);
  ASSERT_TRUE(saved.has_value());

  core::SearchHooks resume;
  resume.resume = &*saved;
  const core::SearchResult resumed = run(resume, IsaLevel::kAvx2);
  EXPECT_TRUE(resumed.health.resumed);
  expect_identical(scalar_full, resumed);
}

// --- LIGHTNAS_CHECK shape guards (survive Release, unlike assert) ------

// Death tests fork; thread sanitizer instrumentation does not survive
// that, so skip them under TSan builds.
#if !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LIGHTNAS_SKIP_DEATH_TESTS 1
#endif
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define LIGHTNAS_SKIP_DEATH_TESTS 1
#endif

#ifndef LIGHTNAS_SKIP_DEATH_TESTS

using SimdCheckDeathTest = ::testing::Test;

TEST(SimdCheckDeathTest, MatmulShapeMismatchAbortsWithShapes) {
  const nn::Tensor a(2, 3, 1.0f);
  const nn::Tensor b(4, 5, 1.0f);
  EXPECT_DEATH((void)nn::matmul(a, b), "matmul.*2 x 3.*4 x 5");
}

TEST(SimdCheckDeathTest, OpsLayerChecksFireInAllBuildTypes) {
  const nn::VarPtr a = nn::make_const(nn::Tensor(2, 3, 1.0f));
  const nn::VarPtr b = nn::make_const(nn::Tensor(4, 5, 1.0f));
  EXPECT_DEATH((void)nn::ops::matmul(a, b), "matmul");
  EXPECT_DEATH((void)nn::ops::add(a, b), "add");
}

TEST(SimdCheckDeathTest, FusedBiasReluWidthMismatchAborts) {
  nn::Tensor x(2, 4, 1.0f);
  const nn::Tensor bias(1, 5, 0.0f);
  EXPECT_DEATH(x.add_row_relu_inplace(bias), "2 x 4.*1 x 5");
}

#endif  // LIGHTNAS_SKIP_DEATH_TESTS

}  // namespace
}  // namespace lightnas
