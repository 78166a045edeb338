#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/autograd.hpp"
#include "nn/optim.hpp"
#include "util/rng.hpp"

namespace lightnas::nn {
namespace {

VarPtr leaf_with_grad(float value, float grad) {
  VarPtr v = make_leaf(Tensor::scalar(value));
  v->ensure_grad();
  v->grad.fill(grad);
  return v;
}

TEST(CosineSchedule, EndpointsAndMonotoneDecay) {
  const CosineSchedule sched(1.0, 100);
  EXPECT_NEAR(sched.lr_at(0), 1.0, 1e-9);
  EXPECT_NEAR(sched.lr_at(50), 0.5, 0.01);
  EXPECT_NEAR(sched.lr_at(100), 0.0, 1e-9);
  for (std::size_t s = 1; s < 100; ++s) {
    EXPECT_LE(sched.lr_at(s), sched.lr_at(s - 1) + 1e-12);
  }
}

TEST(CosineSchedule, WarmupRampsLinearly) {
  const CosineSchedule sched(0.5, 100, 10, 0.1);
  EXPECT_NEAR(sched.lr_at(0), 0.1 + 0.4 * 0.1, 1e-9);
  EXPECT_NEAR(sched.lr_at(9), 0.5, 1e-9);
  EXPECT_GT(sched.lr_at(10), sched.lr_at(60));
}

TEST(Sgd, PlainStepMatchesHandComputed) {
  VarPtr p = leaf_with_grad(1.0f, 0.5f);
  Sgd opt({p}, 0.1);
  opt.step();
  EXPECT_NEAR(p->value.item(), 1.0f - 0.1f * 0.5f, 1e-6f);
}

TEST(Sgd, MomentumAccumulates) {
  VarPtr p = leaf_with_grad(0.0f, 1.0f);
  Sgd opt({p}, 0.1, 0.9);
  opt.step();  // v=1, p=-0.1
  p->grad.fill(1.0f);
  opt.step();  // v=1.9, p=-0.29
  EXPECT_NEAR(p->value.item(), -0.29f, 1e-5f);
}

TEST(Sgd, WeightDecayShrinksParams) {
  VarPtr p = leaf_with_grad(2.0f, 0.0f);
  Sgd opt({p}, 0.1, 0.0, 0.5);
  opt.step();  // g = 0 + 0.5*2 = 1 -> p = 2 - 0.1 = 1.9
  EXPECT_NEAR(p->value.item(), 1.9f, 1e-6f);
}

TEST(Sgd, ZeroGradClears) {
  VarPtr p = leaf_with_grad(1.0f, 3.0f);
  Sgd opt({p}, 0.1);
  opt.zero_grad();
  EXPECT_FLOAT_EQ(p->grad.item(), 0.0f);
}

TEST(Sgd, ClipNormBoundsUpdate) {
  VarPtr p = leaf_with_grad(0.0f, 100.0f);
  Sgd opt({p}, 1.0, 0.0, 0.0, /*clip_norm=*/1.0);
  opt.step();
  EXPECT_NEAR(p->value.item(), -1.0f, 1e-5f);
}

TEST(ClipGradNorm, ReturnsPreClipNormAndScales) {
  VarPtr a = leaf_with_grad(0.0f, 3.0f);
  VarPtr b = leaf_with_grad(0.0f, 4.0f);
  const double norm = clip_grad_norm({a, b}, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(a->grad.item(), 0.6f, 1e-5f);
  EXPECT_NEAR(b->grad.item(), 0.8f, 1e-5f);
}

TEST(ClipGradNorm, NoOpBelowThreshold) {
  VarPtr a = leaf_with_grad(0.0f, 0.3f);
  clip_grad_norm({a}, 1.0);
  EXPECT_FLOAT_EQ(a->grad.item(), 0.3f);
}

TEST(Sgd, SparseStepIsBitIdenticalToDense) {
  // step_on's contract: when every parameter outside `active` holds an
  // exactly-zero gradient, the sparse walk (which never reads those
  // gradients) must reproduce the dense walk bit for bit — weights AND
  // velocity — including the clipped-norm rescale.
  util::Rng rng(77);
  const std::vector<std::uint32_t> active = {1, 3, 4};
  const auto build = [&](std::uint64_t seed) {
    util::Rng r(seed);
    std::vector<VarPtr> params;
    for (int i = 0; i < 6; ++i) {
      Tensor t = Tensor::uninitialized(3, 5);
      for (std::size_t j = 0; j < t.size(); ++j) {
        t[j] = static_cast<float>(r.normal(0.0, 1.0));
      }
      params.push_back(make_leaf(std::move(t)));
    }
    return params;
  };
  std::vector<VarPtr> dense_params = build(11);
  std::vector<VarPtr> sparse_params = build(11);
  Sgd dense(dense_params, 0.05, 0.9, 3e-5, /*clip_norm=*/0.1);
  Sgd sparse(sparse_params, 0.05, 0.9, 3e-5, /*clip_norm=*/0.1);
  for (int step = 0; step < 25; ++step) {
    for (const std::uint32_t i : active) {
      Tensor g = Tensor::uninitialized(3, 5);
      for (std::size_t j = 0; j < g.size(); ++j) {
        g[j] = static_cast<float>(rng.normal(0.0, 2.0));
      }
      dense_params[i]->ensure_grad();
      sparse_params[i]->ensure_grad();
      dense_params[i]->grad = g;
      sparse_params[i]->grad = g;
    }
    dense.step();
    sparse.step_on(active);
    for (const std::uint32_t i : active) {
      dense_params[i]->zero_grad();
      sparse_params[i]->zero_grad();
    }
  }
  const Sgd::State dense_state = dense.export_state();
  const Sgd::State sparse_state = sparse.export_state();
  for (std::size_t i = 0; i < dense_params.size(); ++i) {
    const Tensor& dw = dense_params[i]->value;
    const Tensor& sw = sparse_params[i]->value;
    ASSERT_EQ(0, std::memcmp(dw.data().data(), sw.data().data(),
                             dw.size() * sizeof(float)))
        << "weights diverged at param " << i;
    const Tensor& dv = dense_state.velocity[i];
    const Tensor& sv = sparse_state.velocity[i];
    ASSERT_EQ(0, std::memcmp(dv.data().data(), sv.data().data(),
                             dv.size() * sizeof(float)))
        << "velocity diverged at param " << i;
  }
}

TEST(ClipGradNorm, SubsetMatchesDenseWhenOthersAreZero) {
  VarPtr a = leaf_with_grad(0.0f, 3.0f);
  VarPtr zero = leaf_with_grad(0.0f, 0.0f);
  VarPtr b = leaf_with_grad(0.0f, 4.0f);
  VarPtr a2 = leaf_with_grad(0.0f, 3.0f);
  VarPtr zero2 = leaf_with_grad(0.0f, 0.0f);
  VarPtr b2 = leaf_with_grad(0.0f, 4.0f);
  const double dense = clip_grad_norm({a, zero, b}, 1.0);
  const double sparse = clip_grad_norm_on({a2, zero2, b2}, {0, 2}, 1.0);
  EXPECT_EQ(dense, sparse);
  EXPECT_FLOAT_EQ(a->grad.item(), a2->grad.item());
  EXPECT_FLOAT_EQ(b->grad.item(), b2->grad.item());
  EXPECT_FLOAT_EQ(zero2->grad.item(), 0.0f);
}

TEST(Adam, FirstStepMagnitudeIsLr) {
  // With bias correction the first Adam step is ~lr * sign(g).
  VarPtr p = leaf_with_grad(0.0f, 0.123f);
  Adam opt({p}, 0.01);
  opt.step();
  EXPECT_NEAR(p->value.item(), -0.01f, 1e-4f);
}

TEST(Adam, ConvergesOnQuadratic) {
  // minimize (x - 3)^2 by supplying its gradient manually.
  VarPtr x = make_leaf(Tensor::scalar(0.0f));
  Adam opt({x}, 0.1);
  for (int i = 0; i < 500; ++i) {
    x->ensure_grad();
    x->grad.fill(2.0f * (x->value.item() - 3.0f));
    opt.step();
    x->zero_grad();
  }
  EXPECT_NEAR(x->value.item(), 3.0f, 0.05f);
}

TEST(Adam, WeightDecayPullsTowardZero) {
  VarPtr p = make_leaf(Tensor::scalar(5.0f));
  Adam opt({p}, 0.1, 0.9, 0.999, 1e-8, 0.5);
  for (int i = 0; i < 200; ++i) {
    p->zero_grad();
    opt.step();
  }
  EXPECT_LT(std::abs(p->value.item()), 1.0f);
}

TEST(FlushBelow, MapsSmallMagnitudesToPositiveZero) {
  const float min_sub = std::numeric_limits<float>::denorm_min();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float floor : {kMinNormal, kMinWeight}) {
    for (const float x : {min_sub, -min_sub, 1e-40f, -1e-40f,
                          kMinNormal - min_sub, -0.0f, 0.0f,
                          std::nextafter(floor, 0.0f),
                          -std::nextafter(floor, 0.0f)}) {
      const float y = flush_below(x, floor);
      EXPECT_EQ(y, 0.0f) << x;
      EXPECT_FALSE(std::signbit(y)) << x;
    }
    for (const float x : {floor, -floor, 1.0f, -3.4e38f, inf, -inf}) {
      EXPECT_EQ(flush_below(x, floor), x);
    }
    EXPECT_TRUE(std::isnan(flush_below(std::nanf(""), floor)));
  }
  EXPECT_EQ(kMinNormal, std::numeric_limits<float>::min());
  EXPECT_EQ(kMinWeight * kMinWeight, kMinNormal);
  EXPECT_EQ(flush_below(1e-30f, kMinNormal), 1e-30f);
  EXPECT_EQ(flush_below(1e-30f, kMinWeight), 0.0f);
}

TEST(Adam, WeightDecayDrivesWeightAndMomentsToExactZero) {
  // A parameter that only weight decay touches — a dead unit's weight.
  // Without the flush, this configuration takes the weight into the
  // subnormal range within ~250 steps and keeps it there; with the
  // weight flushed only below FLT_MIN, it would stop near 1.8e-38 once
  // its first moment is flushed, instead of reaching zero (~4200 steps).
  VarPtr p = make_leaf(Tensor::scalar(1.0f));
  Adam opt({p}, 0.1, 0.5, 0.98, 1e-8, 1.0);
  for (int step = 0; step < 6000; ++step) {
    p->zero_grad();
    opt.step();
    const Adam::State state = opt.export_state();
    for (const float x : {p->value.item(), state.m[0].item(),
                          state.v[0].item()}) {
      ASSERT_NE(std::fpclassify(x), FP_SUBNORMAL) << "step " << step;
    }
  }
  const Adam::State state = opt.export_state();
  for (const float x : {p->value.item(), state.m[0].item(),
                        state.v[0].item()}) {
    EXPECT_EQ(x, 0.0f);
    EXPECT_FALSE(std::signbit(x));
  }
}

// Adam::step's element loop as it was written before it was
// vectorized: one scalar double chain per element. The oracle for the
// vectorized update.
void reference_adam_step(std::vector<float>& w, const std::vector<float>& g,
                         std::vector<float>& m, std::vector<float>& v,
                         std::size_t t, double lr, double beta1,
                         double beta2, double eps, double weight_decay) {
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  for (std::size_t j = 0; j < w.size(); ++j) {
    double gj = g[j];
    if (weight_decay != 0.0) {
      gj += weight_decay * static_cast<double>(w[j]);
    }
    m[j] = flush_below(
        static_cast<float>(beta1 * m[j] + (1.0 - beta1) * gj), kMinNormal);
    v[j] = flush_below(
        static_cast<float>(beta2 * v[j] + (1.0 - beta2) * gj * gj),
        kMinNormal);
    const double mhat = m[j] / bc1;
    const double vhat = v[j] / bc2;
    w[j] = flush_below(
        w[j] - static_cast<float>(lr * mhat / (std::sqrt(vhat) + eps)),
        kMinWeight);
  }
}

bool bits_equal(const std::vector<float>& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data().data(), a.size() * sizeof(float)) ==
             0;
}

TEST(Adam, VectorizedStepMatchesScalarReferenceBitForBit) {
  const float sub = std::numeric_limits<float>::denorm_min();
  // Gradients: signed zeros, subnormals, huge values and ordinary ones.
  const std::vector<float> special_grads = {
      0.0f, -0.0f, sub, -sub, 1e-40f, -3e-39f, 1e30f, -1e30f, 1e-30f};
  // Weights on both sides of both flush floors (2^-63 and FLT_MIN).
  const std::vector<float> start_weights = {
      1.0f,     -0.5f,   1e-3f,     0x1p-60f,   0x1p-63f, -0x1p-63f,
      0x1p-64f, 1e-25f,  0x1p-125f, -0x1p-126f, 3.0f,     0.0f,
      -0.0f,    0x1p-62f, -2e-19f,  1e-40f};
  for (const double weight_decay : {0.0, 0.05}) {
    SCOPED_TRACE("weight_decay " + std::to_string(weight_decay));
    // Odd sizes so every vector remainder path runs.
    const std::vector<std::size_t> sizes = {1, 3, 8, 37};
    std::vector<VarPtr> params;
    std::vector<std::vector<float>> w, m, v;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      Tensor value(1, sizes[i]);
      for (std::size_t j = 0; j < sizes[i]; ++j) {
        value[j] = start_weights[(i * 5 + j) % start_weights.size()];
      }
      w.emplace_back(value.data().begin(), value.data().end());
      m.emplace_back(sizes[i], 0.0f);
      v.emplace_back(sizes[i], 0.0f);
      params.push_back(make_leaf(std::move(value)));
    }
    const double lr = 1e-3, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
    Adam opt(params, lr, beta1, beta2, eps, weight_decay);
    util::Rng rng(23);
    std::size_t weights_flushed = 0;
    for (std::size_t step = 1; step <= 500; ++step) {
      for (std::size_t i = 0; i < params.size(); ++i) {
        // Element 0 of each tensor only ever sees +0, as a dead unit's
        // weight does, so only decay and momentum move it.
        std::vector<float> g(sizes[i], 0.0f);
        for (std::size_t j = 1; j < g.size(); ++j) {
          g[j] = rng.uniform() < 0.4
                     ? special_grads[rng.uniform_index(special_grads.size())]
                     : static_cast<float>(rng.normal());
        }
        params[i]->ensure_grad();
        std::copy(g.begin(), g.end(), params[i]->grad.data().begin());
        const std::vector<float> before = w[i];
        reference_adam_step(w[i], g, m[i], v[i], step, lr, beta1, beta2,
                            eps, weight_decay);
        for (std::size_t j = 0; j < w[i].size(); ++j) {
          weights_flushed += before[j] != 0.0f && w[i][j] == 0.0f;
        }
      }
      opt.step();
      const Adam::State state = opt.export_state();
      for (std::size_t i = 0; i < params.size(); ++i) {
        SCOPED_TRACE("step " + std::to_string(step) + " param " +
                     std::to_string(i));
        ASSERT_TRUE(bits_equal(w[i], params[i]->value));
        ASSERT_TRUE(bits_equal(m[i], state.m[i]));
        ASSERT_TRUE(bits_equal(v[i], state.v[i]));
      }
    }
    EXPECT_GT(weights_flushed, 0u);
  }
}

TEST(LambdaAscent, RisesWhenOverTarget) {
  LambdaAscent lambda(0.1);
  lambda.step(0.5);  // LAT/T - 1 = +0.5
  EXPECT_NEAR(lambda.value(), 0.05, 1e-12);
}

TEST(LambdaAscent, GoesNegativeWhenUnderTarget) {
  // Unclamped by default: the equality constraint LAT = T requires a
  // negative multiplier when the architecture is too fast (Sec 3.4).
  LambdaAscent lambda(0.1);
  lambda.step(-0.5);
  EXPECT_NEAR(lambda.value(), -0.05, 1e-12);
}

TEST(LambdaAscent, ClampVariantStaysNonNegative) {
  LambdaAscent lambda(0.1, 0.0, /*clamp_at_zero=*/true);
  lambda.step(-1.0);
  EXPECT_DOUBLE_EQ(lambda.value(), 0.0);
  lambda.step(1.0);
  EXPECT_GT(lambda.value(), 0.0);
}

TEST(LambdaAscent, FixedPointAtTarget) {
  LambdaAscent lambda(0.1, 0.7);
  lambda.step(0.0);  // LAT == T
  EXPECT_DOUBLE_EQ(lambda.value(), 0.7);
}

}  // namespace
}  // namespace lightnas::nn
