#include "nn/tensor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "nn/aligned.hpp"
#include "nn/parallel.hpp"
#include "nn/pool.hpp"
#include "nn/simd.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace lightnas::nn {

Tensor::Tensor(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols) {
  const std::size_t count = rows * cols;
  if (TensorPool* pool = TensorPool::active()) {
    data_ = pool->acquire(count);
    std::fill(data_.begin(), data_.end(), fill);
  } else {
    data_.assign(count, fill);
  }
}

Tensor::Tensor(const Tensor& other) : rows_(other.rows_), cols_(other.cols_) {
  if (TensorPool* pool = TensorPool::active()) {
    data_ = pool->acquire(other.data_.size());
    std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  } else {
    data_ = other.data_;
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  TensorPool* pool = TensorPool::active();
  if (pool == nullptr || data_.capacity() >= other.data_.size()) {
    // Fits in place (or pooling is off): plain vector copy-assign, which
    // reuses the existing buffer when the capacity suffices.
    data_ = other.data_;
  } else {
    release_buffer(std::move(data_));
    data_ = pool->acquire(other.data_.size());
    std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  }
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_.clear();
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  release_buffer(std::move(data_));
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = std::move(other.data_);
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_.clear();
  return *this;
}

Tensor::~Tensor() { release_buffer(std::move(data_)); }

void Tensor::release_buffer(AlignedVector&& buffer) noexcept {
  if (buffer.capacity() == 0) return;
  if (TensorPool* pool = TensorPool::active()) {
    pool->release(std::move(buffer));
  }
  // No active pool (or the pool declined): the vector destructor frees.
}

Tensor Tensor::uninitialized(std::size_t rows, std::size_t cols) {
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  const std::size_t count = rows * cols;
  if (TensorPool* pool = TensorPool::active()) {
    t.data_ = pool->acquire(count);  // contents stale by contract
  } else {
    t.data_.assign(count, 0.0f);
  }
  return t;
}

Tensor Tensor::zeros(std::size_t rows, std::size_t cols) {
  return Tensor(rows, cols, 0.0f);
}

Tensor Tensor::ones(std::size_t rows, std::size_t cols) {
  return Tensor(rows, cols, 1.0f);
}

Tensor Tensor::full(std::size_t rows, std::size_t cols, float value) {
  return Tensor(rows, cols, value);
}

Tensor Tensor::scalar(float value) {
  return Tensor(1, 1, value);
}

Tensor Tensor::randn(std::size_t rows, std::size_t cols,
                     lightnas::util::Rng& rng, float stddev) {
  Tensor t = Tensor::uninitialized(rows, cols);
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::from_rows(const std::vector<std::vector<float>>& rows) {
  // Validate before allocating: a ragged longer row would otherwise copy
  // past its slice and corrupt the heap in builds where assert is a
  // no-op.
  if (rows.empty()) {
    throw std::invalid_argument("Tensor::from_rows: empty row list");
  }
  const std::size_t cols = rows.front().size();
  if (cols == 0) {
    throw std::invalid_argument("Tensor::from_rows: rows have no columns");
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != cols) {
      std::ostringstream oss;
      oss << "Tensor::from_rows: ragged input, row " << r << " has "
          << rows[r].size() << " columns, expected " << cols;
      throw std::invalid_argument(oss.str());
    }
  }
  Tensor t = Tensor::uninitialized(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::copy(rows[r].begin(), rows[r].end(),
              t.data_.begin() + static_cast<std::ptrdiff_t>(r * cols));
  }
  return t;
}

float Tensor::item() const {
  assert(rows_ == 1 && cols_ == 1);
  return data_[0];
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::add_inplace(const Tensor& other) {
  LIGHTNAS_CHECK(same_shape(other), "add_inplace: " + shape_string() +
                                        " += " + other.shape_string());
  float* __restrict d = data_.data();
  const float* __restrict o = other.data_.data();
  for (std::size_t i = 0, n = data_.size(); i < n; ++i) d[i] += o[i];
}

void Tensor::sub_inplace(const Tensor& other) {
  LIGHTNAS_CHECK(same_shape(other), "sub_inplace: " + shape_string() +
                                        " -= " + other.shape_string());
  float* __restrict d = data_.data();
  const float* __restrict o = other.data_.data();
  for (std::size_t i = 0, n = data_.size(); i < n; ++i) d[i] -= o[i];
}

void Tensor::scale_inplace(float s) {
  for (auto& v : data_) v *= s;
}

void Tensor::axpy_inplace(float s, const Tensor& other) {
  LIGHTNAS_CHECK(same_shape(other), "axpy_inplace: " + shape_string() +
                                        " += s * " + other.shape_string());
  float* __restrict d = data_.data();
  const float* __restrict o = other.data_.data();
  for (std::size_t i = 0, n = data_.size(); i < n; ++i) d[i] += s * o[i];
}

void Tensor::add_row_inplace(const Tensor& row) {
  add_row_inplace(row, ParallelContext::current());
}

void Tensor::add_row_inplace(const Tensor& row, const ParallelContext& ctx) {
  LIGHTNAS_CHECK(row.rows() == 1 && row.cols() == cols_,
                 "add_row_inplace: " + shape_string() + " += row " +
                     row.shape_string());
  add_row_into(data_.data(), row.data_.data(), rows_, cols_, ctx);
}

void Tensor::relu_inplace() {
  relu_inplace(ParallelContext::current());
}

void Tensor::relu_inplace(const ParallelContext& ctx) {
  const std::size_t cols = cols_;
  float* data = data_.data();
  const auto body = [data, cols](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0 * cols; i < r1 * cols; ++i) {
      data[i] = std::max(data[i], 0.0f);
    }
  };
  if (ctx.should_parallelize(rows_, size())) {
    ctx.for_rows(rows_, body);
  } else {
    body(0, rows_);
  }
}

void Tensor::add_row_relu_inplace(const Tensor& row) {
  add_row_relu_inplace(row, ParallelContext::current());
}

void Tensor::add_row_relu_inplace(const Tensor& row,
                                  const ParallelContext& ctx) {
  LIGHTNAS_CHECK(row.rows() == 1 && row.cols() == cols_,
                 "add_row_relu_inplace: " + shape_string() + " += row " +
                     row.shape_string());
  add_row_relu_into(data_.data(), row.data_.data(), rows_, cols_, ctx);
}

Tensor Tensor::reshaped(std::size_t rows, std::size_t cols) const {
  assert(rows * cols == data_.size());
  Tensor t(*this);  // pooled copy when a pool is active
  t.rows_ = rows;
  t.cols_ = cols;
  return t;
}

float Tensor::sum() const {
  float total = 0.0f;
  for (float v : data_) total += v;
  return total;
}

float Tensor::mean() const {
  assert(!data_.empty());
  return sum() / static_cast<float>(data_.size());
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::abs(v));
  return m;
}

std::size_t Tensor::argmax_row(std::size_t r) const {
  assert(r < rows_);
  std::size_t best = 0;
  float best_v = at(r, 0);
  for (std::size_t c = 1; c < cols_; ++c) {
    if (at(r, c) > best_v) {
      best_v = at(r, c);
      best = c;
    }
  }
  return best;
}

std::string Tensor::shape_string() const {
  std::ostringstream oss;
  oss << '(' << rows_ << " x " << cols_ << ')';
  return oss.str();
}

// ---------------------------------------------------------------------
// Blocked GEMM kernels.
//
// All three variants share one determinism contract: for every output
// element C(i, j), products are accumulated in strictly ascending-p
// order with a single accumulation chain. Cache blocking tiles the k
// dimension (so a block of B rows stays hot across several C rows) and
// register blocking unrolls p in pairs / keeps several independent dot
// accumulators — neither changes the per-element accumulation order, so
// the blocked kernels are bit-identical to the naive triple loop, and a
// row range [r0, r1) computes exactly what the full serial kernel would
// compute for those rows. That is what lets ParallelContext::for_rows
// split rows across threads with exact float equality to the serial
// path.
//
// Note there is deliberately NO zero-operand skip: `0 * NaN` must stay
// NaN and `0 * inf` must stay NaN for IEEE propagation (the old kernels
// silently dropped non-finite values through an `av == 0` fast path,
// which let poisoned activations masquerade as healthy zeros).
//
// The accumulating kernels peel the first write per element into an
// assignment of `0.0f + products` — the exact chain the accumulate form
// produces over a zeroed C — so the output buffer may come from
// Tensor::uninitialized and a pooled hit never pays a zero-fill pass.
// ---------------------------------------------------------------------

namespace {

/// C(r0..r1, :) = A(r0..r1, :) * B for row-major A (m x k), B (k x n).
/// Fully overwrites the row range; C may start uninitialized (k >= 1).
void matmul_rows_scalar(const float* a, const float* b, float* c,
                        std::size_t k, std::size_t n, std::size_t r0,
                        std::size_t r1, std::size_t kc) {
  for (std::size_t pb = 0; pb < k; pb += kc) {
    const std::size_t pe = std::min(pb + kc, k);
    for (std::size_t i = r0; i < r1; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      std::size_t p = pb;
      if (pb == 0) {
        // First touch of this row: assign, don't read stale C.
        if (p + 1 < pe) {
          const float a0 = arow[p];
          const float a1 = arow[p + 1];
          const float* b0 = b + p * n;
          const float* b1 = b0 + n;
          for (std::size_t j = 0; j < n; ++j) {
            crow[j] = 0.0f + a0 * b0[j] + a1 * b1[j];
          }
          p += 2;
        } else {
          const float av = arow[p];
          const float* brow = b + p * n;
          for (std::size_t j = 0; j < n; ++j) {
            crow[j] = 0.0f + av * brow[j];
          }
          ++p;
        }
      }
      for (; p + 1 < pe; p += 2) {
        const float a0 = arow[p];
        const float a1 = arow[p + 1];
        const float* b0 = b + p * n;
        const float* b1 = b0 + n;
        for (std::size_t j = 0; j < n; ++j) {
          // Left-to-right: (crow + a0*b0) + a1*b1 — the same chain the
          // one-p-at-a-time loop produces.
          crow[j] = crow[j] + a0 * b0[j] + a1 * b1[j];
        }
      }
      for (; p < pe; ++p) {
        const float av = arow[p];
        const float* brow = b + p * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

/// C(i0..i1, :) = A^T(i0..i1, :) * B for row-major A (k x m), B (k x n);
/// row i of C reads column i of A (stride m). Fully overwrites the row
/// range; C may start uninitialized (k >= 1).
void matmul_tn_rows_scalar(const float* a, const float* b, float* c,
                           std::size_t k, std::size_t m, std::size_t n,
                           std::size_t i0, std::size_t i1, std::size_t kc) {
  for (std::size_t pb = 0; pb < k; pb += kc) {
    const std::size_t pe = std::min(pb + kc, k);
    for (std::size_t i = i0; i < i1; ++i) {
      float* crow = c + i * n;
      std::size_t p = pb;
      if (pb == 0) {
        // First touch of this row: assign, don't read stale C.
        if (p + 1 < pe) {
          const float a0 = a[p * m + i];
          const float a1 = a[(p + 1) * m + i];
          const float* b0 = b + p * n;
          const float* b1 = b0 + n;
          for (std::size_t j = 0; j < n; ++j) {
            crow[j] = 0.0f + a0 * b0[j] + a1 * b1[j];
          }
          p += 2;
        } else {
          const float av = a[p * m + i];
          const float* brow = b + p * n;
          for (std::size_t j = 0; j < n; ++j) {
            crow[j] = 0.0f + av * brow[j];
          }
          ++p;
        }
      }
      for (; p + 1 < pe; p += 2) {
        const float a0 = a[p * m + i];
        const float a1 = a[(p + 1) * m + i];
        const float* b0 = b + p * n;
        const float* b1 = b0 + n;
        for (std::size_t j = 0; j < n; ++j) {
          crow[j] = crow[j] + a0 * b0[j] + a1 * b1[j];
        }
      }
      for (; p < pe; ++p) {
        const float av = a[p * m + i];
        const float* brow = b + p * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace

const float* pack_transposed(const float* b, std::size_t rows,
                             std::size_t cols) {
  // Grows to the largest operand seen and is then reused, so the
  // steady state does not allocate.
  thread_local AlignedVector scratch;
  if (scratch.size() < rows * cols) scratch.resize(rows * cols);
  float* bt = scratch.data();
  for (std::size_t j = 0; j < rows; ++j) {
    const float* brow = b + j * cols;
    for (std::size_t p = 0; p < cols; ++p) bt[p * rows + j] = brow[p];
  }
  return bt;
}

void matmul_into(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, const ParallelContext& ctx) {
  if (k == 0) {  // no k-blocks: the kernel never writes C
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  const std::size_t kc = ctx.block();
  // ISA resolved once per call, before any row partitioning, so every
  // chunk of one dispatch runs the same kernel tier (see simd.hpp).
  const simd::IsaLevel isa = simd::active_isa();
  const bool fma = isa == simd::IsaLevel::kAvx2Fma;
  const auto body = [a, b, c, k, n, kc, isa,
                     fma](std::size_t r0, std::size_t r1) {
    if (isa != simd::IsaLevel::kScalar) {
      simd::matmul_rows_avx2(a, b, c, k, n, r0, r1, kc, fma);
    } else {
      matmul_rows_scalar(a, b, c, k, n, r0, r1, kc);
    }
  };
  if (ctx.should_parallelize(m, 2 * m * k * n)) {
    ctx.for_rows(m, body);
  } else {
    body(0, m);
  }
}

void matmul_tn_into(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t m, std::size_t n, const ParallelContext& ctx) {
  if (k == 0) {  // no k-blocks: the kernel never writes C
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  const std::size_t kc = ctx.block();
  const simd::IsaLevel isa = simd::active_isa();
  const bool fma = isa == simd::IsaLevel::kAvx2Fma;
  const auto body = [a, b, c, k, m, n, kc, isa,
                     fma](std::size_t i0, std::size_t i1) {
    if (isa != simd::IsaLevel::kScalar) {
      simd::matmul_tn_rows_avx2(a, b, c, k, m, n, i0, i1, kc, fma);
    } else {
      matmul_tn_rows_scalar(a, b, c, k, m, n, i0, i1, kc);
    }
  };
  if (ctx.should_parallelize(m, 2 * m * k * n)) {
    ctx.for_rows(m, body);
  } else {
    body(0, m);
  }
}

void matmul_nt_into(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, const ParallelContext& ctx) {
  // Pack B^T (k x n) once, then run the NN tiles. Every output keeps
  // the single ascending-p chain from +0 a dot product would run, so
  // this is bit-identical to C(i, j) = dot(A row i, B row j) on every
  // tier (k == 0 zero-fills, as the empty dot does).
  matmul_into(a, pack_transposed(b, n, k), c, m, k, n, ctx);
}

void add_row_into(float* data, const float* bias, std::size_t rows,
                  std::size_t cols, const ParallelContext& ctx) {
  const auto body = [data, bias, cols](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      float* out = data + r * cols;
      for (std::size_t c = 0; c < cols; ++c) out[c] += bias[c];
    }
  };
  if (ctx.should_parallelize(rows, rows * cols)) {
    ctx.for_rows(rows, body);
  } else {
    body(0, rows);
  }
}

void add_row_relu_into(float* data, const float* bias, std::size_t rows,
                       std::size_t cols, const ParallelContext& ctx) {
  // ISA resolved once per call so every row chunk of one dispatch uses
  // the same kernel. Both tiers compute max(v + bias, 0) with one
  // rounding per element — bit-identical by construction.
  const bool vec = simd::active_isa() != simd::IsaLevel::kScalar;
  const auto body = [data, bias, cols, vec](std::size_t r0, std::size_t r1) {
    if (vec) {
      simd::add_row_relu_rows_avx2(data, bias, cols, r0, r1);
      return;
    }
    for (std::size_t r = r0; r < r1; ++r) {
      float* out = data + r * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        out[c] = std::max(out[c] + bias[c], 0.0f);
      }
    }
  };
  if (ctx.should_parallelize(rows, rows * cols)) {
    ctx.for_rows(rows, body);
  } else {
    body(0, rows);
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  return matmul(a, b, ParallelContext::current());
}

Tensor matmul(const Tensor& a, const Tensor& b, const ParallelContext& ctx) {
  LIGHTNAS_CHECK(a.cols() == b.rows(),
                 "matmul: " + a.shape_string() + " * " + b.shape_string());
  Tensor c = Tensor::uninitialized(a.rows(), b.cols());
  matmul_into(a.data().data(), b.data().data(), c.data().data(), a.rows(),
              a.cols(), b.cols(), ctx);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  return matmul_tn(a, b, ParallelContext::current());
}

Tensor matmul_tn(const Tensor& a, const Tensor& b,
                 const ParallelContext& ctx) {
  LIGHTNAS_CHECK(a.rows() == b.rows(), "matmul_tn: " + a.shape_string() +
                                           "^T * " + b.shape_string());
  Tensor c = Tensor::uninitialized(a.cols(), b.cols());
  matmul_tn_into(a.data().data(), b.data().data(), c.data().data(), a.rows(),
                 a.cols(), b.cols(), ctx);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  return matmul_nt(a, b, ParallelContext::current());
}

Tensor matmul_nt(const Tensor& a, const Tensor& b,
                 const ParallelContext& ctx) {
  LIGHTNAS_CHECK(a.cols() == b.cols(), "matmul_nt: " + a.shape_string() +
                                           " * " + b.shape_string() + "^T");
  Tensor c = Tensor::uninitialized(a.rows(), b.rows());
  matmul_nt_into(a.data().data(), b.data().data(), c.data().data(), a.rows(),
                 a.cols(), b.rows(), ctx);
  return c;
}

}  // namespace lightnas::nn
