#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/aligned.hpp"

namespace lightnas::util {
class Rng;
}

namespace lightnas::nn {

class ParallelContext;

/// Dense row-major 2-D float tensor.
///
/// The whole reproduction only needs rank-2 math (batch x features):
/// the latency predictor is an MLP over flattened one-hot encodings and
/// the supernet surrogate blocks are residual linear blocks. Scalars are
/// represented as 1x1 tensors. Keeping the tensor rank-2 keeps every op
/// kernel simple and auditable.
class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, float fill = 0.0f);

  /// All special members route the underlying buffer through the
  /// thread's active TensorPool (see pool.hpp) when one is installed:
  /// construction acquires a recycled buffer and overwrites every
  /// element; destruction / overwrite donates the buffer back to the
  /// pool. Without an active pool behavior is the plain std::vector
  /// one. Either way the element values are identical — pooling only
  /// changes where the bytes live.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  /// Storage whose contents are UNSPECIFIED when drawn from an active
  /// TensorPool — the caller must overwrite every element before any
  /// read. This is the fast path for kernels that fully overwrite their
  /// output (GEMM, batch assembly, stacking): a pooled hit skips the
  /// zero/fill pass entirely. Without an active pool the buffer is
  /// zero-initialized, because std::vector cannot hand out raw storage;
  /// init-free handout is precisely what buffer recycling enables.
  static Tensor uninitialized(std::size_t rows, std::size_t cols);
  static Tensor zeros(std::size_t rows, std::size_t cols);
  static Tensor ones(std::size_t rows, std::size_t cols);
  static Tensor full(std::size_t rows, std::size_t cols, float value);
  static Tensor scalar(float value);
  /// I.i.d. normal entries (Kaiming-style init is built on top of this).
  static Tensor randn(std::size_t rows, std::size_t cols,
                      lightnas::util::Rng& rng, float stddev = 1.0f);
  static Tensor from_rows(const std::vector<std::vector<float>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  bool same_shape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  float& at(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Underlying storage: a std::vector<float> over a 32-byte-aligned
  /// allocator (see aligned.hpp), so kernel code can assume the buffer
  /// base is AVX2-vector-aligned whether it came from the pool or the
  /// heap.
  const AlignedVector& data() const { return data_; }
  AlignedVector& data() { return data_; }

  /// Scalar accessor; requires a 1x1 tensor.
  float item() const;

  void fill(float value);
  void add_inplace(const Tensor& other);
  void sub_inplace(const Tensor& other);
  void scale_inplace(float s);
  /// this += s * other (axpy), the core optimizer update primitive.
  void axpy_inplace(float s, const Tensor& other);
  /// Broadcast-add a 1 x cols row over every row (bias application).
  /// The no-context overloads dispatch on ParallelContext::current();
  /// results are bit-identical for every thread count.
  void add_row_inplace(const Tensor& row);
  void add_row_inplace(const Tensor& row, const ParallelContext& ctx);
  /// Elementwise max(v, 0) — the inference-path counterpart of ops::relu.
  void relu_inplace();
  void relu_inplace(const ParallelContext& ctx);
  /// Fused bias + ReLU: v = max(v + row[c], 0), one pass over memory.
  /// Identical math to add_row_inplace followed by relu_inplace; the
  /// hidden-layer hot path of Mlp::forward_inference.
  void add_row_relu_inplace(const Tensor& row);
  void add_row_relu_inplace(const Tensor& row, const ParallelContext& ctx);

  /// Reinterpret the elements under a new shape (copies the buffer —
  /// through the pool when one is active); total size must be preserved.
  Tensor reshaped(std::size_t rows, std::size_t cols) const;

  float sum() const;
  float mean() const;
  float abs_max() const;
  /// Column index of the maximum entry in the given row.
  std::size_t argmax_row(std::size_t r) const;

  std::string shape_string() const;

 private:
  /// Donate the buffer to the active pool (plain free otherwise).
  static void release_buffer(AlignedVector&& buffer) noexcept;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedVector data_;
};

/// Returns +0.0f when |x| < `min_magnitude`, and x unchanged otherwise
/// (NaN and Inf included); `min_magnitude` is a positive float. The
/// magnitudes are compared as integers (for non-negative floats the bit
/// patterns order like the values), so the helper compiles without a
/// branch inside element loops.
///
/// Weight decay pulls unused weights (those of dead ReLU units) toward
/// zero, and on x86 every kernel that reads a subnormal operand, or
/// whose product underflows, takes a microcode assist: a trained
/// predictor once served several times slower than a fresh one. The
/// flush runs where weights are written (Adam::step,
/// MlpPredictor::from_state) instead of through a process-wide MXCSR
/// FTZ/DAZ mode, which would change the arithmetic of everything else
/// in the host process.
inline float flush_below(float x, float min_magnitude) {
  const auto bits = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t keep =
      0u - static_cast<std::uint32_t>((bits & 0x7fffffffu) >=
                                      std::bit_cast<std::uint32_t>(
                                          min_magnitude));
  return std::bit_cast<float>(bits & keep);
}

/// FLT_MIN = 2^-126, the smallest normal float: flushing below it
/// removes the subnormals (and turns -0.0f into +0.0f).
inline constexpr float kMinNormal = 0x1p-126f;

/// 2^-63 = sqrt(FLT_MIN), the floor for weights. A product of two
/// values at least this large cannot underflow, and a weight this small
/// cannot change a float sum of any magnitude that matters. Flushing
/// weights only below FLT_MIN is not enough: once Adam's first moment
/// (about weight_decay * w) drops under FLT_MIN and is flushed, the
/// weight stops moving and stays just above FLT_MIN / weight_decay
/// forever, where its products with other such weights still underflow.
inline constexpr float kMinWeight = 0x1p-63f;

/// Cache-blocked, register-blocked GEMM kernels with full IEEE
/// NaN/Inf propagation (no zero-operand skips). The one-argument-pair
/// forms dispatch on ParallelContext::current(); the explicit-context
/// forms take the context to use. For every context and thread count
/// the result is bit-identical to the serial kernel: rows are
/// partitioned into fixed contiguous chunks and every output element
/// keeps a single ascending-k accumulation chain (see parallel.hpp).
///
/// On AVX2-capable hosts the row kernels additionally dispatch (once
/// per call, before any row partitioning) to the SIMD microkernels of
/// simd.hpp. The default `avx2` tier vectorizes across output columns
/// with separately rounded mul+add, so it preserves the per-element
/// accumulation chain exactly — results stay bit-identical to the
/// scalar tier (and hence to every prior release). The opt-in
/// `avx2fma` tier fuses the chain's mul+add pairs and is NOT
/// bit-identical; see simd.hpp for the contract and overrides.

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n).
Tensor matmul(const Tensor& a, const Tensor& b);
Tensor matmul(const Tensor& a, const Tensor& b, const ParallelContext& ctx);
/// C = A^T * B. Shapes: (k x m)^T * (k x n) -> (m x n).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
Tensor matmul_tn(const Tensor& a, const Tensor& b,
                 const ParallelContext& ctx);
/// C = A * B^T. Shapes: (m x k) * (n x k)^T -> (m x n).
Tensor matmul_nt(const Tensor& a, const Tensor& b);
Tensor matmul_nt(const Tensor& a, const Tensor& b,
                 const ParallelContext& ctx);

/// Raw-pointer forms of the three GEMMs over caller-owned buffers.
/// These hold the single dispatch path — one ISA resolution per call,
/// kc = ctx.block(), row partitioning via should_parallelize/for_rows —
/// and the Tensor wrappers above delegate to them, so a compiled
/// execution plan (plan.hpp) running on arena storage goes through the
/// exact same kernels, bit for bit, as the dynamic graph. Buffers must
/// not alias; `c` holds the full output and is fully overwritten
/// (k == 0 zero-fills it).
void matmul_into(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, const ParallelContext& ctx);
/// C = A^T * B with A stored (k x m) row-major; C is (m x n).
void matmul_tn_into(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t m, std::size_t n, const ParallelContext& ctx);
/// C = A * B^T with B stored (n x k) row-major; C is (m x n). Packs
/// B^T with pack_transposed and runs matmul_into's kernels on it.
void matmul_nt_into(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, const ParallelContext& ctx);
/// Raw-pointer row-broadcast helpers (the add_row_*_inplace bodies):
/// data is (rows x cols), bias is one row of cols floats.
void add_row_into(float* data, const float* bias, std::size_t rows,
                  std::size_t cols, const ParallelContext& ctx);
void add_row_relu_into(float* data, const float* bias, std::size_t rows,
                       std::size_t cols, const ParallelContext& ctx);

/// Row-range scalar GEMM kernels (the serial reference tier). Exposed
/// so a compiled execution plan can pin a kernel pointer at compile
/// time instead of re-dispatching per call; the *_into forms above and
/// the SIMD microkernels of simd.hpp share the exact accumulation-chain
/// contract, so any row partitioning of [r0, r1) is bit-identical.
void matmul_rows_scalar(const float* a, const float* b, float* c,
                        std::size_t k, std::size_t n, std::size_t r0,
                        std::size_t r1, std::size_t kc);
void matmul_tn_rows_scalar(const float* a, const float* b, float* c,
                           std::size_t k, std::size_t m, std::size_t n,
                           std::size_t i0, std::size_t i1, std::size_t kc);

/// Transpose of the row-major (rows x cols) matrix `b`, written into
/// this thread's reusable scratch and returned as (cols x rows)
/// row-major. Valid until the calling thread's next call; the NT GEMM
/// (matmul_nt_into and the plan compiler's NT instructions) packs its B
/// operand here so it runs on the NN kernels.
const float* pack_transposed(const float* b, std::size_t rows,
                             std::size_t cols);

}  // namespace lightnas::nn
