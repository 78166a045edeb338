#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>

namespace lightnas::util {
class ThreadPool;
}

namespace lightnas::nn {

/// Tuning knobs of the parallel dense-kernel layer.
struct ParallelConfig {
  /// Total compute lanes for a dispatched kernel, including the calling
  /// thread. 1 means fully serial (no pool is created).
  std::size_t threads = 1;
  /// Cache-block edge (the k-dimension tile of the blocked GEMM
  /// kernels). Must be >= 1.
  std::size_t block = 64;
  /// Kernels whose work estimate (FLOPs for GEMM, elements for the
  /// fused elementwise kernels) falls below this stay serial: the
  /// dispatch latch costs a few microseconds, which dwarfs a tiny
  /// kernel. Dispatch additionally requires >= 2 output rows.
  std::size_t min_work = 1u << 16;
};

/// Shared parallel-execution context for the nn kernels: a thread pool
/// plus the dispatch policy. One context is meant to be shared by a
/// whole pipeline (trainer, search loop, serving workers); concurrent
/// `for_rows` calls from different threads are safe and simply interleave
/// their chunks on the same workers.
///
/// Determinism contract: `for_rows(rows, fn)` always cuts [0, rows) into
/// the same `min(threads, rows)` contiguous chunks, each chunk is
/// executed by exactly one thread, and no two chunks share output rows.
/// Every output element is therefore produced by one serial kernel
/// invocation with a fixed accumulation order — results are bit-identical
/// to the serial path for every thread count, with no atomics or
/// nondeterministic reductions anywhere.
class ParallelContext {
 public:
  /// Serial context (threads = 1).
  ParallelContext();
  explicit ParallelContext(const ParallelConfig& config);
  ~ParallelContext();

  ParallelContext(const ParallelContext&) = delete;
  ParallelContext& operator=(const ParallelContext&) = delete;

  std::size_t threads() const {
    return threads_.load(std::memory_order_relaxed);
  }
  std::size_t block() const {
    return block_.load(std::memory_order_relaxed);
  }
  /// Snapshot of the current knobs. By value: the global context can be
  /// reconfigured concurrently (see configure_global), so a reference
  /// into the context would be a read of mutating state.
  ParallelConfig config() const;

  /// True when a kernel with `rows` output rows and `work` scalar ops
  /// should be dispatched on the pool. Always false inside a worker
  /// chunk (nested kernels run serial rather than deadlocking the pool).
  bool should_parallelize(std::size_t rows, std::size_t work) const;

  /// Run fn(begin, end) over a fixed contiguous partition of [0, rows).
  /// The caller executes the first chunk itself; the call returns only
  /// after every chunk has finished. Falls back to fn(0, rows) when the
  /// context is serial or the caller is already inside a chunk.
  void for_rows(std::size_t rows,
                const std::function<void(std::size_t, std::size_t)>& fn)
      const;

  /// The context the kernels consult when none is passed explicitly:
  /// the innermost active ParallelScope on this thread, else global().
  static const ParallelContext& current();

  /// Process-wide default context; serial until configured.
  static ParallelContext& global();

  /// Swap the global context's knobs and pool. Safe to call while other
  /// threads are dispatching kernels: every `for_rows` snapshots the
  /// pool once (a shared_ptr copy), so in-flight dispatches finish on
  /// the pool they started with, and the old pool's workers join only
  /// after its last snapshot holder drops it. Must not be called from a
  /// pool worker thread (joining your own pool would deadlock) — kernel
  /// bodies never do.
  static void configure_global(const ParallelConfig& config);

 private:
  void install(const ParallelConfig& config);

  /// Swap-safe snapshot of the current pool (may be null when serial).
  std::shared_ptr<util::ThreadPool> pool_snapshot() const;

  // Knobs are independent relaxed atomics rather than one struct: a
  // kernel mixing a freshly configured block size with the previous
  // thread count is harmless (both values are always valid), and this
  // keeps should_parallelize() — called on every kernel entry — at two
  // plain loads. The pool slot itself is a mutex-guarded shared_ptr
  // (not std::atomic<shared_ptr>, whose libstdc++ spinlock protocol
  // ThreadSanitizer cannot model): the mutex is only touched by actual
  // pool dispatches and reconfigures, never on the serial fast path.
  std::atomic<std::size_t> threads_{1};
  std::atomic<std::size_t> block_{64};
  std::atomic<std::size_t> min_work_{1u << 16};
  mutable std::mutex pool_mu_;
  std::shared_ptr<util::ThreadPool> pool_;
};

/// RAII thread-local override: while alive, ParallelContext::current()
/// on this thread returns *ctx. A null ctx is a no-op, so call sites can
/// thread an optional "const ParallelContext*" config field through
/// without branching.
class ParallelScope {
 public:
  explicit ParallelScope(const ParallelContext* ctx);
  ~ParallelScope();

  ParallelScope(const ParallelScope&) = delete;
  ParallelScope& operator=(const ParallelScope&) = delete;

 private:
  const ParallelContext* previous_ = nullptr;
  bool active_ = false;
};

}  // namespace lightnas::nn
