#include "nn/parallel.hpp"

#include <cassert>
#include <condition_variable>
#include <mutex>

#include "util/thread_pool.hpp"

namespace lightnas::nn {

namespace {

/// Innermost ParallelScope override for this thread (null = use global).
thread_local const ParallelContext* tl_override = nullptr;

/// Set while this thread is executing a dispatched chunk. Kernels called
/// from inside a chunk (e.g. a serving worker whose batch forward is
/// itself a pool task) must not re-enter the pool: with every worker
/// blocked waiting on sub-chunks nobody would be left to run them.
thread_local bool tl_in_chunk = false;

struct ChunkGuard {
  bool saved;
  ChunkGuard() : saved(tl_in_chunk) { tl_in_chunk = true; }
  ~ChunkGuard() { tl_in_chunk = saved; }
};

}  // namespace

ParallelContext::ParallelContext() : ParallelContext(ParallelConfig{}) {}

ParallelContext::ParallelContext(const ParallelConfig& config) {
  install(config);
}

ParallelContext::~ParallelContext() = default;

void ParallelContext::install(const ParallelConfig& config) {
  ParallelConfig normalized = config;
  if (normalized.threads == 0) normalized.threads = 1;
  if (normalized.block == 0) normalized.block = 1;
  std::shared_ptr<util::ThreadPool> pool;
  if (normalized.threads > 1) {
    // The caller always runs the first chunk, so the pool only needs
    // threads - 1 workers to reach the configured lane count.
    pool = std::make_shared<util::ThreadPool>(normalized.threads - 1);
  }
  // Order does not matter for correctness (for_rows tolerates any mix of
  // old/new values), but publish the knobs before the pool so a dispatch
  // racing the swap sizes its chunks for the pool it is about to load.
  threads_.store(normalized.threads, std::memory_order_relaxed);
  block_.store(normalized.block, std::memory_order_relaxed);
  min_work_.store(normalized.min_work, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    pool_.swap(pool);
  }
  // `pool` now holds the previous pool (if any) and releases it here —
  // outside the lock, so joining its workers cannot stall a concurrent
  // dispatch's snapshot. If a concurrent for_rows still holds a
  // snapshot, the pool drains and joins when that last holder drops it.
}

std::shared_ptr<util::ThreadPool> ParallelContext::pool_snapshot() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return pool_;
}

ParallelConfig ParallelContext::config() const {
  ParallelConfig config;
  config.threads = threads_.load(std::memory_order_relaxed);
  config.block = block_.load(std::memory_order_relaxed);
  config.min_work = min_work_.load(std::memory_order_relaxed);
  return config;
}

bool ParallelContext::should_parallelize(std::size_t rows,
                                         std::size_t work) const {
  // threads_ > 1 implies a pool was installed; if a reconfigure lands
  // between this check and the snapshot in for_rows, for_rows simply
  // runs serial or on the new pool — both are correct.
  return threads_.load(std::memory_order_relaxed) > 1 && !tl_in_chunk &&
         rows >= 2 && work >= min_work_.load(std::memory_order_relaxed);
}

void ParallelContext::for_rows(
    std::size_t rows,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  // One snapshot per dispatch: every chunk of this call runs on `pool`,
  // and holding the shared_ptr keeps the pool's workers alive until the
  // per-call latch below has been signalled by all of them — even if
  // configure_global swaps in a replacement mid-call.
  const std::shared_ptr<util::ThreadPool> pool = pool_snapshot();
  const std::size_t chunks =
      std::min(threads_.load(std::memory_order_relaxed), rows);
  if (pool == nullptr || tl_in_chunk || chunks <= 1) {
    fn(0, rows);
    return;
  }

  // Per-call completion latch; the pool is shared, so waiting on the
  // pool's own idle state would entangle unrelated dispatches.
  std::mutex mu;
  std::condition_variable done;
  std::size_t remaining = chunks - 1;

  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t begin = c * rows / chunks;
    const std::size_t end = (c + 1) * rows / chunks;
    pool->submit([&, begin, end] {
      {
        ChunkGuard guard;
        fn(begin, end);
      }
      // Notify while holding the lock: mu and done live on the caller's
      // stack, and the caller may return (destroying both) the moment it
      // can observe remaining == 0. Holding mu across the signal keeps
      // the caller from reacquiring it until the signal has completed.
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done.notify_one();
    });
  }
  {
    ChunkGuard guard;
    fn(0, rows / chunks);
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&] { return remaining == 0; });
}

const ParallelContext& ParallelContext::current() {
  return tl_override != nullptr ? *tl_override : global();
}

ParallelContext& ParallelContext::global() {
  static ParallelContext* instance = new ParallelContext();
  return *instance;
}

void ParallelContext::configure_global(const ParallelConfig& config) {
  global().install(config);
}

ParallelScope::ParallelScope(const ParallelContext* ctx) {
  if (ctx == nullptr) return;
  previous_ = tl_override;
  tl_override = ctx;
  active_ = true;
}

ParallelScope::~ParallelScope() {
  if (active_) tl_override = previous_;
}

}  // namespace lightnas::nn
