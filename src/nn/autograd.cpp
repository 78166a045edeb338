#include "nn/autograd.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_set>

#include "nn/pool.hpp"

namespace lightnas::nn {

namespace {

/// Sentinel index marking a ParentRef that refers to a persistent node
/// (by address) rather than a same-generation creation (by position).
constexpr std::uint32_t kPersistentRef = 0xffffffffu;

/// How a logged creation refers to one parent. Recycled interior nodes
/// change addresses step to step (the free list is LIFO, so a chain
/// graph's addresses *rotate* between consecutive steps), which is why
/// the fingerprint is positional: a parent created earlier in the same
/// generation is named by its log position. Nodes surviving from
/// earlier generations (parameters, cached constants) are named by
/// address — stable precisely because the node stayed alive, and
/// un-aliasable between consecutive generations because any node newly
/// occupying a freed address would have been stamped (and hence
/// index-referenced) in the current generation.
struct ParentRef {
  std::uint32_t index = kPersistentRef;
  const Var* persistent = nullptr;

  bool operator==(const ParentRef& other) const {
    return index == other.index && persistent == other.persistent;
  }
  bool operator!=(const ParentRef& other) const { return !(*this == other); }
};

/// One logged Var creation. Two consecutive generations built "the same
/// graph" exactly when their logs compare equal element-for-element:
/// same creation count and order, same op type at each position, same
/// wiring. `node` is this generation's payload (where a cached-tape
/// position resolves to), not part of the fingerprint.
struct CreationRecord {
  Var* node = nullptr;
  /// BackwardFn::type_tag() — distinguishes ops with identical arity
  /// (e.g. relu vs sigmoid), so an op-choice flip at a stable topology
  /// still invalidates the tape.
  const void* op_tag = nullptr;
  std::uint32_t parent_begin = 0;
  std::uint32_t parent_count = 0;

  bool operator==(const CreationRecord& other) const {
    return op_tag == other.op_tag && parent_begin == other.parent_begin &&
           parent_count == other.parent_count;
  }
};

/// Cached-tape slot: either a persistent node pinned by address or a
/// position in the *current* generation's construction log (resolved at
/// replay time, after the structural match has proven the logs line up).
struct TapeEntry {
  Var* persistent = nullptr;
  std::uint32_t record = 0;
};

/// Backstop for pathological forward-only loops that never consume the
/// log with a backward(): past this many records the log is dropped and
/// tape reuse is disabled until the next backward. ~48 MB worst case.
constexpr std::size_t kMaxLogRecords = std::size_t{1} << 21;

/// Thread-local recycling state for the autograd layer: the Var free
/// list, the construction logs of the current and previous step, and
/// the cached reverse-topological tape.
struct GraphArena {
  std::vector<Var*> free_vars;

  /// A "generation" is the span between two pooled backward() calls;
  /// every pooled creation is stamped with it. Starts at 1 so the
  /// scrubbed/default stamp 0 can never match a live generation — that
  /// zero-scrub is load-bearing for buffers donated across threads,
  /// whose stale stamps came from a *different* arena's numbering.
  std::uint64_t generation = 1;

  std::vector<CreationRecord> log, prev_log;
  std::vector<ParentRef> log_parents, prev_log_parents;

  std::vector<TapeEntry> tape;  // parents-before-children order
  std::vector<Var*> resolved;   // tape resolved against the current log
  ParentRef prev_root;          // root of the previous generation
  bool tape_valid = false;

  /// Poison flags: any Var created outside the pooled path (its
  /// creation is unlogged, so the structural fingerprint would not see
  /// it) or a dropped log makes the next tape comparison an automatic
  /// miss.
  bool unpooled_creation = false;
  bool log_overflow = false;

  std::unordered_set<Var*> visited_scratch;

  ~GraphArena() {
    // Free-listed nodes were scrubbed on release (empty tensors, no
    // closure, no parents), so this is a flat delete with no recursion.
    for (Var* var : free_vars) delete var;
  }
};

GraphArena& arena() {
  thread_local GraphArena instance;
  return instance;
}

/// shared_ptr deleter that recycles instead of deleting while a pool is
/// active on the destroying thread. Scrubbing releases the node's
/// buffers to the TensorPool and drops parent references (cascading the
/// recycling up the graph); the emptied shell keeps its vector/string
/// capacity for the next step.
struct VarRecycler {
  void operator()(Var* var) const noexcept {
    if (TensorPool::active() != nullptr) {
      var->backward_fn.reset();
      var->parents.clear();
      var->name.clear();
      var->requires_grad = false;
      var->creation_gen = 0;  // never alias another generation's stamp
      var->grad = Tensor();
      var->value = Tensor();
      try {
        arena().free_vars.push_back(var);
        return;
      } catch (...) {
        // bookkeeping OOM: fall through to plain delete
      }
    }
    delete var;
  }
};

VarPtr new_var() {
  TensorPool* pool = TensorPool::active();
  if (pool == nullptr) {
    arena().unpooled_creation = true;
    return std::make_shared<Var>();
  }
  GraphArena& a = arena();
  Var* var = nullptr;
  if (!a.free_vars.empty()) {
    var = a.free_vars.back();
    a.free_vars.pop_back();
    pool->note_node_hit();
  } else {
    var = new Var();
    pool->note_node_miss();
  }
  // Control blocks come from the thread-local block pool, so the whole
  // handle is allocation-free in the steady state.
  return VarPtr(var, VarRecycler{}, PooledBlockAllocator<Var>{});
}

/// Structural name for `node` in the current generation: its log
/// position if it was created (and stamped) this generation, else its
/// address as a persistent node.
ParentRef ref_for(const Var* node, const GraphArena& a) {
  ParentRef ref;
  if (node->creation_gen == a.generation) {
    ref.index = node->creation_index;
    ref.persistent = nullptr;
  } else {
    ref.index = kPersistentRef;
    ref.persistent = node;
  }
  return ref;
}

void log_creation(Var* var) {
  if (TensorPool::active() == nullptr) return;
  GraphArena& a = arena();
  if (a.log_overflow) return;
  if (a.log.size() >= kMaxLogRecords) {
    a.log.clear();
    a.log_parents.clear();
    a.log_overflow = true;
    return;
  }
  var->creation_gen = a.generation;
  var->creation_index = static_cast<std::uint32_t>(a.log.size());
  CreationRecord record;
  record.node = var;
  record.op_tag = var->backward_fn.type_tag();
  record.parent_begin = static_cast<std::uint32_t>(a.log_parents.size());
  record.parent_count = static_cast<std::uint32_t>(var->parents.size());
  for (const VarPtr& parent : var->parents) {
    a.log_parents.push_back(ref_for(parent.get(), a));
  }
  a.log.push_back(record);
}

bool logs_equal(const GraphArena& a) {
  return a.log.size() == a.prev_log.size() &&
         a.log_parents.size() == a.prev_log_parents.size() &&
         std::equal(a.log.begin(), a.log.end(), a.prev_log.begin()) &&
         std::equal(a.log_parents.begin(), a.log_parents.end(),
                    a.prev_log_parents.begin());
}

void topo_sort(const VarPtr& node, std::unordered_set<Var*>& visited,
               std::vector<VarPtr>& order) {
  if (!node || visited.count(node.get()) != 0) return;
  visited.insert(node.get());
  for (const VarPtr& parent : node->parents) {
    topo_sort(parent, visited, order);
  }
  order.push_back(node);
}

/// Same traversal as topo_sort but over raw pointers into the arena's
/// reusable tape buffer. Producing the identical visit order is what
/// keeps pooled backward bit-identical to the classic path.
void tape_sort(Var* node, std::unordered_set<Var*>& visited,
               std::vector<Var*>& tape) {
  if (node == nullptr || visited.count(node) != 0) return;
  visited.insert(node);
  for (const VarPtr& parent : node->parents) {
    tape_sort(parent.get(), visited, tape);
  }
  tape.push_back(node);
}

void run_tape(const std::vector<Var*>& tape, Var* root) {
  for (Var* node : tape) node->ensure_grad();
  root->grad.fill(1.0f);
  // `tape` is parents-before-children; traverse children-first.
  for (auto it = tape.rbegin(); it != tape.rend(); ++it) {
    Var& node = **it;
    if (node.backward_fn) node.backward_fn(node);
  }
}

}  // namespace

void Var::ensure_grad() {
  // Guard on the element count as well as the nominal shape: `value`
  // can be re-materialized (or its buffer resized through data())
  // after `grad` was first allocated, and a stale grad buffer would
  // scatter out of bounds. Allocation goes through the Tensor
  // constructor, i.e. the active pool when there is one.
  if (!grad.same_shape(value) || grad.size() != value.size()) {
    grad = Tensor::zeros(value.rows(), value.cols());
  }
}

void Var::zero_grad() {
  if (grad.same_shape(value) && grad.size() == value.size()) {
    grad.fill(0.0f);
  } else {
    grad = Tensor::zeros(value.rows(), value.cols());
  }
}

VarPtr make_leaf(Tensor value, std::string name) {
  VarPtr v = new_var();
  v->value = std::move(value);
  v->requires_grad = true;
  v->name = std::move(name);
  log_creation(v.get());
  return v;
}

VarPtr make_const(Tensor value, std::string name) {
  VarPtr v = new_var();
  v->value = std::move(value);
  v->requires_grad = false;
  v->name = std::move(name);
  log_creation(v.get());
  return v;
}

namespace {

template <typename ParentRange>
VarPtr make_node_impl(Tensor value, const ParentRange& parents,
                      BackwardFn backward_fn) {
  VarPtr v = new_var();
  v->value = std::move(value);
  // assign() reuses the recycled node's vector capacity.
  v->parents.assign(parents.begin(), parents.end());
  bool any_grad = false;
  for (const VarPtr& parent : v->parents) any_grad |= parent->requires_grad;
  v->requires_grad = any_grad;
  if (any_grad) v->backward_fn = std::move(backward_fn);
  log_creation(v.get());
  return v;
}

}  // namespace

VarPtr make_node(Tensor value, std::initializer_list<VarPtr> parents,
                 BackwardFn backward_fn) {
  return make_node_impl(std::move(value), parents, std::move(backward_fn));
}

VarPtr make_node(Tensor value, const std::vector<VarPtr>& parents,
                 BackwardFn backward_fn) {
  return make_node_impl(std::move(value), parents, std::move(backward_fn));
}

void backward(const VarPtr& root) {
  assert(root);
  assert(root->value.rows() == 1 && root->value.cols() == 1 &&
         "backward() requires a scalar root");

  TensorPool* pool = TensorPool::active();
  if (pool == nullptr) {
    // Classic path: derive the order fresh, and poison the arena — a
    // pooled scope may have logged creations that this backward will
    // not consume, so the half-built log must not be trusted later.
    arena().unpooled_creation = true;
    std::unordered_set<Var*> visited;
    std::vector<VarPtr> order;
    topo_sort(root, visited, order);
    for (const VarPtr& node : order) node->ensure_grad();
    root->grad.fill(1.0f);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      Var& node = **it;
      if (node.backward_fn) node.backward_fn(node);
    }
    return;
  }

  GraphArena& a = arena();
  const ParentRef root_ref = ref_for(root.get(), a);
  const bool reuse = a.tape_valid && !a.unpooled_creation &&
                     !a.log_overflow && root_ref == a.prev_root &&
                     logs_equal(a);
  if (reuse) {
    pool->note_tape_hit();
    // The structural match proves this generation's log lines up with
    // the one the tape was built against, position for position; what
    // changed is only which recycled node sits at each position.
    a.resolved.clear();
    a.resolved.reserve(a.tape.size());
    for (const TapeEntry& entry : a.tape) {
      a.resolved.push_back(entry.persistent != nullptr
                               ? entry.persistent
                               : a.log[entry.record].node);
    }
  } else {
    pool->note_tape_miss();
    a.resolved.clear();
    a.visited_scratch.clear();
    tape_sort(root.get(), a.visited_scratch, a.resolved);
    if (a.log_overflow) {
      // Stamps from the dropped log are dangling positions; run this
      // step from `resolved` but cache nothing.
      a.tape_valid = false;
    } else {
      a.tape.clear();
      a.tape.reserve(a.resolved.size());
      for (Var* node : a.resolved) {
        TapeEntry entry;
        if (node->creation_gen == a.generation) {
          entry.record = node->creation_index;
        } else {
          entry.persistent = node;
        }
        a.tape.push_back(entry);
      }
      a.tape_valid = true;
    }
  }

  // Close the generation: this step's log becomes the reference for the
  // next comparison (buffers swap, so no reallocation) and creations
  // from here on stamp a fresh generation.
  a.prev_root = root_ref;
  std::swap(a.log, a.prev_log);
  std::swap(a.log_parents, a.prev_log_parents);
  a.log.clear();
  a.log_parents.clear();
  a.unpooled_creation = false;
  a.log_overflow = false;
  ++a.generation;

  run_tape(a.resolved, root.get());
}

std::size_t graph_size(const VarPtr& root) {
  std::unordered_set<Var*> visited;
  std::vector<VarPtr> order;
  topo_sort(root, visited, order);
  return order.size();
}

}  // namespace lightnas::nn
