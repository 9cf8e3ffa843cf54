// pygb/plan.cpp — lazy op DAG recording and the fusion planner.
//
// Recording: fusion::detail::try_defer appends {target, accum, node} to a
// thread-local program. Flushing replays that program with sequential
// semantics, but first plans it:
//
//   1. Dead-store elimination: an unmasked, non-accumulating write whose
//      target is overwritten before any read is dropped (sound because an
//      unmasked NoAccumulate write replaces the target's contents exactly
//      — see commit_vector/commit_matrix in gbtl/detail/drivers.hpp).
//   2. Component partitioning: ops that share no containers are
//      independent; independent components run concurrently on the worker
//      pool when it has threads to spare.
//   3. Chain fusion: within a component, maximal runs of fusible ops
//      become one jit::FusedChainDesc (origin "dag") dispatched as a
//      single kernel through the ordinary registry/JIT cache. Runs are
//      capped at 16 statements (kMaxChainLen) so module keys stay
//      bounded; a cap hit is a visible "split" decision.
//
// When chains cannot be served (interp/static backends, no compiler, or a
// JIT failure at flush time) the planner falls back to per-op eager
// replay in program order — results never depend on the backend.
#include "pygb/plan.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <numeric>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gbtl/detail/pool.hpp"
#include "pygb/eval.hpp"
#include "pygb/expr.hpp"
#include "pygb/fused.hpp"
#include "pygb/jit/registry.hpp"
#include "pygb/obs/flightrec.hpp"
#include "pygb/obs/obs.hpp"

namespace pygb::fusion {

using pygb::detail::ExprNode;

namespace {

bool env_enabled_default() {
  const char* v = std::getenv("PYGB_FUSION");
  if (v == nullptr || *v == '\0') return true;
  return !(std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0 ||
           std::strcmp(v, "false") == 0 || std::strcmp(v, "OFF") == 0);
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> f{env_enabled_default()};
  return f;
}

/// Statements per fused chain; longer runs split, so module keys stay
/// bounded.
constexpr std::size_t kMaxChainLen = 16;

// --- the per-thread recorded program ---------------------------------------

struct PendingOp {
  bool is_vector = false;
  std::optional<Matrix> mt;  ///< target handle (keeps the container alive)
  std::optional<Vector> vt;
  std::optional<Accumulator> accum;
  bool replace = false;  ///< captured for fidelity; no-op without a mask
  std::shared_ptr<const ExprNode> node;

  const void* target_raw() const {
    return is_vector ? vt->raw() : mt->raw();
  }
};

struct TlsState {
  int depth = 0;        ///< LazyScope nesting on this thread
  bool in_flush = false;
  std::vector<PendingOp> pending;
  std::unordered_set<const void*> involved;  ///< targets + operands
};

TlsState& tls() {
  static thread_local TlsState t;
  return t;
}

// --- node shape queries ----------------------------------------------------

/// Operand raw pointers of a node (at most two).
template <typename Fn>
void for_each_operand(const ExprNode& n, Fn&& fn) {
  if (n.ma) fn(n.ma->raw());
  if (n.mb) fn(n.mb->raw());
  if (n.va) fn(n.va->raw());
  if (n.vb) fn(n.vb->raw());
}

bool node_reads(const ExprNode& n, const void* raw) {
  bool hit = false;
  for_each_operand(n, [&](const void* r) { hit = hit || r == raw; });
  return hit;
}

/// Can this node become one jit::ChainStatement? (Everything deferrable is
/// also chain-fusible; non-fusible shapes — user ops, transposes outside
/// matmul, row-reduce — stay eager so exceptions and backend behavior
/// match eager mode exactly.)
bool node_deferrable(const ExprNode& n) {
  using K = ExprNode::Kind;
  if (n.user_binary || n.user_unary) return false;
  switch (n.kind) {
    case K::kMxM:
    case K::kMxV:
    case K::kVxM:
      return true;  // transpose flags are supported inside chains
    case K::kEWiseAddMM:
    case K::kEWiseMultMM:
      return !n.a_transposed && !n.b_transposed;
    case K::kEWiseAddVV:
    case K::kEWiseMultVV:
      return true;
    case K::kApplyM:
    case K::kMatrixRef:
      return !n.a_transposed;
    case K::kApplyV:
    case K::kVectorRef:
      return true;
    default:
      return false;  // kReduceMV, kTransposeM: no chain statement form
  }
}

// --- plan stage 1: dead-store elimination ----------------------------------

/// Marks ops whose target is overwritten (unmasked, no accumulator) before
/// any later op reads it. Returns the eliminated count.
std::size_t eliminate_dead_stores(std::vector<PendingOp>& ops,
                                  std::vector<char>& dead) {
  std::size_t eliminated = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const void* raw = ops[i].target_raw();
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      if (node_reads(*ops[j].node, raw)) break;  // value observed: live
      if (ops[j].target_raw() == raw) {
        if (ops[j].accum) break;  // accumulate reads the old target: live
        dead[i] = 1;
        ++eliminated;
        break;
      }
    }
  }
  return eliminated;
}

// --- plan stage 2: independent components ----------------------------------

struct Dsu {
  std::vector<int> parent;
  explicit Dsu(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      x = parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(b)] = a;
  }
};

/// Groups live op indices into connected components over shared container
/// pointers; within each component program order is preserved.
std::vector<std::vector<std::size_t>> partition_components(
    const std::vector<PendingOp>& ops, const std::vector<char>& dead) {
  Dsu dsu(ops.size());
  std::unordered_map<const void*, int> owner;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (dead[i]) continue;
    auto claim = [&](const void* raw) {
      auto [it, inserted] = owner.emplace(raw, static_cast<int>(i));
      if (!inserted) dsu.unite(it->second, static_cast<int>(i));
    };
    claim(ops[i].target_raw());
    for_each_operand(*ops[i].node, claim);
  }
  std::unordered_map<int, std::size_t> slot;
  std::vector<std::vector<std::size_t>> components;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (dead[i]) continue;
    const int root = dsu.find(static_cast<int>(i));
    auto [it, inserted] = slot.emplace(root, components.size());
    if (inserted) components.emplace_back();
    components[it->second].push_back(i);
  }
  return components;
}

// --- plan stage 3: chain building ------------------------------------------

struct ChainBuild {
  std::shared_ptr<jit::FusedChainDesc> desc =
      std::make_shared<jit::FusedChainDesc>();
  std::vector<const void*> ptrs;
  std::vector<double> scalars;
  std::unordered_map<const void*, int> param_of;
};

int chain_param(ChainBuild& b, const Matrix& m) {
  auto it = b.param_of.find(m.raw());
  if (it != b.param_of.end()) return it->second;
  const int idx = static_cast<int>(b.desc->params.size());
  b.desc->params.push_back({jit::ChainParam::Kind::kMatrix, m.dtype(),
                            "p" + std::to_string(idx)});
  b.ptrs.push_back(m.raw());
  b.scalars.push_back(0.0);
  b.param_of.emplace(m.raw(), idx);
  return idx;
}

int chain_param(ChainBuild& b, const Vector& v) {
  auto it = b.param_of.find(v.raw());
  if (it != b.param_of.end()) return it->second;
  const int idx = static_cast<int>(b.desc->params.size());
  b.desc->params.push_back({jit::ChainParam::Kind::kVector, v.dtype(),
                            "p" + std::to_string(idx)});
  b.ptrs.push_back(v.raw());
  b.scalars.push_back(0.0);
  b.param_of.emplace(v.raw(), idx);
  return idx;
}

int chain_scalar(ChainBuild& b, const Scalar& value, DType dtype) {
  const int idx = static_cast<int>(b.desc->params.size());
  b.desc->params.push_back(
      {jit::ChainParam::Kind::kScalar, dtype, "s" + std::to_string(idx)});
  b.ptrs.push_back(nullptr);
  b.scalars.push_back(value.to_double());
  return idx;
}

void add_chain_statement(ChainBuild& b, const PendingOp& op) {
  const ExprNode& n = *op.node;
  using K = ExprNode::Kind;
  jit::ChainStatement st;
  st.target = op.is_vector ? chain_param(b, *op.vt) : chain_param(b, *op.mt);
  const DType target_dtype = op.is_vector ? op.vt->dtype() : op.mt->dtype();
  if (op.accum) st.accum = op.accum->op();
  switch (n.kind) {
    case K::kMxM:
      st.func = jit::func::kMxM;
      st.a = chain_param(b, *n.ma);
      st.b = chain_param(b, *n.mb);
      st.semiring = n.semiring;
      st.a_transposed = n.a_transposed;
      st.b_transposed = n.b_transposed;
      break;
    case K::kMxV:
      st.func = jit::func::kMxV;
      st.a = chain_param(b, *n.ma);
      st.b = chain_param(b, *n.vb);
      st.semiring = n.semiring;
      st.a_transposed = n.a_transposed;
      break;
    case K::kVxM:
      st.func = jit::func::kVxM;
      st.a = chain_param(b, *n.va);
      st.b = chain_param(b, *n.mb);
      st.semiring = n.semiring;
      st.b_transposed = n.b_transposed;
      break;
    case K::kEWiseAddMM:
    case K::kEWiseMultMM:
      st.func = n.kind == K::kEWiseAddMM ? jit::func::kEWiseAddMM
                                         : jit::func::kEWiseMultMM;
      st.a = chain_param(b, *n.ma);
      st.b = chain_param(b, *n.mb);
      st.binary_op = n.binary_op;
      break;
    case K::kEWiseAddVV:
    case K::kEWiseMultVV:
      st.func = n.kind == K::kEWiseAddVV ? jit::func::kEWiseAddVV
                                         : jit::func::kEWiseMultVV;
      st.a = chain_param(b, *n.va);
      st.b = chain_param(b, *n.vb);
      st.binary_op = n.binary_op;
      break;
    case K::kApplyM:
    case K::kMatrixRef:
    case K::kApplyV:
    case K::kVectorRef: {
      const bool vec = n.kind == K::kApplyV || n.kind == K::kVectorRef;
      st.func = vec ? jit::func::kApplyV : jit::func::kApplyM;
      st.a = vec ? chain_param(b, *n.va) : chain_param(b, *n.ma);
      const bool is_ref = n.kind == K::kMatrixRef || n.kind == K::kVectorRef;
      if (is_ref) {
        st.plain_unary = UnaryOpName::kIdentity;
      } else if (n.unary_op->is_bound()) {
        st.bound_op = BinaryOp(n.unary_op->bound_op());
        st.scalar = chain_scalar(b, n.unary_op->bound_value(), target_dtype);
      } else {
        st.plain_unary = n.unary_op->unary_name();
      }
      break;
    }
    default:
      throw std::logic_error("pygb: non-fusible node reached chain build");
  }
  b.desc->statements.push_back(std::move(st));
}

// --- execution --------------------------------------------------------------

/// Chains go through the JIT only; interp/static refuse them by design.
bool chains_servable() {
  auto& reg = jit::Registry::instance();
  switch (reg.mode()) {
    case jit::Mode::kJit:
      return true;
    case jit::Mode::kAuto:
      return reg.compiler_available();
    default:
      return false;
  }
}

void exec_eager(PendingOp& op) {
  obs::counter_add(obs::Counter::kFusionEagerOps, 1);
  if (op.is_vector) {
    pygb::detail::eval_into(*op.vt, VectorMaskArg{}, op.accum, op.replace,
                            *op.node);
  } else {
    pygb::detail::eval_into(*op.mt, MatrixMaskArg{}, op.accum, op.replace,
                            *op.node);
  }
}

/// One fused run: build the chain, dispatch it once; degrade to per-op
/// eager replay if no backend will serve the chain (visible decision).
void exec_fused_run(std::vector<PendingOp>& ops,
                    const std::vector<std::size_t>& run) {
  ChainBuild b;
  b.desc->name = "dag";
  b.desc->origin = "dag";
  for (std::size_t idx : run) add_chain_statement(b, ops[idx]);
  flightrec::record(flightrec::EventKind::kFusionPlan, "fuse",
                    static_cast<std::uint64_t>(b.desc->statements.size()),
                    static_cast<std::uint64_t>(b.desc->params.size()));
  try {
    pygb::detail::run_chain_raw(b.desc, b.ptrs, b.scalars);
    obs::counter_add(obs::Counter::kFusionChains, 1);
    obs::counter_add(obs::Counter::kFusionFusedStatements, run.size());
  } catch (const jit::NoKernelError&) {
    flightrec::record(flightrec::EventKind::kFusionPlan, "fallback",
                      static_cast<std::uint64_t>(run.size()), 0);
    for (std::size_t idx : run) exec_eager(ops[idx]);
  }
}

void exec_component(std::vector<PendingOp>& ops,
                    const std::vector<std::size_t>& component, bool fuse) {
  if (!fuse) {
    for (std::size_t idx : component) exec_eager(ops[idx]);
    return;
  }
  // Greedy maximal runs: every deferred op is chain-fusible, so the only
  // split points are the kMaxChainLen cap.
  std::vector<std::size_t> run;
  auto submit = [&] {
    if (run.empty()) return;
    if (run.size() == 1) {
      flightrec::record(flightrec::EventKind::kFusionPlan, "eager", 1, 0);
      exec_eager(ops[run[0]]);
    } else {
      exec_fused_run(ops, run);
    }
    run.clear();
  };
  for (std::size_t idx : component) {
    if (run.size() >= kMaxChainLen) {
      flightrec::record(flightrec::EventKind::kFusionPlan, "split",
                        static_cast<std::uint64_t>(run.size()), 0);
      submit();
    }
    run.push_back(idx);
  }
  submit();
}

void flush_tls() {
  TlsState& t = tls();
  t.involved.clear();
  if (t.pending.empty()) return;
  t.in_flush = true;
  struct FlushGuard {
    TlsState& t;
    ~FlushGuard() { t.in_flush = false; }
  } guard{t};
  std::vector<PendingOp> ops = std::move(t.pending);
  t.pending.clear();

  obs::counter_add(obs::Counter::kFusionFlushes, 1);
  obs::Span span("fusion.flush");

  std::vector<char> dead(ops.size(), 0);
  const std::size_t eliminated = eliminate_dead_stores(ops, dead);
  if (eliminated > 0) {
    obs::counter_add(obs::Counter::kFusionDce, eliminated);
    flightrec::record(flightrec::EventKind::kFusionPlan, "dce",
                      static_cast<std::uint64_t>(eliminated), 0);
  }

  const auto components = partition_components(ops, dead);
  const bool fuse = chains_servable();
  const bool parallel =
      components.size() > 1 && gbtl::detail::pool_num_threads() > 1;
  flightrec::record(flightrec::EventKind::kFusionPlan, "flush",
                    static_cast<std::uint64_t>(ops.size()),
                    static_cast<std::uint64_t>(components.size()),
                    parallel ? 1u : 0u);
  if (span.active()) {
    span.attr("pending", static_cast<std::uint64_t>(ops.size()))
        .attr("dce", static_cast<std::uint64_t>(eliminated))
        .attr("components", static_cast<std::uint64_t>(components.size()))
        .attr("fuse", fuse ? "chain" : "eager")
        .attr("parallel", parallel ? "yes" : "no");
  }

  if (parallel) {
    // Components share no containers, so any interleaving is equivalent
    // to program order. The pool rethrows the first failure at the join;
    // nested parallel-for calls inside kernels run inline.
    struct Ctx {
      std::vector<PendingOp>* ops;
      const std::vector<std::vector<std::size_t>>* components;
      bool fuse;
    } ctx{&ops, &components, fuse};
    gbtl::detail::pool_parallel_for(
        static_cast<gbtl::IndexType>(components.size()),
        [](void* p, gbtl::IndexType begin, gbtl::IndexType end) {
          auto& c = *static_cast<Ctx*>(p);
          for (gbtl::IndexType i = begin; i < end; ++i) {
            exec_component(*c.ops, (*c.components)[i], c.fuse);
          }
        },
        &ctx);
  } else {
    for (const auto& component : components) {
      exec_component(ops, component, fuse);
    }
  }
}

// --- deferral ---------------------------------------------------------------

void note_involved(TlsState& t, const PendingOp& op) {
  t.involved.insert(op.target_raw());
  for_each_operand(*op.node, [&](const void* r) { t.involved.insert(r); });
}

bool defer_common(PendingOp&& op) {
  TlsState& t = tls();
  if (t.depth <= 0 || t.in_flush || !enabled_flag().load()) return false;
  if (!op.node || !node_deferrable(*op.node)) return false;
  t.pending.push_back(std::move(op));
  note_involved(t, t.pending.back());
  obs::counter_add(obs::Counter::kFusionDeferred, 1);
  return true;
}

// --- expression-lifetime registry (snapshot-on-mutate) ---------------------

struct ExprRegistry {
  std::mutex mu;
  std::unordered_map<const void*, std::vector<std::weak_ptr<ExprNode>>>
      by_raw;
};

ExprRegistry& expr_registry() {
  static ExprRegistry* r = new ExprRegistry();  // leaked: outlives statics
  return *r;
}

}  // namespace

// --- public API -------------------------------------------------------------

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }
void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

bool lazy_active() {
  const TlsState& t = tls();
  return t.depth > 0 && !t.in_flush && enabled();
}

std::size_t pending_count() { return tls().pending.size(); }

void wait() {
  if (!tls().in_flush) flush_tls();
}

LazyScope::LazyScope() : unwind_baseline_(std::uncaught_exceptions()) {
  ++tls().depth;
}

LazyScope::~LazyScope() noexcept(false) {
  TlsState& t = tls();
  --t.depth;
  if (std::uncaught_exceptions() > unwind_baseline_) {
    // Unwinding: running deferred ops could throw a second exception and
    // terminate. Pending work is discarded — visibly.
    if (!t.pending.empty()) {
      flightrec::record(flightrec::EventKind::kFusionPlan, "discard",
                        static_cast<std::uint64_t>(t.pending.size()), 0);
      t.pending.clear();
      t.involved.clear();
    }
    return;
  }
  wait();
}

namespace detail {

bool try_defer(const Matrix& target, const MatrixMaskArg& mask,
               const std::optional<Accumulator>& accum, bool replace,
               std::shared_ptr<const ExprNode> node) {
  if (mask.kind != MatrixMaskArg::Kind::kNone) return false;
  PendingOp op;
  op.is_vector = false;
  op.mt = target;
  op.accum = accum;
  op.replace = replace;
  op.node = std::move(node);
  return defer_common(std::move(op));
}

bool try_defer(const Vector& target, const VectorMaskArg& mask,
               const std::optional<Accumulator>& accum, bool replace,
               std::shared_ptr<const ExprNode> node) {
  if (mask.kind != VectorMaskArg::Kind::kNone) return false;
  PendingOp op;
  op.is_vector = true;
  op.vt = target;
  op.accum = accum;
  op.replace = replace;
  op.node = std::move(node);
  return defer_common(std::move(op));
}

void sync_point() {
  TlsState& t = tls();
  if (t.in_flush || t.pending.empty()) return;
  flush_tls();
}

void sync_read(const void* raw) {
  TlsState& t = tls();
  if (t.in_flush || t.pending.empty()) return;
  if (t.involved.count(raw) != 0) flush_tls();
}

void sync_write(const void* raw) {
  TlsState& t = tls();
  if (!t.in_flush && !t.pending.empty() && t.involved.count(raw) != 0) {
    flush_tls();
  }
  snapshot_exprs_for(raw);
}

void register_expr(const std::shared_ptr<ExprNode>& node) {
  if (!node) return;
  auto& reg = expr_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for_each_operand(*node, [&](const void* raw) {
    auto& bucket = reg.by_raw[raw];
    if (bucket.size() >= 8) {
      bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                  [](const std::weak_ptr<ExprNode>& w) {
                                    return w.expired();
                                  }),
                   bucket.end());
    }
    bucket.push_back(node);
  });
}

void snapshot_exprs_for(const void* raw) {
  auto& reg = expr_registry();
  std::vector<std::shared_ptr<ExprNode>> live;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    auto it = reg.by_raw.find(raw);
    if (it == reg.by_raw.end()) return;
    live.reserve(it->second.size());
    for (const auto& w : it->second) {
      if (auto n = w.lock()) live.push_back(std::move(n));
    }
    reg.by_raw.erase(it);
  }
  // Copy-on-write: the about-to-change operand is replaced by a private
  // snapshot so the expression keeps observing build-time values.
  for (const auto& n : live) {
    if (n->ma && n->ma->raw() == raw) n->ma = n->ma->dup();
    if (n->mb && n->mb->raw() == raw) n->mb = n->mb->dup();
    if (n->va && n->va->raw() == raw) n->va = n->va->dup();
    if (n->vb && n->vb->raw() == raw) n->vb = n->vb->dup();
  }
}

}  // namespace detail

}  // namespace pygb::fusion
