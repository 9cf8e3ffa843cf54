// pygb/eval.cpp — the dispatch stage of Fig. 9: assemble an OpRequest from
// an expression node + target, coerce masks to boolean containers, resolve
// a kernel through the module registry (static / JIT / interp), and invoke
// it. Also implements the assignment proxies of container.hpp and the
// CPython-overhead model of interp_sim.hpp.
#include "pygb/eval.hpp"

#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include "gbtl/detail/backend.hpp"
#include "pygb/context.hpp"
#include "pygb/governor.hpp"
#include "pygb/interp_sim.hpp"
#include "pygb/jit/registry.hpp"
#include "pygb/obs/flightrec.hpp"
#include "pygb/obs/obs.hpp"
#include "pygb/plan.hpp"

namespace pygb {

// ---------------------------------------------------------------------------
// interp_sim
// ---------------------------------------------------------------------------

namespace {

std::int64_t& interp_ns_slot() {
  static std::int64_t ns = [] {
    const char* v = std::getenv("PYGB_INTERP_NS");
    return (v != nullptr && *v != '\0') ? std::atoll(v)
                                        : static_cast<long long>(0);
  }();
  return ns;
}

}  // namespace

std::int64_t interp_overhead_ns() { return interp_ns_slot(); }
void set_interp_overhead_ns(std::int64_t ns) { interp_ns_slot() = ns; }

namespace detail {

void interp_pause() {
  const std::int64_t ns = interp_ns_slot();
  if (ns <= 0) return;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  // Busy-wait: models CPython's dispatch work (which burns CPU, not sleep).
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace detail

namespace detail {

namespace {

using jit::KernelArgs;
using jit::MaskKind;
using jit::OpRequest;

// --- mask coercion ----------------------------------------------------------

/// "its data will be coerced to boolean values" (§III): non-bool mask
/// containers are copied into bool containers for the kernel ABI; bool
/// masks pass through pointer-only.
struct PreparedMatrixMask {
  MaskKind kind = MaskKind::kNone;
  const void* ptr = nullptr;
  std::shared_ptr<gbtl::Matrix<bool>> owned;
};

struct PreparedVectorMask {
  MaskKind kind = MaskKind::kNone;
  const void* ptr = nullptr;
  std::shared_ptr<gbtl::Vector<bool>> owned;
};

PreparedMatrixMask prepare_mask(const MatrixMaskArg& arg) {
  PreparedMatrixMask out;
  if (arg.kind == MatrixMaskArg::Kind::kNone) return out;
  out.kind = arg.kind == MatrixMaskArg::Kind::kPlain ? MaskKind::kMatrix
                                                     : MaskKind::kMatrixComp;
  const Matrix& m = *arg.m;
  if (m.dtype() == DType::kBool) {
    out.ptr = m.raw();
    return out;
  }
  auto coerced =
      std::make_shared<gbtl::Matrix<bool>>(m.nrows(), m.ncols());
  visit_dtype(m.dtype(), [&](auto tag) {
    using T = typename decltype(tag)::type;
    const auto& src = m.typed<T>();
    typename gbtl::Matrix<bool>::Row row;
    for (gbtl::IndexType i = 0; i < src.nrows(); ++i) {
      const auto& r = src.row(i);
      if (r.empty()) continue;
      row.clear();
      row.reserve(r.size());
      for (const auto& [j, v] : r) {
        row.emplace_back(j, static_cast<bool>(v));
      }
      coerced->setRow(i, std::move(row));
      row = {};
    }
  });
  out.owned = std::move(coerced);
  out.ptr = out.owned.get();
  return out;
}

PreparedVectorMask prepare_mask(const VectorMaskArg& arg) {
  PreparedVectorMask out;
  if (arg.kind == VectorMaskArg::Kind::kNone) return out;
  out.kind = arg.kind == VectorMaskArg::Kind::kPlain ? MaskKind::kVector
                                                     : MaskKind::kVectorComp;
  const Vector& m = *arg.m;
  if (m.dtype() == DType::kBool) {
    out.ptr = m.raw();
    return out;
  }
  auto coerced = std::make_shared<gbtl::Vector<bool>>(m.size());
  visit_dtype(m.dtype(), [&](auto tag) {
    using T = typename decltype(tag)::type;
    const auto& src = m.typed<T>();
    for (gbtl::IndexType i = 0; i < src.size(); ++i) {
      if (src.has_unchecked(i)) {
        coerced->set_unchecked(i,
                               static_cast<bool>(src.value_unchecked(i)));
      }
    }
  });
  out.owned = std::move(coerced);
  out.ptr = out.owned.get();
  return out;
}

void set_scalar_channels(KernelArgs& args, const Scalar& v) {
  args.scalar_f = v.to_double();
  args.scalar_i = v.to_int64();
}

Scalar scalar_from_slot(DType dt, const jit::ScalarSlot& slot) {
  return visit_dtype(dt, [&](auto tag) {
    using T = typename decltype(tag)::type;
    if constexpr (std::is_floating_point_v<T>) {
      return Scalar(static_cast<T>(slot.f));
    } else if constexpr (std::is_signed_v<T> || std::is_same_v<T, bool>) {
      return Scalar(static_cast<T>(slot.i));
    } else {
      return Scalar(static_cast<T>(slot.u));
    }
  });
}

/// Populate request/args fields from the expression node's operands.
void fill_from_node(OpRequest& req, KernelArgs& args, const ExprNode& node) {
  using Kind = ExprNode::Kind;
  switch (node.kind) {
    case Kind::kMxM:
      req.func = jit::func::kMxM;
      req.a = node.ma->dtype();
      req.b = node.mb->dtype();
      req.a_transposed = node.a_transposed;
      req.b_transposed = node.b_transposed;
      req.semiring = node.semiring;
      args.a = node.ma->raw();
      args.b = node.mb->raw();
      break;
    case Kind::kMxV:
      req.func = jit::func::kMxV;
      req.a = node.ma->dtype();
      req.b = node.vb->dtype();
      req.a_transposed = node.a_transposed;
      req.semiring = node.semiring;
      args.a = node.ma->raw();
      args.b = node.vb->raw();
      break;
    case Kind::kVxM:
      req.func = jit::func::kVxM;
      req.a = node.va->dtype();
      req.b = node.mb->dtype();
      req.b_transposed = node.b_transposed;
      req.semiring = node.semiring;
      args.a = node.va->raw();
      args.b = node.mb->raw();
      break;
    case Kind::kEWiseAddMM:
    case Kind::kEWiseMultMM:
      req.func = node.kind == Kind::kEWiseAddMM ? jit::func::kEWiseAddMM
                                                : jit::func::kEWiseMultMM;
      req.a = node.ma->dtype();
      req.b = node.mb->dtype();
      req.a_transposed = node.a_transposed;
      req.b_transposed = node.b_transposed;
      req.binary_op = node.binary_op;
      req.user_binary = node.user_binary;
      args.a = node.ma->raw();
      args.b = node.mb->raw();
      break;
    case Kind::kEWiseAddVV:
    case Kind::kEWiseMultVV:
      req.func = node.kind == Kind::kEWiseAddVV ? jit::func::kEWiseAddVV
                                                : jit::func::kEWiseMultVV;
      req.a = node.va->dtype();
      req.b = node.vb->dtype();
      req.binary_op = node.binary_op;
      req.user_binary = node.user_binary;
      args.a = node.va->raw();
      args.b = node.vb->raw();
      break;
    case Kind::kApplyM:
    case Kind::kMatrixRef:
      req.func = jit::func::kApplyM;
      req.a = node.ma->dtype();
      req.a_transposed = node.a_transposed;
      if (node.user_unary) {
        req.user_unary = node.user_unary;
      } else {
        req.unary_op = node.kind == Kind::kApplyM
                           ? node.unary_op
                           : UnaryOp(UnaryOpName::kIdentity);
        if (req.unary_op->is_bound()) {
          set_scalar_channels(args, req.unary_op->bound_value());
        }
      }
      args.a = node.ma->raw();
      break;
    case Kind::kApplyV:
    case Kind::kVectorRef:
      req.func = jit::func::kApplyV;
      req.a = node.va->dtype();
      if (node.user_unary) {
        req.user_unary = node.user_unary;
      } else {
        req.unary_op = node.kind == Kind::kApplyV
                           ? node.unary_op
                           : UnaryOp(UnaryOpName::kIdentity);
        if (req.unary_op->is_bound()) {
          set_scalar_channels(args, req.unary_op->bound_value());
        }
      }
      args.a = node.va->raw();
      break;
    case Kind::kReduceMV:
      req.func = jit::func::kReduceMV;
      req.a = node.ma->dtype();
      req.a_transposed = node.a_transposed;
      req.monoid = node.monoid;
      args.a = node.ma->raw();
      break;
    case Kind::kTransposeM:
      req.func = jit::func::kTransposeM;
      req.a = node.ma->dtype();
      req.a_transposed = node.a_transposed;
      args.a = node.ma->raw();
      break;
  }
}

/// True when the expression node reads the container at `raw` (the
/// &out == &in check for `w = A @ w` / `C = C + A` shapes).
bool node_reads(const ExprNode& node, const void* raw) {
  return (node.ma && node.ma->raw() == raw) ||
         (node.mb && node.mb->raw() == raw) ||
         (node.va && node.va->raw() == raw) ||
         (node.vb && node.vb->raw() == raw);
}

// Commit half of the aliased-output staging: move the staged result into
// the target's underlying container, so every shared handle observes it.
void move_contents(Matrix& target, Matrix& staged) {
  visit_dtype(target.dtype(), [&](auto tag) {
    using T = typename decltype(tag)::type;
    target.typed<T>() = std::move(staged.typed<T>());
  });
}

void move_contents(Vector& target, Vector& staged) {
  visit_dtype(target.dtype(), [&](auto tag) {
    using T = typename decltype(tag)::type;
    target.typed<T>() = std::move(staged.typed<T>());
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// dispatch core
// ---------------------------------------------------------------------------

void dispatch(OpRequest& req, KernelArgs& args) {
  args.request = &req;
  interp_pause();  // CPython dispatch-cost model (0 = off)

  // Resolve the kernel-backend axis BEFORE the registry lookup: req.key()
  // carries the backend, so a compiled module is permanently bound to one
  // implementation strategy. Innermost BackendHint wins over the process
  // default. The BackendScope around the kernel covers the in-process
  // serving paths (static/interp), which read the thread's active backend
  // at run time; JIT modules carry their own baked scope and simply nest
  // an identical override.
  req.backend = current_backend().value_or(gbtl::detail::default_backend());

  // Fast path: with observability off this is one relaxed load + branch
  // on top of the seed dispatch sequence. The flight recorder stays ON even
  // here — it is the always-on black box — but its cost is a handful of
  // relaxed stores per op, not a span allocation.
  if (!obs::tracing_enabled() && !obs::metrics_enabled()) [[likely]] {
    jit::ResolveInfo info;
    jit::KernelFn fn = jit::Registry::instance().get(req, &info);
    const std::uint64_t t0 = flightrec::now_ns();
    // Governor scope around kernel EXECUTION only: resolution (which may
    // include a whole g++ run) is already deadline-bounded by the PR 4
    // PYGB_JIT_TIMEOUT_MS machinery; PYGB_OP_TIMEOUT_MS caps the compute.
    governor::OpScope governed(req.func.c_str());
    gbtl::detail::BackendScope bscope(req.backend);
    fn(&args);
    flightrec::record(flightrec::EventKind::kOpEnd, req.func.c_str(),
                      flightrec::now_ns() - t0,
                      flightrec::fnv1a(info.key.c_str()),
                      flightrec::backend_code(info.backend));
    return;
  }

  obs::Span dispatch_span("pygb.dispatch");
  dispatch_span.attr("func", req.func);
  dispatch_span.attr("kernel_backend", gbtl::detail::backend_name(req.backend));
  jit::ResolveInfo info;
  jit::KernelFn fn;
  {
    obs::Span lookup_span("registry.get");
    fn = jit::Registry::instance().get(req, &info);
    lookup_span.attr("backend", info.backend).attr("key", info.key);
  }
  dispatch_span.attr("backend", info.backend);
  {
    obs::Span kernel_span("kernel");
    kernel_span.attr("func", req.func).attr("backend", info.backend);
    const std::uint64_t t0 = obs::now_ns();
    governor::OpScope governed(req.func.c_str());
    gbtl::detail::BackendScope bscope(req.backend);
    fn(&args);
    const std::uint64_t dur = obs::now_ns() - t0;
    obs::record_value("kernel_ns/" + req.func + "/" + info.backend, dur);
    flightrec::record(flightrec::EventKind::kOpEnd, req.func.c_str(), dur,
                      flightrec::fnv1a(info.key.c_str()),
                      flightrec::backend_code(info.backend));
  }
}

// ---------------------------------------------------------------------------
// eval_into
// ---------------------------------------------------------------------------

void eval_into(Matrix& target, const MatrixMaskArg& mask,
               const std::optional<Accumulator>& accum, bool replace,
               const ExprNode& node) {
  fusion::detail::sync_point();
  // A bare container reference (`C[None] (+)= A`, or the lazy DAG replaying
  // a deferred copy) is an assign, not an apply: the assign dispatch keys
  // are the ones the static table curates for accum/mask merges.
  if (node.kind == ExprNode::Kind::kMatrixRef && !node.user_unary &&
      !node.a_transposed) {
    assign_container(target, mask, accum, replace, *node.ma, nullptr, nullptr);
    return;
  }
  // Output aliasing (`C = C + A`, `C = A @ C`): run the op with its normal
  // dispatch key, but write into a duplicate of the target (so accum/mask
  // merge semantics see the same prior contents), then commit the result
  // back with a single move. The operand reads keep hitting the original.
  if (node_reads(node, target.raw())) {
    Matrix tmp = target.dup();
    eval_into(tmp, mask, accum, replace, node);
    move_contents(target, tmp);
    return;
  }
  MatrixMaskArg safe_mask = mask;
  if (safe_mask.kind != MatrixMaskArg::Kind::kNone &&
      safe_mask.m->raw() == target.raw()) {
    safe_mask.m = std::make_shared<const Matrix>(safe_mask.m->dup());
  }
  obs::Span span("pygb.eval");
  if (span.active()) {
    span.attr("target", "matrix")
        .attr("target_nnz", static_cast<std::uint64_t>(target.nvals()));
  }
  OpRequest req;
  KernelArgs args;
  req.c = target.dtype();
  args.c = target.raw();
  args.replace = replace;
  if (accum) req.accum = accum->op();
  const auto pm = prepare_mask(safe_mask);
  req.mask = pm.kind;
  args.mask = pm.ptr;
  fill_from_node(req, args, node);
  if (span.active()) span.attr("func", req.func);
  flightrec::record(flightrec::EventKind::kOpBegin, req.func.c_str(),
                    static_cast<std::uint64_t>(target.nvals()),
                    (static_cast<std::uint64_t>(target.nrows()) << 32) |
                        static_cast<std::uint64_t>(target.ncols()));
  dispatch(req, args);
}

void eval_into(Vector& target, const VectorMaskArg& mask,
               const std::optional<Accumulator>& accum, bool replace,
               const ExprNode& node) {
  fusion::detail::sync_point();
  if (node.kind == ExprNode::Kind::kVectorRef && !node.user_unary) {
    assign_container(target, mask, accum, replace, *node.va, nullptr);
    return;
  }
  if (node_reads(node, target.raw())) {
    Vector tmp = target.dup();
    eval_into(tmp, mask, accum, replace, node);
    move_contents(target, tmp);
    return;
  }
  VectorMaskArg safe_mask = mask;
  if (safe_mask.kind != VectorMaskArg::Kind::kNone &&
      safe_mask.m->raw() == target.raw()) {
    safe_mask.m = std::make_shared<const Vector>(safe_mask.m->dup());
  }
  obs::Span span("pygb.eval");
  if (span.active()) {
    span.attr("target", "vector")
        .attr("target_nnz", static_cast<std::uint64_t>(target.nvals()));
  }
  OpRequest req;
  KernelArgs args;
  req.c = target.dtype();
  args.c = target.raw();
  args.replace = replace;
  if (accum) req.accum = accum->op();
  const auto pm = prepare_mask(safe_mask);
  req.mask = pm.kind;
  args.mask = pm.ptr;
  fill_from_node(req, args, node);
  if (span.active()) span.attr("func", req.func);
  flightrec::record(flightrec::EventKind::kOpBegin, req.func.c_str(),
                    static_cast<std::uint64_t>(target.nvals()),
                    static_cast<std::uint64_t>(target.size()));
  dispatch(req, args);
}

// ---------------------------------------------------------------------------
// assign / extract
// ---------------------------------------------------------------------------

namespace {

/// Every assign: C<mask, accum, replace>(I, J) = src, or = value when src
/// is null.
template <typename Container, typename MaskArgT>
void dispatch_assign(const char* func, Container& target, const MaskArgT& mask,
                     const std::optional<Accumulator>& accum, bool replace,
                     const Container* src, const Scalar& value,
                     const gbtl::IndexArray* rows,
                     const gbtl::IndexArray* cols) {
  OpRequest req;
  KernelArgs args;
  req.func = func;
  req.c = target.dtype();
  args.c = target.raw();
  if (src != nullptr) {
    req.a = src->dtype();
    args.a = src->raw();
  } else {
    set_scalar_channels(args, value);
  }
  args.replace = replace;
  if (accum) req.accum = accum->op();
  const auto pm = prepare_mask(mask);
  req.mask = pm.kind;
  args.mask = pm.ptr;
  args.row_indices = rows;
  args.col_indices = cols;
  dispatch(req, args);
}

}  // namespace

void assign_constant(Matrix& target, const MatrixMaskArg& mask,
                     const std::optional<Accumulator>& accum, bool replace,
                     Scalar value, const gbtl::IndexArray* rows,
                     const gbtl::IndexArray* cols) {
  fusion::detail::sync_point();
  dispatch_assign<Matrix>(jit::func::kAssignMS, target, mask, accum, replace,
                          nullptr, value, rows, cols);
}

void assign_container(Matrix& target, const MatrixMaskArg& mask,
                      const std::optional<Accumulator>& accum, bool replace,
                      const Matrix& a, const gbtl::IndexArray* rows,
                      const gbtl::IndexArray* cols) {
  fusion::detail::sync_point();
  // Self-assignment (`C[...] = C`): snapshot the source first.
  const Matrix src = a.raw() == target.raw() ? a.dup() : a;
  dispatch_assign(jit::func::kAssignMM, target, mask, accum, replace, &src,
                  Scalar(), rows, cols);
}

void assign_constant(Vector& target, const VectorMaskArg& mask,
                     const std::optional<Accumulator>& accum, bool replace,
                     Scalar value, const gbtl::IndexArray* idx) {
  fusion::detail::sync_point();
  dispatch_assign<Vector>(jit::func::kAssignVS, target, mask, accum, replace,
                          nullptr, value, idx, nullptr);
}

void assign_container(Vector& target, const VectorMaskArg& mask,
                      const std::optional<Accumulator>& accum, bool replace,
                      const Vector& u, const gbtl::IndexArray* idx) {
  fusion::detail::sync_point();
  const Vector src = u.raw() == target.raw() ? u.dup() : u;
  dispatch_assign(jit::func::kAssignVV, target, mask, accum, replace, &src,
                  Scalar(), idx, nullptr);
}

Matrix extract_sub(const Matrix& a, const gbtl::IndexArray* rows,
                   const gbtl::IndexArray* cols, gbtl::IndexType out_rows,
                   gbtl::IndexType out_cols) {
  fusion::detail::sync_point();
  Matrix out(out_rows, out_cols, a.dtype());
  OpRequest req;
  KernelArgs args;
  req.func = jit::func::kExtractMM;
  req.c = out.dtype();
  req.a = a.dtype();
  args.c = out.raw();
  args.a = a.raw();
  args.row_indices = rows;
  args.col_indices = cols;
  dispatch(req, args);
  return out;
}

Vector extract_sub(const Vector& u, const gbtl::IndexArray* idx,
                   gbtl::IndexType out_size) {
  fusion::detail::sync_point();
  Vector out(out_size, u.dtype());
  OpRequest req;
  KernelArgs args;
  req.func = jit::func::kExtractVV;
  req.c = out.dtype();
  req.a = u.dtype();
  args.c = out.raw();
  args.a = u.raw();
  args.row_indices = idx;
  dispatch(req, args);
  return out;
}

// ---------------------------------------------------------------------------
// reductions
// ---------------------------------------------------------------------------

Scalar reduce_scalar(const Matrix& a, const Monoid& monoid) {
  fusion::detail::sync_point();
  OpRequest req;
  KernelArgs args;
  jit::ScalarSlot slot;
  req.func = jit::func::kReduceMS;
  req.c = a.dtype();
  req.a = a.dtype();
  req.monoid = monoid;
  args.a = a.raw();
  args.scalar_out = &slot;
  dispatch(req, args);
  return scalar_from_slot(a.dtype(), slot);
}

Scalar reduce_scalar(const Vector& u, const Monoid& monoid) {
  fusion::detail::sync_point();
  OpRequest req;
  KernelArgs args;
  jit::ScalarSlot slot;
  req.func = jit::func::kReduceVS;
  req.c = u.dtype();
  req.a = u.dtype();
  req.monoid = monoid;
  args.a = u.raw();
  args.scalar_out = &slot;
  dispatch(req, args);
  return scalar_from_slot(u.dtype(), slot);
}

// ---------------------------------------------------------------------------
// whole-algorithm dispatch
// ---------------------------------------------------------------------------

gbtl::IndexType dispatch_algo_bfs(const Matrix& graph,
                                  const Vector& frontier, Vector& levels) {
  fusion::detail::sync_point();
  const Vector frontier_bool = frontier.dtype() == DType::kBool
                                   ? frontier
                                   : frontier.astype(DType::kBool);
  OpRequest req;
  KernelArgs args;
  jit::ScalarSlot slot;
  req.func = jit::func::kAlgoBfs;
  req.c = levels.dtype();
  req.a = graph.dtype();
  req.b = DType::kBool;
  args.c = levels.raw();
  args.a = graph.raw();
  args.b = frontier_bool.raw();
  args.scalar_out = &slot;
  dispatch(req, args);
  return static_cast<gbtl::IndexType>(slot.i);
}

void dispatch_algo_sssp(const Matrix& graph, Vector& path) {
  fusion::detail::sync_point();
  OpRequest req;
  KernelArgs args;
  req.func = jit::func::kAlgoSssp;
  req.c = path.dtype();
  req.a = graph.dtype();
  args.c = path.raw();
  args.a = graph.raw();
  dispatch(req, args);
}

unsigned dispatch_algo_pagerank(const Matrix& graph, Vector& rank,
                                double damping, double threshold,
                                unsigned max_iters) {
  fusion::detail::sync_point();
  OpRequest req;
  KernelArgs args;
  jit::ScalarSlot slot;
  req.func = jit::func::kAlgoPagerank;
  req.c = rank.dtype();
  req.a = graph.dtype();
  args.c = rank.raw();
  args.a = graph.raw();
  args.extra0 = damping;
  args.extra1 = threshold;
  args.extra2 = static_cast<std::int64_t>(max_iters);
  args.scalar_out = &slot;
  dispatch(req, args);
  return static_cast<unsigned>(slot.i);
}

gbtl::IndexType dispatch_algo_cc(const Matrix& graph, Vector& labels) {
  fusion::detail::sync_point();
  OpRequest req;
  KernelArgs args;
  jit::ScalarSlot slot;
  req.func = jit::func::kAlgoConnectedComponents;
  req.c = labels.dtype();
  req.a = graph.dtype();
  args.c = labels.raw();
  args.a = graph.raw();
  args.scalar_out = &slot;
  dispatch(req, args);
  return static_cast<gbtl::IndexType>(slot.i);
}

Scalar dispatch_algo_tc(const Matrix& lower) {
  fusion::detail::sync_point();
  OpRequest req;
  KernelArgs args;
  jit::ScalarSlot slot;
  req.func = jit::func::kAlgoTriangleCount;
  req.c = DType::kInt64;
  req.a = lower.dtype();
  args.a = lower.raw();
  args.scalar_out = &slot;
  dispatch(req, args);
  return scalar_from_slot(DType::kInt64, slot);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Assignment proxies (container.hpp). Each reads the replace flag — and for
// +=, the accumulator — from the operator context at assignment time.
// ---------------------------------------------------------------------------

namespace {

detail::ExprNode ref_node(const Matrix& a) {
  detail::ExprNode n{detail::ExprNode::Kind::kMatrixRef};
  n.ma = a;
  return n;
}

detail::ExprNode ref_node(const Vector& u) {
  detail::ExprNode n{detail::ExprNode::Kind::kVectorRef};
  n.va = u;
  return n;
}

/// The accumulator used by `+=`: the innermost context Accumulator, or the
/// context monoid/semiring-add fallback (§III), or Plus when nothing is in
/// scope.
Accumulator iadd_accumulator() {
  if (auto acc = current_accumulator()) return *acc;
  return Accumulator(BinaryOp("Plus"));
}

/// Heap-shared ref node for deferring container copies (`w[None] = v`).
/// Only built when a lazy scope is active — eager assignments keep the
/// stack-allocated ref_node path.
std::shared_ptr<const detail::ExprNode> shared_ref_node(const Matrix& a) {
  return std::make_shared<const detail::ExprNode>(ref_node(a));
}

std::shared_ptr<const detail::ExprNode> shared_ref_node(const Vector& u) {
  return std::make_shared<const detail::ExprNode>(ref_node(u));
}

}  // namespace

MaskedMatrix& MaskedMatrix::operator=(const MatrixExpr& expr) {
  if (fusion::detail::try_defer(target_, mask_, std::nullopt,
                                current_replace(), expr.share_node())) {
    return *this;
  }
  detail::eval_into(target_, mask_, std::nullopt, current_replace(),
                    expr.node());
  return *this;
}

MaskedMatrix& MaskedMatrix::operator=(const Matrix& a) {
  if (fusion::lazy_active() &&
      fusion::detail::try_defer(target_, mask_, std::nullopt,
                                current_replace(), shared_ref_node(a))) {
    return *this;
  }
  detail::eval_into(target_, mask_, std::nullopt, current_replace(),
                    ref_node(a));
  return *this;
}

MaskedMatrix& MaskedMatrix::operator=(Scalar s) {
  detail::assign_constant(target_, mask_, std::nullopt, current_replace(),
                          s, nullptr, nullptr);
  return *this;
}

MaskedMatrix& MaskedMatrix::operator=(double s) {
  return *this = Scalar(s, target_.dtype());
}

MaskedMatrix& MaskedMatrix::operator+=(const MatrixExpr& expr) {
  if (fusion::detail::try_defer(target_, mask_, iadd_accumulator(),
                                current_replace(), expr.share_node())) {
    return *this;
  }
  detail::eval_into(target_, mask_, iadd_accumulator(), current_replace(),
                    expr.node());
  return *this;
}

MaskedMatrix& MaskedMatrix::operator+=(const Matrix& a) {
  if (fusion::lazy_active() &&
      fusion::detail::try_defer(target_, mask_, iadd_accumulator(),
                                current_replace(), shared_ref_node(a))) {
    return *this;
  }
  detail::eval_into(target_, mask_, iadd_accumulator(), current_replace(),
                    ref_node(a));
  return *this;
}

SubMatrixRef MaskedMatrix::operator()(const Slice& rows, const Slice& cols) {
  return SubMatrixRef(target_, mask_, rows, cols);
}

MaskedVector& MaskedVector::operator=(const VectorExpr& expr) {
  if (fusion::detail::try_defer(target_, mask_, std::nullopt,
                                current_replace(), expr.share_node())) {
    return *this;
  }
  detail::eval_into(target_, mask_, std::nullopt, current_replace(),
                    expr.node());
  return *this;
}

MaskedVector& MaskedVector::operator=(const Vector& u) {
  if (fusion::lazy_active() &&
      fusion::detail::try_defer(target_, mask_, std::nullopt,
                                current_replace(), shared_ref_node(u))) {
    return *this;
  }
  detail::eval_into(target_, mask_, std::nullopt, current_replace(),
                    ref_node(u));
  return *this;
}

MaskedVector& MaskedVector::operator=(Scalar s) {
  detail::assign_constant(target_, mask_, std::nullopt, current_replace(),
                          s, nullptr);
  return *this;
}

MaskedVector& MaskedVector::operator=(double s) {
  return *this = Scalar(s, target_.dtype());
}

MaskedVector& MaskedVector::operator+=(const VectorExpr& expr) {
  if (fusion::detail::try_defer(target_, mask_, iadd_accumulator(),
                                current_replace(), expr.share_node())) {
    return *this;
  }
  detail::eval_into(target_, mask_, iadd_accumulator(), current_replace(),
                    expr.node());
  return *this;
}

MaskedVector& MaskedVector::operator+=(const Vector& u) {
  if (fusion::lazy_active() &&
      fusion::detail::try_defer(target_, mask_, iadd_accumulator(),
                                current_replace(), shared_ref_node(u))) {
    return *this;
  }
  detail::eval_into(target_, mask_, iadd_accumulator(), current_replace(),
                    ref_node(u));
  return *this;
}

SubVectorRef MaskedVector::operator[](const Slice& idx) {
  return SubVectorRef(target_, mask_, idx);
}

// ---------------------------------------------------------------------------
// SubMatrixRef / SubVectorRef
// ---------------------------------------------------------------------------

gbtl::IndexArray SubMatrixRef::resolved_rows() const {
  if (row_idx_) return *row_idx_;
  return rows_.resolve(target_.nrows());
}

gbtl::IndexArray SubMatrixRef::resolved_cols() const {
  if (col_idx_) return *col_idx_;
  return cols_.resolve(target_.ncols());
}

namespace {

/// Null when the selection covers the whole dimension (AllIndices fast
/// path); otherwise the resolved array (kept alive by the caller).
const gbtl::IndexArray* maybe_all(
    const std::optional<gbtl::IndexArray>& explicit_idx, const Slice& slice,
    gbtl::IndexType dim, gbtl::IndexArray& storage,
    const gbtl::IndexArray& resolved) {
  if (!explicit_idx && slice.covers_all(dim)) return nullptr;
  storage = resolved;
  return &storage;
}

}  // namespace

SubMatrixRef& SubMatrixRef::operator=(const Matrix& a) {
  gbtl::IndexArray rs, cs;
  const auto* rp = maybe_all(row_idx_, rows_, target_.nrows(), rs,
                             resolved_rows());
  const auto* cp = maybe_all(col_idx_, cols_, target_.ncols(), cs,
                             resolved_cols());
  detail::assign_container(target_, mask_, std::nullopt, current_replace(),
                           a, rp, cp);
  return *this;
}

SubMatrixRef& SubMatrixRef::operator=(const MatrixExpr& expr) {
  // GBTL cannot fuse <operation> + assign-to-region (§IV): the expression
  // is forced into a temporary, then assigned. When the region is the whole
  // matrix the temporary is skipped and the expression evaluates in place.
  if (!row_idx_ && !col_idx_ && rows_.covers_all(target_.nrows()) &&
      cols_.covers_all(target_.ncols())) {
    if (fusion::detail::try_defer(target_, mask_, std::nullopt,
                                  current_replace(), expr.share_node())) {
      return *this;
    }
    detail::eval_into(target_, mask_, std::nullopt, current_replace(),
                      expr.node());
    return *this;
  }
  return *this = expr.eval();
}

SubMatrixRef& SubMatrixRef::operator=(Scalar s) {
  gbtl::IndexArray rs, cs;
  const auto* rp = maybe_all(row_idx_, rows_, target_.nrows(), rs,
                             resolved_rows());
  const auto* cp = maybe_all(col_idx_, cols_, target_.ncols(), cs,
                             resolved_cols());
  detail::assign_constant(target_, mask_, std::nullopt, current_replace(),
                          s, rp, cp);
  return *this;
}

SubMatrixRef& SubMatrixRef::operator=(double s) {
  return *this = Scalar(s, target_.dtype());
}

SubMatrixRef& SubMatrixRef::operator+=(const Matrix& a) {
  gbtl::IndexArray rs, cs;
  const auto* rp = maybe_all(row_idx_, rows_, target_.nrows(), rs,
                             resolved_rows());
  const auto* cp = maybe_all(col_idx_, cols_, target_.ncols(), cs,
                             resolved_cols());
  detail::assign_container(target_, mask_, iadd_accumulator(),
                           current_replace(), a, rp, cp);
  return *this;
}

Matrix SubMatrixRef::extract() const {
  const gbtl::IndexArray rows = resolved_rows();
  const gbtl::IndexArray cols = resolved_cols();
  return detail::extract_sub(target_, &rows, &cols, rows.size(),
                             cols.size());
}

gbtl::IndexArray SubVectorRef::resolved_indices() const {
  if (idx_arr_) return *idx_arr_;
  return idx_.resolve(target_.size());
}

SubVectorRef& SubVectorRef::operator=(const Vector& u) {
  gbtl::IndexArray is;
  const auto* ip =
      maybe_all(idx_arr_, idx_, target_.size(), is, resolved_indices());
  detail::assign_container(target_, mask_, std::nullopt, current_replace(),
                           u, ip);
  return *this;
}

SubVectorRef& SubVectorRef::operator=(const VectorExpr& expr) {
  if (!idx_arr_ && idx_.covers_all(target_.size())) {
    if (fusion::detail::try_defer(target_, mask_, std::nullopt,
                                  current_replace(), expr.share_node())) {
      return *this;
    }
    detail::eval_into(target_, mask_, std::nullopt, current_replace(),
                      expr.node());
    return *this;
  }
  return *this = expr.eval();
}

SubVectorRef& SubVectorRef::operator=(Scalar s) {
  gbtl::IndexArray is;
  const auto* ip =
      maybe_all(idx_arr_, idx_, target_.size(), is, resolved_indices());
  detail::assign_constant(target_, mask_, std::nullopt, current_replace(),
                          s, ip);
  return *this;
}

SubVectorRef& SubVectorRef::operator=(double s) {
  return *this = Scalar(s, target_.dtype());
}

SubVectorRef& SubVectorRef::operator+=(const Vector& u) {
  gbtl::IndexArray is;
  const auto* ip =
      maybe_all(idx_arr_, idx_, target_.size(), is, resolved_indices());
  detail::assign_container(target_, mask_, iadd_accumulator(),
                           current_replace(), u, ip);
  return *this;
}

Vector SubVectorRef::extract() const {
  const gbtl::IndexArray idx = resolved_indices();
  return detail::extract_sub(target_, &idx, idx.size());
}

}  // namespace pygb
