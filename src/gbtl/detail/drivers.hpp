// gbtl/detail/drivers.hpp — the dtype-only halves of the operator-carrying
// ops (see gbtl/core.hpp for the split).
//
// A driver receives a call block whose operands are type-erased container
// pointers plus their OperandOps (per-dtype container access), and whose
// operators arrive as core function pointers. It checks shapes, resolves
// transposes, stages the result under a governor charge, picks the
// direction, partitions rows over the pool, runs the cores, and commits
// the staged result through the mask with the replace discipline.
//
// Drivers depend on the output (or staging) dtype alone, so libpygb
// instantiates each once per dtype (gbtl/detail/drivers.cpp) and hands
// the set to JIT modules through the DriverTable. In-process callers with
// other types (e.g. `long long` containers) instantiate them inline.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "gbtl/core.hpp"
#include "gbtl/detail/backend.hpp"
#include "gbtl/detail/parallel.hpp"
#include "gbtl/detail/pool.hpp"
#include "gbtl/detail/simd.hpp"
#include "gbtl/detail/transpose_cache.hpp"
#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"
#include "gbtl/vector.hpp"
#include "gbtl/views.hpp"

namespace gbtl {

namespace detail {

/// The Matrix under an operand that may be a TransposeView.
template <typename MatT>
const auto& stored_matrix(const MatT& a) {
  if constexpr (is_transpose_view_v<std::remove_cvref_t<MatT>>) {
    return a.inner();
  } else {
    return a;
  }
}

/// Input-vector density at or above which the push-orientation sites pull
/// over the cached transpose instead. 0 forces pull everywhere stored
/// entries exist; values > 1 force push. Eligibility alone doesn't build
/// the transpose: the first eligible request on a matrix still pushes
/// (cached_transpose_if_amortized), so single-use matrices never pay the
/// O(nnz) materialization.
inline double mxv_pull_threshold() noexcept {
  static const double t = [] {
    const char* v = std::getenv("PYGB_MXV_PULL_THRESHOLD");
    return (v != nullptr && *v != '\0') ? std::atof(v) : 0.10;
  }();
  return t;
}

inline bool mxv_should_pull(std::size_t nvals, IndexType size) noexcept {
  return size != 0 && static_cast<double>(nvals) >=
                          mxv_pull_threshold() * static_cast<double>(size);
}

/// SPA working-set budget for the simd backend's L2-tiled Gustavson
/// kernel, 256 KiB. A mutable slot so the property tests can force tiling
/// on tiny matrices.
inline std::uint64_t& mxm_tile_bytes() noexcept {
  static std::uint64_t bytes = std::uint64_t{256} * 1024;
  return bytes;
}

}  // namespace detail

/// Per-dtype container access for the drivers: views over a Matrix<T> or
/// Vector<T> behind a type-erased pointer, and its transpose in the three
/// flavours the ops use. Handles keep a transpose alive for one call.
struct OperandOps {
  core::MatView (*matrix)(const void* m);
  core::VecView (*vector)(const void* v);
  std::shared_ptr<const void> (*materialize_transpose)(const void* m);
  std::shared_ptr<const void> (*cached_transpose)(const void* m);
  /// The cached snapshot, built on the second pull-eligible request; null
  /// on the first (cached_transpose_if_amortized).
  std::shared_ptr<const void> (*transpose_if_amortized)(const void* m);
};

namespace detail {

template <typename T>
struct OperandOpsOf {
  static const Matrix<T>& mat(const void* m) {
    return *static_cast<const Matrix<T>*>(m);
  }
  static core::MatView matrix(const void* m) {
    const Matrix<T>& a = mat(m);
    return {a.row_data(), a.nrows(), a.ncols(), a.nvals()};
  }
  static core::VecView vector(const void* v) {
    const Vector<T>& u = *static_cast<const Vector<T>*>(v);
    return {&u.bitmap(), &u.values(), u.size(), u.nvals()};
  }
  static std::shared_ptr<const void> materialized(const void* m) {
    return std::make_shared<const Matrix<T>>(
        detail::materialize_transpose(mat(m)));
  }
  static std::shared_ptr<const void> cached(const void* m) {
    return detail::cached_transpose(mat(m));
  }
  static std::shared_ptr<const void> amortized(const void* m) {
    return detail::cached_transpose_if_amortized(mat(m));
  }
  static constexpr OperandOps value{&matrix, &vector, &materialized, &cached,
                                    &amortized};
};

template <typename T>
constexpr const OperandOps* operand_ops() noexcept {
  return &OperandOpsOf<T>::value;
}

inline bool use_simd(CallBackend b) noexcept {
  return b == CallBackend::kActive ? simd_enabled() : b == CallBackend::kSimd;
}

/// Logical shape of a matrix operand that may be transposed.
struct Shape {
  IndexType nrows;
  IndexType ncols;
};
inline Shape logical_shape(const core::MatView& m, bool transposed) {
  return transposed ? Shape{m.ncols, m.nrows} : Shape{m.nrows, m.ncols};
}

/// A matrix operand resolved to row-major storage: its own rows, or a
/// transpose materialized for this call.
inline core::MatView resolved_rows(const OperandOps& ops, const void* m,
                                   bool transposed,
                                   std::shared_ptr<const void>& keep) {
  if (!transposed) return ops.matrix(m);
  keep = ops.materialize_transpose(m);
  return ops.matrix(keep.get());
}

inline core::VecMask vec_mask(const MaskArg& arg, IndexType size) {
  if (arg.m == nullptr) return {};
  const Vector<bool>& m = *static_cast<const Vector<bool>*>(arg.m);
  if (m.size() != size) {
    throw DimensionException("mask size does not match output");
  }
  return {&m.bitmap(), &m.values(), arg.complement};
}

inline core::MatMask mat_mask(const MaskArg& arg, IndexType nrows,
                              IndexType ncols) {
  if (arg.m == nullptr) return {};
  const Matrix<bool>& m = *static_cast<const Matrix<bool>*>(arg.m);
  if (m.nrows() != nrows || m.ncols() != ncols) {
    throw DimensionException("mask shape does not match output");
  }
  return {m.row_data(), arg.complement};
}

/// Staged vector result: presence bytes and values, both charged.
template <typename CT>
struct VecStage {
  explicit VecStage(IndexType n, std::uint64_t charge_bytes,
                    unsigned char present_init = 0)
      : charge(charge_bytes), present(n, present_init), vals(n) {}
  ScopedMemCharge charge;
  std::vector<unsigned char> present;
  std::vector<core::Slot<CT>> vals;
};

// ---------------------------------------------------------------------------
// The commit: the GraphBLAS output-write discipline every op shares,
//
//   Z = accum ? (C (+) T) : T     (the accum core folds C into T where both
//                                  hold a value)
//   C = mask/replace merge of Z   (masked in: take Z; masked out: keep C,
//                                  or drop it under replace)
//
// `keep_prior` (an accumulator is present) says whether masked-in positions
// without a T value keep C's value.
// ---------------------------------------------------------------------------

template <typename CT>
void commit_vector(Vector<CT>& c, const unsigned char* present,
                   const core::Slot<CT>* vals, const core::VecMask& m,
                   bool keep_prior, bool replace) {
  for (IndexType i = 0; i < c.size(); ++i) {
    const bool has_c = c.has_unchecked(i);
    const bool has_t = present[i] != 0;
    if (!has_c && !has_t) continue;
    if (!m(i)) {
      if (has_c && replace) c.removeElement(i);
      continue;
    }
    if (has_t) {
      c.set_unchecked(i, static_cast<CT>(vals[i]));
    } else if (!keep_prior) {
      c.removeElement(i);
    }
  }
}

template <typename CT>
void commit_matrix(Matrix<CT>& c, core::Row<CT>* t_rows,
                   const core::MatMask& m, bool keep_prior, bool replace) {
  using CRow = typename Matrix<CT>::Row;
  for (IndexType i = 0; i < c.nrows(); ++i) {
    const auto& crow = c.row(i);
    const auto& trow = t_rows[i];
    CRow out;
    out.reserve(crow.size() + trow.size());
    auto ci = crow.begin();
    auto ti = trow.begin();
    // Walk the union of stored positions in C and T; positions stored in
    // neither need no action under any mode.
    while (ci != crow.end() || ti != trow.end()) {
      IndexType j;
      const CT* cv = nullptr;
      const CT* tv = nullptr;
      if (ti == trow.end() || (ci != crow.end() && ci->first < ti->first)) {
        j = ci->first;
        cv = &ci->second;
        ++ci;
      } else if (ci == crow.end() || ti->first < ci->first) {
        j = ti->first;
        tv = &ti->second;
        ++ti;
      } else {
        j = ci->first;
        cv = &ci->second;
        tv = &ti->second;
        ++ci;
        ++ti;
      }
      if (!m(i, j)) {
        if (cv != nullptr && !replace) out.emplace_back(j, *cv);
        continue;
      }
      if (tv != nullptr) {
        out.emplace_back(j, *tv);
      } else if (keep_prior) {
        out.emplace_back(j, *cv);
      }
    }
    c.setRow(i, std::move(out));
  }
}

template <typename CT>
void finish_vector(Vector<CT>& w, VecStage<CT>& t, const core::VecMask& mask,
                   const core::VecAccum& accum, bool replace) {
  if (accum.fn != nullptr) {
    accum.fn(accum.op, OperandOpsOf<CT>::vector(&w), t.present.data(),
             t.vals.data(), 0, w.size());
  }
  commit_vector(w, t.present.data(), t.vals.data(), mask, accum.fn != nullptr,
                replace);
}

template <typename CT>
void finish_matrix(Matrix<CT>& c, std::vector<core::Row<CT>>& t,
                   const core::MatMask& mask, const core::MatAccum& accum,
                   bool replace) {
  if (accum.fn != nullptr) {
    accum.fn(accum.op, OperandOpsOf<CT>::matrix(&c), t.data(), 0, c.nrows());
  }
  commit_matrix(c, t.data(), mask, accum.fn != nullptr, replace);
}

/// Run a core over [0, n) in row blocks on the pool.
template <typename State, typename Fn>
void run_rows(IndexType n, const State& s, Fn fn) {
  parallel_for_rows(n, [&](IndexType begin, IndexType end) {
    fn(s, begin, end);
  });
}

// ---------------------------------------------------------------------------
// The drivers.
// ---------------------------------------------------------------------------

/// The dtype-independent half of mxv_driver: shape checks, the mask, and
/// the direction. Fills `s` (all but the staging) and returns true to pull
/// over s.a's rows, false to push; `at` keeps a pulled-over A^T alive.
inline bool plan_mxv(const MxvCall& call, IndexType n, core::MvState& s,
                     std::shared_ptr<const void>& at) {
  const core::MatView a = call.a_ops->matrix(call.a);
  const core::VecView u = call.u_ops->vector(call.u);
  const Shape as = logical_shape(a, call.a_transposed);
  if (!call.vxm) {
    if (as.ncols != u.size) {
      throw DimensionException("mxv: ncols(A) != size(u)");
    }
    if (n != as.nrows) throw DimensionException("mxv: size(w) != nrows(A)");
  } else {
    if (as.nrows != u.size) {
      throw DimensionException("vxm: nrows(A) != size(u)");
    }
    if (n != as.ncols) throw DimensionException("vxm: size(w) != ncols(A)");
  }
  s.a = a;
  s.u = u;
  s.mask = vec_mask(call.mask, n);
  s.sr = call.sr;
  // The backend is read ONCE here on the calling thread (worker threads
  // must not consult their own, unset thread-local slot). Under simd the
  // kernels skip masked-out outputs (the commit never reads them).
  const bool simd = use_simd(call.backend);
  s.pushdown = simd;
  s.dense_u = simd && u.dense();
  // A^T·u and u·A scatter through A's rows (push); under simd a dense
  // enough u pulls over the cached A^T instead (direction optimization).
  const bool push_site = call.vxm != call.a_transposed;
  if (!push_site) return true;
  if (simd && mxv_should_pull(u.nvals, u.size)) {
    if ((at = call.a_ops->transpose_if_amortized(call.a))) {
      pool_flight_note("mxv_pull", u.nvals, u.size);
      s.a = call.a_ops->matrix(at.get());
      return true;
    }
  }
  if (simd) pool_flight_note("mxv_push", u.nvals, u.size);
  return false;
}

template <typename CT>
void mxv_driver(const MxvCall& call) {
  Vector<CT>& w = *static_cast<Vector<CT>*>(call.w);
  const IndexType n = w.size();
  core::MvState s;
  std::shared_ptr<const void> at;
  const bool pull = plan_mxv(call, n, s, at);
  VecStage<CT> t(n, pull ? n * (1 + sizeof(CT)) : n / 8 + 1);
  s.present = t.present.data();
  s.vals = t.vals.data();
  if (pull) {
    run_rows(s.a.nrows, s, call.core.pull);
  } else {
    call.core.push(s);
  }
  finish_vector(w, t, s.mask, call.accum, call.replace);
}

template <typename CT>
void mxm_driver(const MxmCall& call) {
  Matrix<CT>& c = *static_cast<Matrix<CT>*>(call.c);
  const core::MatView a = call.a_ops->matrix(call.a);
  const core::MatView b = call.b_ops->matrix(call.b);
  const Shape as = logical_shape(a, call.a_transposed);
  const Shape bs = logical_shape(b, call.b_transposed);
  if (as.ncols != bs.nrows) {
    throw DimensionException("mxm: ncols(A) != nrows(B)");
  }
  if (c.nrows() != as.nrows || c.ncols() != bs.ncols) {
    throw DimensionException("mxm: output shape != nrows(A) x ncols(B)");
  }
  const core::MatMask mask = mat_mask(call.mask, c.nrows(), c.ncols());
  const bool simd = use_simd(call.backend);
  const bool plain_mask = mask.rows != nullptr && !mask.complement;

  core::MxmState s;
  s.sr = call.sr;
  s.a = a;
  s.b = b;
  void (*fn)(const core::MxmState&, IndexType, IndexType) = nullptr;
  std::shared_ptr<const void> at;
  bool swapped = false;
  if (!call.a_transposed && call.b_transposed) {
    // Dots of A's rows against B's stored rows (the columns of B^T); a
    // plain mask restricts them to its true positions (Fig. 5's
    // triangle-counting fast path).
    if (call.core.dot_masked != nullptr && plain_mask) {
      s.mask = mask;
      fn = call.core.dot_masked;
    } else {
      fn = call.core.dot;
    }
  } else if (call.a_transposed && call.b_transposed) {
    // A^T · B^T = (B · A)^T: B·A, then transpose the result. The mask does
    // not align with B·A's rows, so no push-down here.
    s.a = b;
    s.b = a;
    fn = call.core.gustavson_swapped;
    swapped = true;
  } else {
    if (call.a_transposed) {
      // Under simd a cached snapshot serves iterative algorithms that
      // multiply by the same A^T every step.
      at = simd ? call.a_ops->cached_transpose(call.a)
                : call.a_ops->materialize_transpose(call.a);
      s.a = call.a_ops->matrix(at.get());
    }
    s.mask = mask;
    s.row_skip = simd && plain_mask;
    fn = call.core.gustavson;
  }
  // Under simd, wide outputs run L2-sized column tiles of the SPA.
  s.tile_cols = s.b.ncols;
  if (simd && (fn == call.core.gustavson || swapped)) {
    const std::uint64_t per_col = sizeof(CT) + 1;  // SPA value + flag
    const std::uint64_t budget = mxm_tile_bytes();
    if (static_cast<std::uint64_t>(s.b.ncols) * per_col > budget) {
      s.tile_cols = static_cast<IndexType>(
          std::max<std::uint64_t>(64, budget / per_col));
    }
  }
  const IndexType nrows = s.a.nrows;
  std::vector<core::Row<CT>> t;
  {
    ScopedMemCharge charge(nrows * sizeof(core::Row<CT>));
    t.resize(nrows);
    s.out_rows = t.data();
    run_rows(nrows, s, fn);
  }
  if (swapped) {
    // Flip the staged B·A rows into (A^T·B^T)'s.
    ScopedMemCharge charge(s.b.ncols * sizeof(core::Row<CT>));
    std::vector<core::Row<CT>> flipped(s.b.ncols);
    core::IndexState fs;
    fs.a = {t.data(), nrows, s.b.ncols, 0};
    fs.out_rows = flipped.data();
    core::flip_rows<CT, CT>(fs, 0, nrows);
    t = std::move(flipped);
  }
  finish_matrix(c, t, mask, call.accum, call.replace);
}

template <typename CT>
void ewise_m_driver(const EwiseMCall& call) {
  Matrix<CT>& c = *static_cast<Matrix<CT>*>(call.c);
  const Shape as = logical_shape(call.a_ops->matrix(call.a), call.a_transposed);
  const Shape bs = logical_shape(call.b_ops->matrix(call.b), call.b_transposed);
  if (call.kron) {
    if (c.nrows() != as.nrows * bs.nrows || c.ncols() != as.ncols * bs.ncols) {
      throw DimensionException("kronecker: output shape != (na*nb, ma*mb)");
    }
  } else if (as.nrows != bs.nrows || as.ncols != bs.ncols) {
    throw DimensionException("eWise: A and B shapes differ");
  } else if (c.nrows() != as.nrows || c.ncols() != as.ncols) {
    throw DimensionException("eWise: output shape differs from inputs");
  }
  std::shared_ptr<const void> ka, kb;
  core::EwMState s;
  s.a = resolved_rows(*call.a_ops, call.a, call.a_transposed, ka);
  s.b = resolved_rows(*call.b_ops, call.b, call.b_transposed, kb);
  s.op = call.op;
  const core::MatMask mask = mat_mask(call.mask, c.nrows(), c.ncols());
  std::vector<core::Row<CT>> t;
  {
    ScopedMemCharge charge(c.nrows() * sizeof(core::Row<CT>));
    t.resize(c.nrows());
    s.out_rows = t.data();
    run_rows(c.nrows(), s, call.core.rows);
  }
  finish_matrix(c, t, mask, call.accum, call.replace);
}

template <typename CT>
void ewise_v_driver(const EwiseVCall& call) {
  Vector<CT>& w = *static_cast<Vector<CT>*>(call.w);
  core::EwVState s;
  s.a = call.a_ops->vector(call.a);
  s.b = call.b_ops->vector(call.b);
  s.op = call.op;
  if (s.a.size != s.b.size || w.size() != s.a.size) {
    throw DimensionException(call.is_add ? "eWiseAdd: vector sizes differ"
                                         : "eWiseMult: vector sizes differ");
  }
  const IndexType n = w.size();
  const core::VecMask mask = vec_mask(call.mask, n);
  // simd: both inputs fully dense ⇒ the op applies at EVERY position (union
  // and intersection coincide) and runs as one AVX2 loop, per-element
  // IEEE-exact — no reassociation.
  if constexpr (vec_dtype_v<CT>) {
    if (call.core.vec_kind != VecBin::kNone && use_simd(call.backend) &&
        s.a.dense() && s.b.dense()) {
      VecStage<CT> t(n, n * sizeof(CT), 1);
      if (vec_binary_dense(call.core.vec_kind, s.a.values<CT>().data(),
                           s.b.values<CT>().data(), t.vals.data(), n)) {
        finish_vector(w, t, mask, call.accum, call.replace);
        return;
      }
    }
  }
  VecStage<CT> t(n, n * (1 + sizeof(CT)));
  s.present = t.present.data();
  s.vals = t.vals.data();
  run_rows(n, s, call.core.range);
  finish_vector(w, t, mask, call.accum, call.replace);
}

template <typename CT>
void apply_m_driver(const ApplyMCall& call) {
  Matrix<CT>& c = *static_cast<Matrix<CT>*>(call.c);
  const core::MatView a = call.a_ops->matrix(call.a);
  const Shape as = logical_shape(a, call.a_transposed);
  if (c.nrows() != as.nrows || c.ncols() != as.ncols) {
    throw DimensionException("apply: output shape differs from input");
  }
  const bool simd = use_simd(call.backend);
  // simd: an unmasked, unaccumulated apply whose output aliases its input
  // (C = f(C), the shape of in-place rescales like PageRank's damping
  // step) overwrites stored values directly — element-for-element the
  // same static_cast<CT>(f(v)), and with no mask and no accumulator the
  // staged result would replace C wholesale anyway.
  if (simd && call.core.in_place != nullptr && call.mask.m == nullptr &&
      call.accum.fn == nullptr && !call.a_transposed && call.c == call.a) {
    call.core.in_place(call.f, c.rows_for_update(), c.nrows());
    return;
  }
  const core::MatMask mask = mat_mask(call.mask, c.nrows(), c.ncols());
  std::shared_ptr<const void> keep;
  core::ApMState s;
  s.a = resolved_rows(*call.a_ops, call.a, call.a_transposed, keep);
  s.f = call.f;
  std::vector<core::Row<CT>> t;
  {
    ScopedMemCharge charge(s.a.nrows * sizeof(core::Row<CT>) +
                           s.a.nvals * sizeof(std::pair<IndexType, CT>));
    if (simd && call.core.identity_copy) {
      // A same-type Identity apply is a verbatim copy: whole-row copies
      // instead of re-emplacing every element.
      const core::Row<CT>* rows = static_cast<const core::Row<CT>*>(s.a.rows);
      t.assign(rows, rows + s.a.nrows);
    } else {
      t.resize(s.a.nrows);
      s.out_rows = t.data();
      run_rows(s.a.nrows, s, call.core.rows);
    }
  }
  finish_matrix(c, t, mask, call.accum, call.replace);
}

template <typename CT>
void apply_v_driver(const ApplyVCall& call) {
  Vector<CT>& w = *static_cast<Vector<CT>*>(call.w);
  core::ApVState s;
  s.a = call.a_ops->vector(call.a);
  s.f = call.f;
  if (w.size() != s.a.size) {
    throw DimensionException("apply: output size differs from input");
  }
  const IndexType n = w.size();
  const core::VecMask mask = vec_mask(call.mask, n);
  // simd: a fully dense input maps to a fully dense output, so the
  // recognized unary forms run as one contiguous AVX2 loop.
  if constexpr (vec_dtype_v<CT>) {
    if (call.core.vec_kind != VecUn::kNone && use_simd(call.backend) &&
        s.a.dense()) {
      VecStage<CT> t(n, n * sizeof(CT), 1);
      if (vec_unary_dense(call.core.vec_kind,
                          static_cast<CT>(call.core.vec_bound),
                          s.a.values<CT>().data(), t.vals.data(), n)) {
        finish_vector(w, t, mask, call.accum, call.replace);
        return;
      }
    }
  }
  VecStage<CT> t(n, n * (1 + sizeof(CT)));
  s.present = t.present.data();
  s.vals = t.vals.data();
  run_rows(n, s, call.core.range);
  finish_vector(w, t, mask, call.accum, call.replace);
}

template <typename CT>
void reduce_m_v_driver(const ReduceMVCall& call) {
  Vector<CT>& w = *static_cast<Vector<CT>*>(call.w);
  const Shape as =
      logical_shape(call.a_ops->matrix(call.a), call.a_transposed);
  if (w.size() != as.nrows) {
    throw DimensionException("reduce: size(w) != nrows(A)");
  }
  std::shared_ptr<const void> keep;
  core::RedMState s;
  s.a = resolved_rows(*call.a_ops, call.a, call.a_transposed, keep);
  s.monoid = call.monoid;
  const core::VecMask mask = vec_mask(call.mask, w.size());
  VecStage<CT> t(s.a.nrows, s.a.nrows * (1 + sizeof(CT)));
  s.present = t.present.data();
  s.vals = t.vals.data();
  run_rows(s.a.nrows, s, call.core.rows);
  finish_vector(w, t, mask, call.accum, call.replace);
}

/// Matrix → scalar. D3 is the monoid's dtype. A matrix with no stored
/// value leaves the scalar unchanged (GrB_NO_VALUE-like, as GBTL does);
/// per-row partials combine in row order, so the result is identical at
/// every thread count.
template <typename D3>
void reduce_m_s_driver(const ReduceSCall& call) {
  std::shared_ptr<const void> keep;
  core::RedMState s;
  s.a = resolved_rows(*call.a_ops, call.a, call.a_transposed, keep);
  if (s.a.nvals == 0) return;
  s.monoid = call.monoid;
  VecStage<D3> t(s.a.nrows, s.a.nrows * (1 + sizeof(D3)));
  s.present = t.present.data();
  s.vals = t.vals.data();
  run_rows(s.a.nrows, s, call.core.rows);
  call.core.finish(call.monoid, call.accum, t.present.data(), t.vals.data(),
                   s.a.nrows, call.val);
}

/// Vector → scalar: fixed-width tile partials combined in tile order, so
/// the grouping depends only on the vector length, never on the partition.
template <typename D3>
void reduce_v_s_driver(const ReduceSCall& call) {
  core::RedVState s;
  s.u = call.a_ops->vector(call.a);
  if (s.u.nvals == 0) return;
  s.monoid = call.monoid;
  // simd: with every position stored the presence probes are pure
  // overhead — fold the value array directly (same tiles, same order).
  s.dense = use_simd(call.backend) && s.u.dense();
  const IndexType tiles =
      (s.u.size + core::kScalarReduceTile - 1) / core::kScalarReduceTile;
  VecStage<D3> t(tiles, tiles * (1 + sizeof(D3)));
  s.present = t.present.data();
  s.partial = t.vals.data();
  run_rows(tiles, s, call.core.tiles);
  call.core.finish(call.monoid, call.accum, t.present.data(), t.vals.data(),
                   tiles, call.val);
}

/// I or J checked against the dimension it indexes; null is all of [0, dim).
inline core::IndexMap index_map(const IndexArray* idx, IndexType dim,
                                const char* what) {
  if (idx != nullptr) {
    for (IndexType i : *idx) {
      if (i >= dim) {
        throw IndexOutOfBoundsException(std::string(what) + " index " +
                                        std::to_string(i) + " >= " +
                                        std::to_string(dim));
      }
    }
  }
  return {idx, dim};
}

/// w<m, z>(I) = w(I) (+) u, or (+) a constant.
template <typename CT>
void assign_v_driver(const IndexVCall& call) {
  Vector<CT>& w = *static_cast<Vector<CT>*>(call.c);
  const IndexType n = w.size();
  const core::IndexMap idx = index_map(call.rows, n, "assign");
  const core::VecMask mask = vec_mask(call.mask, n);
  core::IndexState s;
  if (call.a != nullptr) {
    s.u = call.a_ops->vector(call.a);
    if (s.u.size != idx.size()) {
      throw DimensionException("assign: size(u) != |I|");
    }
  }
  VecStage<CT> t(n, n * (1 + sizeof(CT)));
  // Without an accumulator the region takes exactly the new values and the
  // rest of w stays: T starts as w unless the region is all of it.
  if (call.accum.fn == nullptr && idx.idx != nullptr) {
    std::copy(w.bitmap().begin(), w.bitmap().end(), t.present.begin());
    std::copy(w.values().begin(), w.values().end(), t.vals.begin());
  }
  if (call.a == nullptr) {
    const CT val = *static_cast<const CT*>(call.scalar);
    for (IndexType k = 0; k < idx.size(); ++k) {
      t.present[idx[k]] = 1;
      t.vals[idx[k]] = val;
    }
  } else {
    s.rows = idx;
    s.present = t.present.data();
    s.vals = t.vals.data();
    call.core(s, 0, s.u.size);
  }
  finish_vector(w, t, mask, call.accum, call.replace);
}

/// w<m, z> = w (+) u(I).
template <typename CT>
void extract_v_driver(const IndexVCall& call) {
  Vector<CT>& w = *static_cast<Vector<CT>*>(call.c);
  core::IndexState s;
  s.u = call.a_ops->vector(call.a);
  s.rows = index_map(call.rows, s.u.size, "extract");
  const IndexType n = w.size();
  if (n != s.rows.size()) {
    throw DimensionException("extract: output size != |I|");
  }
  const core::VecMask mask = vec_mask(call.mask, n);
  VecStage<CT> t(n, n * (1 + sizeof(CT)));
  s.present = t.present.data();
  s.vals = t.vals.data();
  run_rows(n, s, call.core);
  finish_vector(w, t, mask, call.accum, call.replace);
}

/// C<M, z>(I, J) = C(I, J) (+) A, or (+) a constant.
template <typename CT>
void assign_m_driver(const IndexMCall& call) {
  Matrix<CT>& c = *static_cast<Matrix<CT>*>(call.c);
  const core::IndexMap rows = index_map(call.rows, c.nrows(), "assign row");
  const core::IndexMap cols = index_map(call.cols, c.ncols(), "assign col");
  const core::MatMask mask = mat_mask(call.mask, c.nrows(), c.ncols());
  core::IndexState s;
  if (call.a != nullptr) {
    s.a = call.a_ops->matrix(call.a);
    if (s.a.nrows != rows.size() || s.a.ncols != cols.size()) {
      throw DimensionException("assign: A shape != |I| x |J|");
    }
  }
  ScopedMemCharge charge(c.nrows() * sizeof(core::Row<CT>) +
                         c.nvals() * sizeof(std::pair<IndexType, CT>));
  std::vector<core::Row<CT>> t(c.nrows());
  std::vector<bool> in_rows(c.nrows(), false);
  std::vector<bool> in_cols(c.ncols(), false);
  for (IndexType k = 0; k < rows.size(); ++k) in_rows[rows[k]] = true;
  for (IndexType k = 0; k < cols.size(); ++k) in_cols[cols[k]] = true;
  if (call.a == nullptr) {
    // Every region position takes the constant.
    const CT val = *static_cast<const CT*>(call.scalar);
    for (IndexType i = 0; i < c.nrows(); ++i) {
      for (IndexType j = 0; in_rows[i] && j < c.ncols(); ++j) {
        if (in_cols[j]) t[i].emplace_back(j, val);
      }
    }
  } else {
    s.rows = rows;
    s.cols = cols;
    s.out_rows = t.data();
    call.core(s, 0, s.a.nrows);
  }
  // Without an accumulator the region takes exactly the new structure and
  // the rest of C stays: T is C outside the region.
  if (call.accum.fn == nullptr &&
      (rows.idx != nullptr || cols.idx != nullptr)) {
    for (IndexType i = 0; i < c.nrows(); ++i) {
      const IndexType fresh = t[i].size();
      for (const auto& e : c.row(i)) {
        if (!in_rows[i] || !in_cols[e.first]) t[i].push_back(e);
      }
      std::inplace_merge(t[i].begin(), t[i].begin() + fresh, t[i].end(),
                         core::ColumnLess{});
    }
  }
  finish_matrix(c, t, mask, call.accum, call.replace);
}

/// C<M, z> = C (+) A(I, J). I and J may repeat indices.
template <typename CT>
void extract_m_driver(const IndexMCall& call) {
  Matrix<CT>& c = *static_cast<Matrix<CT>*>(call.c);
  core::IndexState s;
  s.a = call.a_ops->matrix(call.a);
  s.rows = index_map(call.rows, s.a.nrows, "extract row");
  s.cols = index_map(call.cols, s.a.ncols, "extract col");
  if (c.nrows() != s.rows.size() || c.ncols() != s.cols.size()) {
    throw DimensionException("extract: output shape != |I| x |J|");
  }
  const core::MatMask mask = mat_mask(call.mask, c.nrows(), c.ncols());
  // Invert an explicit J: source column j -> the output columns it feeds.
  std::vector<IndexType> col_start;
  std::vector<IndexType> col_out(s.cols.size());
  if (s.cols.idx != nullptr) {
    col_start.assign(s.a.ncols + 1, 0);
    for (IndexType j : *s.cols.idx) ++col_start[j + 1];
    for (IndexType j = 0; j < s.a.ncols; ++j) col_start[j + 1] += col_start[j];
    std::vector<IndexType> next(col_start.begin(), col_start.end() - 1);
    for (IndexType k = 0; k < s.cols.size(); ++k) {
      col_out[next[(*s.cols.idx)[k]]++] = k;
    }
    s.col_start = col_start.data();
    s.col_out = col_out.data();
  }
  std::vector<core::Row<CT>> t;
  {
    ScopedMemCharge charge(c.nrows() * sizeof(core::Row<CT>));
    t.resize(c.nrows());
    s.out_rows = t.data();
    run_rows(c.nrows(), s, call.core);
  }
  finish_matrix(c, t, mask, call.accum, call.replace);
}

/// C<M, z> = C (+) A^T; a transposed input cancels the flip (C = A).
template <typename CT>
void transpose_m_driver(const IndexMCall& call) {
  Matrix<CT>& c = *static_cast<Matrix<CT>*>(call.c);
  core::IndexState s;
  s.a = call.a_ops->matrix(call.a);
  const Shape out = logical_shape(s.a, !call.a_transposed);
  if (c.nrows() != out.nrows || c.ncols() != out.ncols) {
    throw DimensionException("transpose: output shape != A^T shape");
  }
  const core::MatMask mask = mat_mask(call.mask, c.nrows(), c.ncols());
  std::vector<core::Row<CT>> t;
  {
    ScopedMemCharge charge(c.nrows() * sizeof(core::Row<CT>) +
                           s.a.nvals * sizeof(std::pair<IndexType, CT>));
    t.resize(c.nrows());
    s.rows = {nullptr, s.a.nrows};
    s.out_rows = t.data();
    if (call.a_transposed) {
      run_rows(s.a.nrows, s, call.core);  // row-wise cast copy
    } else {
      call.core(s, 0, s.a.nrows);  // the flip scatters across rows
    }
  }
  finish_matrix(c, t, mask, call.accum, call.replace);
}

/// The drivers of every dtype. libpygb instantiates them for the eleven
/// GraphBLAS dtypes in gbtl/detail/drivers.cpp, one family after another
/// so the drivers one op uses sit together in the binary, and every other
/// translation unit uses those instances.
#define GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, DRIVER, CALL)              \
  PREFIX template void DRIVER<bool>(const CALL&);                    \
  PREFIX template void DRIVER<std::int8_t>(const CALL&);             \
  PREFIX template void DRIVER<std::int16_t>(const CALL&);            \
  PREFIX template void DRIVER<std::int32_t>(const CALL&);            \
  PREFIX template void DRIVER<std::int64_t>(const CALL&);            \
  PREFIX template void DRIVER<std::uint8_t>(const CALL&);            \
  PREFIX template void DRIVER<std::uint16_t>(const CALL&);           \
  PREFIX template void DRIVER<std::uint32_t>(const CALL&);           \
  PREFIX template void DRIVER<std::uint64_t>(const CALL&);           \
  PREFIX template void DRIVER<float>(const CALL&);                   \
  PREFIX template void DRIVER<double>(const CALL&);
#define GBTL_DRIVERS_OF_ALL_DTYPES(PREFIX)                            \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, mxv_driver, MxvCall)              \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, mxm_driver, MxmCall)              \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, ewise_m_driver, EwiseMCall)       \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, ewise_v_driver, EwiseVCall)       \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, apply_m_driver, ApplyMCall)       \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, apply_v_driver, ApplyVCall)       \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, reduce_m_v_driver, ReduceMVCall)  \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, reduce_m_s_driver, ReduceSCall)   \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, reduce_v_s_driver, ReduceSCall)   \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, assign_v_driver, IndexVCall)      \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, extract_v_driver, IndexVCall)     \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, assign_m_driver, IndexMCall)      \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, extract_m_driver, IndexMCall)     \
  GBTL_DRIVER_OF_ALL_DTYPES(PREFIX, transpose_m_driver, IndexMCall)

#if defined(GBTL_POOL_LINKED)
GBTL_DRIVERS_OF_ALL_DTYPES(extern)
#endif

// ---------------------------------------------------------------------------
// Masks of any element type, as the drivers take them: Matrix<bool> /
// Vector<bool> pass by pointer; other element types are coerced to a
// boolean copy for the call (mask truth is "stored and true").
// ---------------------------------------------------------------------------

template <typename MaskT>
class BoolMask {
 public:
  explicit BoolMask(const MaskT& m) { bind(m, false); }
  MaskArg arg() const { return arg_; }

 private:
  void bind(const NoMask&, bool) {}
  void bind(const Matrix<bool>& m, bool comp) { arg_ = {&m, comp}; }
  void bind(const Vector<bool>& m, bool comp) { arg_ = {&m, comp}; }
  template <typename U>
  void bind(const Matrix<U>& m, bool comp) {
    std::vector<typename Matrix<bool>::Row> rows(m.nrows());
    for (IndexType i = 0; i < m.nrows(); ++i) {
      rows[i].reserve(m.row(i).size());
      for (const auto& [j, v] : m.row(i)) {
        rows[i].emplace_back(j, static_cast<bool>(v));
      }
    }
    auto& copy = storage_.template emplace<Matrix<bool>>(m.nrows(), m.ncols());
    for (IndexType i = 0; i < m.nrows(); ++i) {
      if (!rows[i].empty()) copy.setRow(i, std::move(rows[i]));
    }
    arg_ = {&copy, comp};
  }
  template <typename U>
  void bind(const Vector<U>& m, bool comp) {
    auto& copy = storage_.template emplace<Vector<bool>>(m.size());
    for (IndexType i = 0; i < m.size(); ++i) {
      if (m.has_unchecked(i)) {
        copy.set_unchecked(i, static_cast<bool>(m.value_unchecked(i)));
      }
    }
    arg_ = {&copy, comp};
  }
  template <typename Inner>
  void bind(const MatrixComplementView<Inner>& m, bool comp) {
    bind(m.inner(), !comp);
  }
  template <typename Inner>
  void bind(const VectorComplementView<Inner>& m, bool comp) {
    bind(m.inner(), !comp);
  }

  MaskArg arg_;
  std::variant<std::monostate, Matrix<bool>, Vector<bool>> storage_;
};

/// The call blocks' form of an index argument: null for AllIndices.
inline const IndexArray* index_arg(const AllIndices&) { return nullptr; }
inline const IndexArray* index_arg(const IndexArray& idx) { return &idx; }

/// The in-process assign, extract and transpose: out<mask, accum>(I, J)
/// from the source container `a`, or from the constant `*scalar` when `a`
/// is null.
template <core::IndexOp Op, bool ATrans = false, typename OutT,
          typename MaskT, typename AccumT, typename SrcT, typename RowIdxT,
          typename ColIdxT = AllIndices>
void run_index(OutT& out, const MaskT& mask, const AccumT& accum,
               const SrcT* a, const typename OutT::ScalarType* scalar,
               const RowIdxT& rows, const ColIdxT& cols,
               OutputControl outp) {
  using CT = typename OutT::ScalarType;
  using AT = typename SrcT::ScalarType;
  constexpr bool kMatrix = std::is_same_v<OutT, Matrix<CT>>;
  const BoolMask<MaskT> m(mask);
  IndexCall<std::conditional_t<kMatrix, core::MatAccum, core::VecAccum>> call;
  call.c = &out;
  call.a = a;
  call.a_ops = operand_ops<AT>();
  call.scalar = scalar;
  call.rows = index_arg(rows);
  call.cols = index_arg(cols);
  call.mask = m.arg();
  call.a_transposed = ATrans;
  call.replace = outp == OutputControl::kReplace;
  call.core = core::index_core<Op, kMatrix, CT, AT, ATrans>();
  if constexpr (kMatrix) {
    call.accum = core::mat_accum<CT>(accum);
    if constexpr (Op == core::IndexOp::kAssign) assign_m_driver<CT>(call);
    if constexpr (Op == core::IndexOp::kExtract) extract_m_driver<CT>(call);
    if constexpr (Op == core::IndexOp::kTranspose) {
      transpose_m_driver<CT>(call);
    }
  } else {
    call.accum = core::vec_accum<CT>(accum);
    if constexpr (Op == core::IndexOp::kAssign) assign_v_driver<CT>(call);
    if constexpr (Op == core::IndexOp::kExtract) extract_v_driver<CT>(call);
  }
}

}  // namespace detail

}  // namespace gbtl
