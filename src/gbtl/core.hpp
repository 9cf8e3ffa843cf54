// gbtl/core.hpp — the cores of every gbtl operation (mxm, mxv/vxm,
// eWiseAdd/eWiseMult, apply, reduce, assign, extract, transpose,
// kronecker) and the call blocks that carry them to the dtype-only
// drivers (gbtl/detail/drivers.hpp).
//
// Each op runs driver → core → driver:
//
//   * the DRIVER owns everything that depends only on dtypes: shape checks
//     and their exceptions, staging buffers and their governor charge, the
//     push/pull choice and the transpose cache, pool partitioning, and the
//     mask/replace commit into the output container;
//   * the CORE is the loops that call ⊕, ⊗, the unary op, the monoid or
//     the accumulator — or, for assign/extract/transpose, that move and
//     cast values between index positions — over row views of the LIL
//     matrix storage and bitmap views of the vector storage. The driver
//     calls a core once per row block, so the operators stay inlined
//     inside the core's loops and no call crosses the boundary per element.
//
// The drivers are instantiated once per dtype in libpygb and reach JIT
// modules through the DriverTable (PoolApi v5); a module instantiates only
// the cores its key needs (pygb/jit/thin.hpp). In-process gbtl::mxv and
// friends build the same call blocks and call the same drivers.
//
// This header is part of the light module header's include closure, so it
// may include only <cstddef> <cstdint> <type_traits> <utility> <limits>
// <vector> <algorithm> from the standard library (the header test in
// tests/pygb/test_header_hygiene.cpp enforces that).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "gbtl/algebra.hpp"
#include "gbtl/detail/pool_api.hpp"
#include "gbtl/detail/simd_kinds.hpp"
#include "gbtl/detail/spa.hpp"
#include "gbtl/index.hpp"

namespace gbtl {

struct OperandOps;  // gbtl/detail/drivers.hpp: per-dtype container access

namespace core {

/// One LIL row: sorted (column, value) entries.
template <typename T>
using Row = std::vector<std::pair<IndexType, T>>;

/// Staging slot for a result value. bool results are staged as bytes so
/// workers write disjoint slots of a plain array (std::vector<bool> packs
/// neighbouring rows into one word).
template <typename T>
using Slot = std::conditional_t<std::is_same_v<T, bool>, unsigned char, T>;

/// A matrix as the cores read it: its row array and shape.
struct MatView {
  const void* rows = nullptr;  ///< const Row<T>[nrows]
  IndexType nrows = 0;
  IndexType ncols = 0;
  std::size_t nvals = 0;

  template <typename T>
  const Row<T>& row(IndexType i) const {
    return static_cast<const Row<T>*>(rows)[i];
  }
};

/// A vector as the cores read it: presence bitmap plus full-length values.
struct VecView {
  const std::vector<bool>* bitmap = nullptr;
  const void* vals = nullptr;  ///< const std::vector<T>*
  IndexType size = 0;
  std::size_t nvals = 0;

  bool has(IndexType i) const { return (*bitmap)[i]; }
  template <typename T>
  const std::vector<T>& values() const {
    return *static_cast<const std::vector<T>*>(vals);
  }
  bool dense() const { return nvals == size; }
};

/// A boolean vector write mask (null bitmap: no mask).
struct VecMask {
  const std::vector<bool>* bitmap = nullptr;
  const std::vector<bool>* vals = nullptr;
  bool complement = false;

  bool operator()(IndexType i) const {
    return bitmap == nullptr || (((*bitmap)[i] && (*vals)[i]) != complement);
  }
};

/// A boolean matrix write mask (null rows: no mask).
struct MatMask {
  const Row<bool>* rows = nullptr;
  bool complement = false;

  bool operator()(IndexType i, IndexType j) const {
    if (rows == nullptr) return true;
    const Row<bool>& r = rows[i];
    auto pos = std::lower_bound(
        r.begin(), r.end(), j,
        [](const std::pair<IndexType, bool>& e, IndexType c) {
          return e.first < c;
        });
    const bool in = pos != r.end() && pos->first == j && pos->second;
    return in != complement;
  }
};

// ---------------------------------------------------------------------------
// Accumulator cores: fold the prior output into the staged result where
// both hold a value, t = accum(c, t). The driver's commit then writes t at
// masked-in positions and keeps c where t has nothing.
// ---------------------------------------------------------------------------

struct VecAccum {
  void (*fn)(const void* op, const VecView& c, const unsigned char* present,
             void* vals, IndexType begin, IndexType end) = nullptr;
  const void* op = nullptr;
};

struct MatAccum {
  void (*fn)(const void* op, const MatView& c, void* t_rows, IndexType begin,
             IndexType end) = nullptr;
  const void* op = nullptr;
};

template <typename CT, typename AccumT>
void accum_vector(const void* op, const VecView& c,
                  const unsigned char* present, void* vals, IndexType begin,
                  IndexType end) {
  const AccumT& accum = *static_cast<const AccumT*>(op);
  const std::vector<CT>& cv = c.values<CT>();
  Slot<CT>* tv = static_cast<Slot<CT>*>(vals);
  for (IndexType i = begin; i < end; ++i) {
    if (present[i] && c.has(i)) {
      tv[i] = static_cast<CT>(accum(static_cast<CT>(cv[i]),
                                    static_cast<CT>(tv[i])));
    }
  }
}

template <typename CT, typename AccumT>
void accum_matrix(const void* op, const MatView& c, void* t_rows,
                  IndexType begin, IndexType end) {
  const AccumT& accum = *static_cast<const AccumT*>(op);
  Row<CT>* trows = static_cast<Row<CT>*>(t_rows);
  for (IndexType i = begin; i < end; ++i) {
    const Row<CT>& crow = c.row<CT>(i);
    Row<CT>& trow = trows[i];
    auto ci = crow.begin();
    auto ti = trow.begin();
    while (ci != crow.end() && ti != trow.end()) {
      if (ci->first < ti->first) {
        ++ci;
      } else if (ti->first < ci->first) {
        ++ti;
      } else {
        ti->second = static_cast<CT>(accum(ci->second, ti->second));
        ++ci;
        ++ti;
      }
    }
  }
}

/// True when AccumT is the NoAccumulate tag rather than a binary op.
template <typename AccumT>
inline constexpr bool no_accum_v =
    std::is_same_v<std::remove_cvref_t<AccumT>, NoAccumulate>;

template <typename CT, typename AccumT>
VecAccum vec_accum(const AccumT& accum) {
  if constexpr (no_accum_v<AccumT>) {
    return {};
  } else {
    return {&accum_vector<CT, AccumT>, &accum};
  }
}

template <typename CT, typename AccumT>
MatAccum mat_accum(const AccumT& accum) {
  if constexpr (no_accum_v<AccumT>) {
    return {};
  } else {
    return {&accum_matrix<CT, AccumT>, &accum};
  }
}

// ---------------------------------------------------------------------------
// mxv / vxm. The pull core folds row i of the walked matrix against u's
// O(1) lookup; the push core scatters stored u(i) through row i. Flip
// swaps the multiply's operands (vxm).
// ---------------------------------------------------------------------------

struct MvState {
  MatView a;  ///< the matrix whose rows are walked (A, A's inner, or A^T)
  VecView u;
  VecMask mask;
  bool pushdown = false;  ///< skip masked-out positions (simd backend)
  bool dense_u = false;   ///< every u position stored: skip the probes
  unsigned char* present = nullptr;
  void* vals = nullptr;  ///< Slot<D3>[n]
  const void* sr = nullptr;
};

struct MvCore {
  void (*pull)(const MvState&, IndexType begin, IndexType end) = nullptr;
  void (*push)(const MvState&) = nullptr;
};

template <bool Flip, typename D3, typename AT, typename UT, typename SR>
void mv_pull(const MvState& s, IndexType begin, IndexType end) {
  const SR& sr = *static_cast<const SR*>(s.sr);
  const std::vector<UT>& uv = s.u.values<UT>();
  Slot<D3>* vals = static_cast<Slot<D3>*>(s.vals);
  auto mult = [&sr](const AT& av, const UT& x) {
    if constexpr (Flip) {
      return static_cast<D3>(sr.mult(x, av));
    } else {
      return static_cast<D3>(sr.mult(av, x));
    }
  };
  for (IndexType i = begin; i < end; ++i) {
    detail::pool_checkpoint();
    if (s.pushdown && !s.mask(i)) continue;
    const Row<AT>& row = s.a.row<AT>(i);
    bool found = false;
    D3 acc{};
    if (s.dense_u) {
      if (!row.empty()) {
        found = true;
        auto it = row.begin();
        acc = mult(it->second, uv[it->first]);
        for (++it; it != row.end(); ++it) {
          acc = sr.add(acc, mult(it->second, uv[it->first]));
        }
      }
    } else {
      for (const auto& [j, av] : row) {
        if (!s.u.has(j)) continue;
        const D3 prod = mult(av, uv[j]);
        acc = found ? sr.add(acc, prod) : prod;
        found = true;
      }
    }
    if (found) {
      s.present[i] = 1;
      vals[i] = acc;
    }
  }
}

template <bool Flip, typename D3, typename AT, typename UT, typename SR>
void mv_push(const MvState& s) {
  const SR& sr = *static_cast<const SR*>(s.sr);
  const std::vector<UT>& uv = s.u.values<UT>();
  Slot<D3>* vals = static_cast<Slot<D3>*>(s.vals);
  for (IndexType i = 0; i < s.a.nrows; ++i) {
    detail::pool_checkpoint();
    if (!s.u.has(i)) continue;
    const UT x = uv[i];
    for (const auto& [j, av] : s.a.row<AT>(i)) {
      if (s.pushdown && !s.mask(j)) continue;
      D3 prod;
      if constexpr (Flip) {
        prod = static_cast<D3>(sr.mult(x, av));
      } else {
        prod = static_cast<D3>(sr.mult(av, x));
      }
      if (s.present[j]) {
        vals[j] = sr.add(static_cast<D3>(vals[j]), prod);
      } else {
        s.present[j] = 1;
        vals[j] = prod;
      }
    }
  }
}

/// Cores for mxv (Flip=false: A is MatT, u is VecT) or vxm (Flip=true).
template <bool Flip, typename D3, typename MatT, typename VecT, typename SR>
constexpr MvCore mv_core() {
  return {&mv_pull<Flip, D3, MatT, VecT, SR>,
          &mv_push<Flip, D3, MatT, VecT, SR>};
}

// ---------------------------------------------------------------------------
// mxm. Gustavson row-at-a-time with an SPA (optionally L2-tiled and with
// plain-mask row skipping), and the dot kernels for A·B^T.
// ---------------------------------------------------------------------------

struct MxmState {
  MatView a;  ///< left operand, row-major
  MatView b;  ///< right operand (rows of B, or rows of B^T for the dots)
  MatMask mask;
  bool row_skip = false;  ///< skip rows whose plain mask row is all-out
  IndexType tile_cols = 0;
  void* out_rows = nullptr;  ///< Row<D3>[a.nrows]
  const void* sr = nullptr;
};

struct MxmCore {
  /// T = A·B (rows of A against rows of B).
  void (*gustavson)(const MxmState&, IndexType, IndexType) = nullptr;
  /// Gustavson with the operand types swapped: B·A for A^T·B^T.
  void (*gustavson_swapped)(const MxmState&, IndexType, IndexType) = nullptr;
  /// T = A·B^T at every position.
  void (*dot)(const MxmState&, IndexType, IndexType) = nullptr;
  /// T = A·B^T at the positions a plain matrix mask holds true.
  void (*dot_masked)(const MxmState&, IndexType, IndexType) = nullptr;
};

template <typename D3, typename AT, typename BT, typename SR>
void mxm_gustavson(const MxmState& s, IndexType begin, IndexType end) {
  const SR& sr = *static_cast<const SR*>(s.sr);
  Row<D3>* out_rows = static_cast<Row<D3>*>(s.out_rows);
  const IndexType ncols = s.b.ncols;
  const IndexType tile_cols = s.tile_cols;
  const bool tiled = tile_cols < ncols;
  detail::SparseAccumulator<D3> spa(ncols);
  auto add = [&sr](const D3& x, const D3& y) { return sr.add(x, y); };
  auto tile_lower = [](const Row<BT>& rb, IndexType col) {
    return std::lower_bound(
        rb.begin(), rb.end(), col,
        [](const auto& e, IndexType c) { return e.first < c; });
  };
  for (IndexType i = begin; i < end; ++i) {
    detail::pool_checkpoint();
    if (s.row_skip) {
      bool all_out = true;
      for (const auto& [j, v] : s.mask.rows[i]) {
        if (v) {
          all_out = false;
          break;
        }
      }
      if (all_out) continue;
    }
    const Row<AT>& ra = s.a.row<AT>(i);
    if (ra.empty()) continue;
    if (!tiled) {
      for (const auto& [k, av] : ra) {
        for (const auto& [j, bv] : s.b.row<BT>(k)) {
          spa.accumulate(j, static_cast<D3>(sr.mult(av, bv)), add);
        }
      }
      if (spa.touched_count() != 0) spa.extract_sorted_and_reset(out_rows[i]);
    } else {
      Row<D3>& out = out_rows[i];
      for (IndexType t0 = 0; t0 < ncols; t0 += tile_cols) {
        const IndexType t1 = t0 + tile_cols < ncols ? t0 + tile_cols : ncols;
        for (const auto& [k, av] : ra) {
          const Row<BT>& rb = s.b.row<BT>(k);
          for (auto it = tile_lower(rb, t0); it != rb.end() && it->first < t1;
               ++it) {
            spa.accumulate(it->first,
                           static_cast<D3>(sr.mult(av, it->second)), add);
          }
        }
        if (spa.touched_count() != 0) spa.extract_sorted_append(out);
      }
    }
  }
}

/// Sorted-intersection dot product of two rows under a semiring.
/// Returns (found, value).
template <typename D3, typename AT, typename BT, typename SR>
std::pair<bool, D3> row_dot(const SR& sr, const Row<AT>& ra,
                            const Row<BT>& rb) {
  bool found = false;
  D3 acc{};
  auto ia = ra.begin();
  auto ib = rb.begin();
  while (ia != ra.end() && ib != rb.end()) {
    if (ia->first < ib->first) {
      ++ia;
    } else if (ib->first < ia->first) {
      ++ib;
    } else {
      const D3 prod = static_cast<D3>(sr.mult(ia->second, ib->second));
      acc = found ? sr.add(acc, prod) : prod;
      found = true;
      ++ia;
      ++ib;
    }
  }
  return {found, acc};
}

template <typename D3, typename AT, typename BT, typename SR>
void mxm_dot(const MxmState& s, IndexType begin, IndexType end) {
  const SR& sr = *static_cast<const SR*>(s.sr);
  Row<D3>* out_rows = static_cast<Row<D3>*>(s.out_rows);
  for (IndexType i = begin; i < end; ++i) {
    detail::pool_checkpoint();
    const Row<AT>& ra = s.a.row<AT>(i);
    if (ra.empty()) continue;
    for (IndexType j = 0; j < s.b.nrows; ++j) {
      auto [found, val] = row_dot<D3>(sr, ra, s.b.row<BT>(j));
      if (found) out_rows[i].emplace_back(j, val);
    }
  }
}

template <typename D3, typename AT, typename BT, typename SR>
void mxm_dot_masked(const MxmState& s, IndexType begin, IndexType end) {
  const SR& sr = *static_cast<const SR*>(s.sr);
  Row<D3>* out_rows = static_cast<Row<D3>*>(s.out_rows);
  for (IndexType i = begin; i < end; ++i) {
    detail::pool_checkpoint();
    const Row<AT>& ra = s.a.row<AT>(i);
    if (ra.empty()) continue;
    for (const auto& [j, mv] : s.mask.rows[i]) {
      if (!mv) continue;
      auto [found, val] = row_dot<D3>(sr, ra, s.b.row<BT>(j));
      if (found) out_rows[i].emplace_back(j, val);
    }
  }
}

/// The cores an mxm with these transposes and mask kind can reach.
template <typename D3, typename AT, typename BT, typename SR, bool ATrans,
          bool BTrans, bool PlainMatrixMask>
constexpr MxmCore mxm_core() {
  MxmCore core;
  if constexpr (ATrans && BTrans) {
    core.gustavson_swapped = &mxm_gustavson<D3, BT, AT, SR>;
  } else if constexpr (BTrans) {
    if constexpr (PlainMatrixMask) {
      core.dot_masked = &mxm_dot_masked<D3, AT, BT, SR>;
    } else {
      core.dot = &mxm_dot<D3, AT, BT, SR>;
    }
  } else {
    core.gustavson = &mxm_gustavson<D3, AT, BT, SR>;
  }
  return core;
}

// ---------------------------------------------------------------------------
// eWiseAdd / eWiseMult: per-row sorted merges (matrices), per-position
// probes (vectors).
// ---------------------------------------------------------------------------

struct EwMState {
  MatView a;
  MatView b;
  void* out_rows = nullptr;  ///< Row<D3>[a.nrows]
  const void* op = nullptr;
};

struct EwMCore {
  void (*rows)(const EwMState&, IndexType, IndexType) = nullptr;
};

struct EwVState {
  VecView a;
  VecView b;
  unsigned char* present = nullptr;
  void* vals = nullptr;  ///< Slot<D3>[n]
  const void* op = nullptr;
};

struct EwVCore {
  void (*range)(const EwVState&, IndexType, IndexType) = nullptr;
  /// AVX2 loop the driver may run when both inputs are fully dense (all
  /// three dtypes equal, float/double, a vectorizable op); kNone if not.
  detail::VecBin vec_kind = detail::VecBin::kNone;
};

template <bool IsAdd, typename D3, typename AT, typename BT, typename Op>
void ewise_rows(const EwMState& s, IndexType begin, IndexType end) {
  const Op& op = *static_cast<const Op*>(s.op);
  Row<D3>* out_rows = static_cast<Row<D3>*>(s.out_rows);
  for (IndexType i = begin; i < end; ++i) {
    detail::pool_checkpoint();
    const Row<AT>& ra = s.a.row<AT>(i);
    const Row<BT>& rb = s.b.row<BT>(i);
    auto& out = out_rows[i];
    auto ia = ra.begin();
    auto ib = rb.begin();
    if constexpr (IsAdd) {
      if (ra.empty() && rb.empty()) continue;
      out.reserve(ra.size() + rb.size());
      while (ia != ra.end() || ib != rb.end()) {
        if (ib == rb.end() || (ia != ra.end() && ia->first < ib->first)) {
          out.emplace_back(ia->first, static_cast<D3>(ia->second));
          ++ia;
        } else if (ia == ra.end() || ib->first < ia->first) {
          out.emplace_back(ib->first, static_cast<D3>(ib->second));
          ++ib;
        } else {
          out.emplace_back(ia->first,
                           static_cast<D3>(op(ia->second, ib->second)));
          ++ia;
          ++ib;
        }
      }
    } else {
      if (ra.empty() || rb.empty()) continue;
      while (ia != ra.end() && ib != rb.end()) {
        if (ia->first < ib->first) {
          ++ia;
        } else if (ib->first < ia->first) {
          ++ib;
        } else {
          out.emplace_back(ia->first,
                           static_cast<D3>(op(ia->second, ib->second)));
          ++ia;
          ++ib;
        }
      }
    }
  }
}

template <bool IsAdd, typename D3, typename AT, typename BT, typename Op>
void ewise_range(const EwVState& s, IndexType begin, IndexType end) {
  const Op& op = *static_cast<const Op*>(s.op);
  const std::vector<AT>& av = s.a.values<AT>();
  const std::vector<BT>& bv = s.b.values<BT>();
  Slot<D3>* vals = static_cast<Slot<D3>*>(s.vals);
  for (IndexType i = begin; i < end; ++i) {
    const bool ha = s.a.has(i);
    const bool hb = s.b.has(i);
    if (ha && hb) {
      s.present[i] = 1;
      vals[i] = static_cast<D3>(op(av[i], bv[i]));
    } else if constexpr (IsAdd) {
      if (ha) {
        s.present[i] = 1;
        vals[i] = static_cast<D3>(av[i]);
      } else if (hb) {
        s.present[i] = 1;
        vals[i] = static_cast<D3>(bv[i]);
      }
    }
  }
}

template <bool IsAdd, typename D3, typename AT, typename BT, typename Op>
constexpr EwMCore ewise_m_core() {
  return {&ewise_rows<IsAdd, D3, AT, BT, Op>};
}

template <bool IsAdd, typename D3, typename AT, typename BT, typename Op>
constexpr EwVCore ewise_v_core() {
  EwVCore core{&ewise_range<IsAdd, D3, AT, BT, Op>};
  if constexpr (std::is_same_v<AT, BT> && std::is_same_v<AT, D3> &&
                detail::vec_dtype_v<D3>) {
    core.vec_kind = detail::VecBinOf<Op, D3>::kind;
  }
  return core;
}

// ---------------------------------------------------------------------------
// apply: map every stored value through f.
// ---------------------------------------------------------------------------

struct ApMState {
  MatView a;
  void* out_rows = nullptr;  ///< Row<D3>[a.nrows]
  const void* f = nullptr;
};

struct ApMCore {
  void (*rows)(const ApMState&, IndexType, IndexType) = nullptr;
  /// C = f(C) over C's own rows (AT == CT only); null otherwise.
  void (*in_place)(const void* f, void* rows, IndexType nrows) = nullptr;
  /// f is Identity<T, T>: the result is a verbatim copy of A.
  bool identity_copy = false;
};

struct ApVState {
  VecView a;
  unsigned char* present = nullptr;
  void* vals = nullptr;  ///< Slot<D3>[n]
  const void* f = nullptr;
};

struct ApVCore {
  void (*range)(const ApVState&, IndexType, IndexType) = nullptr;
  /// AVX2 loop for a fully dense same-dtype input; kNone if f has none.
  detail::VecUn vec_kind = detail::VecUn::kNone;
  double vec_bound = 0.0;  ///< f's bound scalar for the AVX2 loop
};

template <typename D3, typename AT, typename F>
void apply_rows(const ApMState& s, IndexType begin, IndexType end) {
  const F& f = *static_cast<const F*>(s.f);
  Row<D3>* out_rows = static_cast<Row<D3>*>(s.out_rows);
  for (IndexType i = begin; i < end; ++i) {
    detail::pool_checkpoint();
    const Row<AT>& ra = s.a.row<AT>(i);
    if (ra.empty()) continue;
    auto& out = out_rows[i];
    out.reserve(ra.size());
    for (const auto& [j, v] : ra) out.emplace_back(j, static_cast<D3>(f(v)));
  }
}

template <typename CT, typename F>
void apply_in_place(const void* fp, void* rows, IndexType nrows) {
  const F& f = *static_cast<const F*>(fp);
  Row<CT>* r = static_cast<Row<CT>*>(rows);
  for (IndexType i = 0; i < nrows; ++i) {
    detail::pool_checkpoint();
    for (auto& [j, v] : r[i]) v = static_cast<CT>(f(v));
  }
}

template <typename D3, typename AT, typename F>
void apply_range(const ApVState& s, IndexType begin, IndexType end) {
  const F& f = *static_cast<const F*>(s.f);
  const std::vector<AT>& av = s.a.values<AT>();
  Slot<D3>* vals = static_cast<Slot<D3>*>(s.vals);
  for (IndexType i = begin; i < end; ++i) {
    if (s.a.has(i)) {
      s.present[i] = 1;
      vals[i] = static_cast<D3>(f(av[i]));
    }
  }
}

template <typename D3, typename AT, typename F>
constexpr ApMCore apply_m_core() {
  ApMCore core{&apply_rows<D3, AT, F>};
  if constexpr (std::is_same_v<AT, D3>) {
    core.in_place = &apply_in_place<D3, F>;
    core.identity_copy = std::is_same_v<F, Identity<AT, D3>>;
  }
  return core;
}

template <typename D3, typename AT, typename F>
ApVCore apply_v_core(const F& f) {
  ApVCore core{&apply_range<D3, AT, F>};
  if constexpr (std::is_same_v<AT, D3> && detail::vec_dtype_v<D3>) {
    core.vec_kind = detail::VecUnOf<F, D3>::kind;
    core.vec_bound = static_cast<double>(detail::VecUnOf<F, D3>::bound(f));
  }
  return core;
}

// ---------------------------------------------------------------------------
// reduce. Workers fold fixed partials (one per matrix row, one per
// kScalarReduceTile-sized vector tile); finish() combines them left to
// right and applies the accumulator, so scalar results do not depend on
// the partition.
// ---------------------------------------------------------------------------

/// Tile width for vector → scalar reductions: partials are folded per tile
/// so the combine order is a function of the vector length alone.
inline constexpr IndexType kScalarReduceTile = 1024;

struct RedMState {
  MatView a;
  unsigned char* present = nullptr;
  void* vals = nullptr;  ///< Slot<OutT>[a.nrows]
  const void* monoid = nullptr;
};

struct RedVState {
  VecView u;
  bool dense = false;  ///< every position stored: fold vals directly
  unsigned char* present = nullptr;
  void* partial = nullptr;  ///< Slot<D3>[tiles]
  const void* monoid = nullptr;
};

struct ReduceCore {
  /// Row folds of a matrix, stored as OutT (m→v output or m→s partials).
  void (*rows)(const RedMState&, IndexType, IndexType) = nullptr;
  /// Tile folds of a vector (v→s partials).
  void (*tiles)(const RedVState&, IndexType, IndexType) = nullptr;
  /// Fold n partials left to right from the identity and accumulate the
  /// result into *val (a ValueT).
  void (*finish)(const void* monoid, const void* accum,
                 const unsigned char* present, const void* partial,
                 IndexType n, void* val) = nullptr;
};

template <typename OutT, typename AT, typename Monoid>
void reduce_rows(const RedMState& s, IndexType begin, IndexType end) {
  using D3 = typename Monoid::ScalarType;
  const Monoid& monoid = *static_cast<const Monoid*>(s.monoid);
  Slot<OutT>* vals = static_cast<Slot<OutT>*>(s.vals);
  for (IndexType i = begin; i < end; ++i) {
    detail::pool_checkpoint();
    const Row<AT>& row = s.a.row<AT>(i);
    if (row.empty()) continue;
    D3 acc = static_cast<D3>(row.front().second);
    for (auto it = row.begin() + 1; it != row.end(); ++it) {
      acc = monoid(acc, static_cast<D3>(it->second));
    }
    s.present[i] = 1;
    vals[i] = static_cast<OutT>(acc);
  }
}

template <typename UT, typename Monoid>
void reduce_tiles(const RedVState& s, IndexType begin, IndexType end) {
  using D3 = typename Monoid::ScalarType;
  const Monoid& monoid = *static_cast<const Monoid*>(s.monoid);
  const std::vector<UT>& uv = s.u.values<UT>();
  Slot<D3>* partial = static_cast<Slot<D3>*>(s.partial);
  for (IndexType tile = begin; tile < end; ++tile) {
    detail::pool_checkpoint();
    const IndexType lo = tile * kScalarReduceTile;
    const IndexType hi = std::min(s.u.size, lo + kScalarReduceTile);
    if (s.dense) {
      D3 tile_acc = static_cast<D3>(uv[lo]);
      for (IndexType i = lo + 1; i < hi; ++i) {
        tile_acc = monoid(tile_acc, static_cast<D3>(uv[i]));
      }
      s.present[tile] = 1;
      partial[tile] = tile_acc;
      continue;
    }
    bool found = false;
    D3 tile_acc{};
    for (IndexType i = lo; i < hi; ++i) {
      if (!s.u.has(i)) continue;
      const D3 v = static_cast<D3>(uv[i]);
      tile_acc = found ? monoid(tile_acc, v) : v;
      found = true;
    }
    if (found) {
      s.present[tile] = 1;
      partial[tile] = tile_acc;
    }
  }
}

template <typename ValueT, typename Monoid, typename AccumT>
void reduce_finish(const void* monoid_p, const void* accum_p,
                   const unsigned char* present, const void* partial_p,
                   IndexType n, void* val_p) {
  using D3 = typename Monoid::ScalarType;
  const Monoid& monoid = *static_cast<const Monoid*>(monoid_p);
  const Slot<D3>* partial = static_cast<const Slot<D3>*>(partial_p);
  ValueT& val = *static_cast<ValueT*>(val_p);
  D3 acc = Monoid::identity();
  for (IndexType i = 0; i < n; ++i) {
    if (present[i]) acc = monoid(acc, static_cast<D3>(partial[i]));
  }
  if constexpr (no_accum_v<AccumT>) {
    (void)accum_p;
    val = static_cast<ValueT>(acc);
  } else {
    const AccumT& accum = *static_cast<const AccumT*>(accum_p);
    val = static_cast<ValueT>(accum(val, acc));
  }
}

/// m→v: rows stored as the output dtype.
template <typename WT, typename AT, typename Monoid>
constexpr ReduceCore reduce_m_v_core() {
  return {&reduce_rows<WT, AT, Monoid>, nullptr, nullptr};
}

/// m→s: row partials in the monoid's dtype, then finish.
template <typename ValueT, typename AT, typename Monoid, typename AccumT>
constexpr ReduceCore reduce_m_s_core() {
  return {&reduce_rows<typename Monoid::ScalarType, AT, Monoid>, nullptr,
          &reduce_finish<ValueT, Monoid, AccumT>};
}

/// v→s: tile partials, then finish.
template <typename ValueT, typename UT, typename Monoid, typename AccumT>
constexpr ReduceCore reduce_v_s_core() {
  return {nullptr, &reduce_tiles<UT, Monoid>,
          &reduce_finish<ValueT, Monoid, AccumT>};
}

// ---------------------------------------------------------------------------
// assign / extract / transpose: cast/index cores, one per (CT, AT). They
// carry no operator (the accumulator is the driver's accum core), so they
// only move source values to their output positions and cast them.
// ---------------------------------------------------------------------------

/// An index list I, or the identity over [0, dim) for AllIndices (null).
struct IndexMap {
  const IndexArray* idx = nullptr;
  IndexType dim = 0;

  IndexType size() const { return idx != nullptr ? idx->size() : dim; }
  IndexType operator[](IndexType k) const {
    return idx != nullptr ? (*idx)[k] : k;
  }
};

struct IndexState {
  MatView a;      ///< matrix source
  VecView u;      ///< vector source
  IndexMap rows;  ///< I: the output rows (assign) or source rows (extract)
  IndexMap cols;  ///< J, likewise
  /// extract with an explicit J: source column j feeds output columns
  /// col_out[col_start[j] .. col_start[j + 1]).
  const IndexType* col_start = nullptr;
  const IndexType* col_out = nullptr;
  unsigned char* present = nullptr;  ///< vector staging
  void* vals = nullptr;              ///< Slot<CT>[n]
  void* out_rows = nullptr;          ///< matrix staging, Row<CT>[...]
};

using IndexFn = void (*)(const IndexState&, IndexType begin, IndexType end);

/// extract, vector: t(k) = u(I[k]) for k in [begin, end).
template <typename CT, typename AT>
void gather_v(const IndexState& s, IndexType begin, IndexType end) {
  const std::vector<AT>& uv = s.u.values<AT>();
  Slot<CT>* vals = static_cast<Slot<CT>*>(s.vals);
  for (IndexType k = begin; k < end; ++k) {
    const IndexType i = s.rows[k];
    if (s.u.has(i)) {
      s.present[k] = 1;
      vals[k] = static_cast<CT>(uv[i]);
    }
  }
}

/// assign, vector: t(I[k]) = u(k), or no value where u has none. Run over
/// the whole of u at once: a repeated index takes its last occurrence.
template <typename CT, typename AT>
void scatter_v(const IndexState& s, IndexType begin, IndexType end) {
  const std::vector<AT>& uv = s.u.values<AT>();
  Slot<CT>* vals = static_cast<Slot<CT>*>(s.vals);
  for (IndexType k = begin; k < end; ++k) {
    const IndexType i = s.rows[k];
    s.present[i] = s.u.has(k);
    if (s.u.has(k)) vals[i] = static_cast<CT>(uv[k]);
  }
}

struct ColumnLess {
  template <typename E>
  bool operator()(const E& x, const E& y) const {
    return x.first < y.first;
  }
};

/// extract, matrix: output row k is source row I[k] restricted to J and
/// renumbered (a cast copy of A's rows when I and J are both all).
template <typename CT, typename AT>
void gather_rows(const IndexState& s, IndexType begin, IndexType end) {
  Row<CT>* out_rows = static_cast<Row<CT>*>(s.out_rows);
  for (IndexType k = begin; k < end; ++k) {
    detail::pool_checkpoint();
    const Row<AT>& src = s.a.row<AT>(s.rows[k]);
    if (src.empty()) continue;
    Row<CT>& out = out_rows[k];
    if (s.col_start == nullptr) {
      out.reserve(src.size());
      for (const auto& [j, v] : src) out.emplace_back(j, static_cast<CT>(v));
      continue;
    }
    for (const auto& [j, v] : src) {
      for (IndexType p = s.col_start[j]; p < s.col_start[j + 1]; ++p) {
        out.emplace_back(s.col_out[p], static_cast<CT>(v));
      }
    }
    std::sort(out.begin(), out.end(), ColumnLess{});
  }
}

/// assign, matrix: row k of A lands in output row I[k] at columns J. Run
/// over the whole of A at once: a repeated row or column index takes its
/// last occurrence.
template <typename CT, typename AT>
void scatter_rows(const IndexState& s, IndexType begin, IndexType end) {
  Row<CT>* out_rows = static_cast<Row<CT>*>(s.out_rows);
  for (IndexType k = begin; k < end; ++k) {
    detail::pool_checkpoint();
    Row<CT>& out = out_rows[s.rows[k]];
    out.clear();
    for (const auto& [j, v] : s.a.row<AT>(k)) {
      out.emplace_back(s.cols[j], static_cast<CT>(v));
    }
    if (s.cols.idx == nullptr) continue;
    std::stable_sort(out.begin(), out.end(), ColumnLess{});
    // Keep the last of equal columns.
    auto kept = out.begin();
    for (auto it = out.begin(); it != out.end(); ++it) {
      if (it + 1 != out.end() && (it + 1)->first == it->first) continue;
      *kept++ = *it;
    }
    out.erase(kept, out.end());
  }
}

/// transpose: scatter every stored A(i, j) into output row j. Run over the
/// whole of A at once, so each output row fills in ascending i.
template <typename CT, typename AT>
void flip_rows(const IndexState& s, IndexType begin, IndexType end) {
  Row<CT>* out_rows = static_cast<Row<CT>*>(s.out_rows);
  for (IndexType i = begin; i < end; ++i) {
    detail::pool_checkpoint();
    for (const auto& [j, v] : s.a.row<AT>(i)) {
      out_rows[j].emplace_back(i, static_cast<CT>(v));
    }
  }
}

enum class IndexOp { kAssign, kExtract, kTranspose };

/// The core of an index op into a vector or a matrix. A transpose of a
/// transposed input (the two cancel) is a cast copy.
template <IndexOp Op, bool Matrix, typename CT, typename AT, bool ATrans>
constexpr IndexFn index_core() {
  if constexpr (!Matrix) {
    return Op == IndexOp::kAssign ? &scatter_v<CT, AT> : &gather_v<CT, AT>;
  } else if constexpr (Op == IndexOp::kAssign) {
    return &scatter_rows<CT, AT>;
  } else {
    return Op == IndexOp::kTranspose && !ATrans ? &flip_rows<CT, AT>
                                                : &gather_rows<CT, AT>;
  }
}

// ---------------------------------------------------------------------------
// kronecker (in-process only; eWise's matrix state and call block): output
// row ia*nb + ib is the ⊗ of rows A(ia, :) and B(ib, :).
// ---------------------------------------------------------------------------

template <typename D3, typename AT, typename BT, typename Op>
void kron_rows(const EwMState& s, IndexType begin, IndexType end) {
  const Op& op = *static_cast<const Op*>(s.op);
  Row<D3>* out_rows = static_cast<Row<D3>*>(s.out_rows);
  for (IndexType i = begin; i < end; ++i) {
    detail::pool_checkpoint();
    const Row<AT>& ra = s.a.row<AT>(i / s.b.nrows);
    const Row<BT>& rb = s.b.row<BT>(i % s.b.nrows);
    if (ra.empty() || rb.empty()) continue;
    Row<D3>& out = out_rows[i];
    out.reserve(ra.size() * rb.size());
    // ja ascending, jb ascending: output columns come out sorted.
    for (const auto& [ja, av] : ra) {
      for (const auto& [jb, bv] : rb) {
        out.emplace_back(ja * s.b.ncols + jb, static_cast<D3>(op(av, bv)));
      }
    }
  }
}

}  // namespace core

// ---------------------------------------------------------------------------
// Call blocks: one per op, passed from the caller (in-process gbtl::*,
// a static entry, or a JIT module) to the dtype-only driver.
// ---------------------------------------------------------------------------

/// A write-mask operand: a Matrix<bool> or Vector<bool> (null: no mask).
struct MaskArg {
  const void* m = nullptr;
  bool complement = false;
};

/// Backend the driver runs: the calling thread's active backend (host
/// callers) or the one a JIT module was keyed under.
enum class CallBackend : signed char { kActive = -1, kScalar = 0, kSimd = 1 };

struct MxvCall {
  void* w = nullptr;  ///< Vector<CT>
  const void* a = nullptr;  ///< the matrix operand (either side for vxm)
  const OperandOps* a_ops = nullptr;
  const void* u = nullptr;  ///< the vector operand
  const OperandOps* u_ops = nullptr;
  MaskArg mask;
  bool a_transposed = false;
  bool vxm = false;
  bool replace = false;
  CallBackend backend = CallBackend::kActive;
  const void* sr = nullptr;
  core::MvCore core;
  core::VecAccum accum;
};

struct MxmCall {
  void* c = nullptr;  ///< Matrix<CT>
  const void* a = nullptr;
  const OperandOps* a_ops = nullptr;
  const void* b = nullptr;
  const OperandOps* b_ops = nullptr;
  MaskArg mask;
  bool a_transposed = false;
  bool b_transposed = false;
  bool replace = false;
  CallBackend backend = CallBackend::kActive;
  const void* sr = nullptr;
  core::MxmCore core;
  core::MatAccum accum;
};

struct EwiseMCall {
  void* c = nullptr;  ///< Matrix<CT>
  const void* a = nullptr;
  const OperandOps* a_ops = nullptr;
  const void* b = nullptr;
  const OperandOps* b_ops = nullptr;
  MaskArg mask;
  bool a_transposed = false;
  bool b_transposed = false;
  bool replace = false;
  bool kron = false;  ///< a Kronecker product (in-process only)
  CallBackend backend = CallBackend::kActive;
  const void* op = nullptr;
  core::EwMCore core;
  core::MatAccum accum;
};

struct EwiseVCall {
  void* w = nullptr;  ///< Vector<CT>
  const void* a = nullptr;
  const OperandOps* a_ops = nullptr;
  const void* b = nullptr;
  const OperandOps* b_ops = nullptr;
  MaskArg mask;
  bool is_add = true;
  bool replace = false;
  CallBackend backend = CallBackend::kActive;
  const void* op = nullptr;
  core::EwVCore core;
  core::VecAccum accum;
};

struct ApplyMCall {
  void* c = nullptr;  ///< Matrix<CT>
  const void* a = nullptr;
  const OperandOps* a_ops = nullptr;
  MaskArg mask;
  bool a_transposed = false;
  bool replace = false;
  CallBackend backend = CallBackend::kActive;
  const void* f = nullptr;
  core::ApMCore core;
  core::MatAccum accum;
};

struct ApplyVCall {
  void* w = nullptr;  ///< Vector<CT>
  const void* a = nullptr;
  const OperandOps* a_ops = nullptr;
  MaskArg mask;
  bool replace = false;
  CallBackend backend = CallBackend::kActive;
  const void* f = nullptr;
  core::ApVCore core;
  core::VecAccum accum;
};

struct ReduceMVCall {
  void* w = nullptr;  ///< Vector<CT>
  const void* a = nullptr;
  const OperandOps* a_ops = nullptr;
  MaskArg mask;
  bool a_transposed = false;
  bool replace = false;
  const void* monoid = nullptr;
  core::ReduceCore core;
  core::VecAccum accum;
};

struct ReduceSCall {
  void* val = nullptr;  ///< the scalar (ValueT) to write or accumulate into
  const void* a = nullptr;  ///< Matrix (reduce_m_s) or Vector (reduce_v_s)
  const OperandOps* a_ops = nullptr;
  bool a_transposed = false;
  CallBackend backend = CallBackend::kActive;
  const void* monoid = nullptr;
  const void* accum = nullptr;
  core::ReduceCore core;
};

/// assign / extract / transpose, into a vector (IndexVCall) or a matrix
/// (IndexMCall). For a constant assign, a is null and `scalar` points at
/// the CT value.
template <typename Accum>
struct IndexCall {
  void* c = nullptr;  ///< Vector<CT> or Matrix<CT>
  const void* a = nullptr;
  const OperandOps* a_ops = nullptr;
  const void* scalar = nullptr;
  const IndexArray* rows = nullptr;  ///< I (null: all)
  const IndexArray* cols = nullptr;  ///< J (null: all; matrices only)
  MaskArg mask;
  bool a_transposed = false;  ///< transpose only
  bool replace = false;
  core::IndexFn core = nullptr;
  Accum accum;
};
using IndexVCall = IndexCall<core::VecAccum>;
using IndexMCall = IndexCall<core::MatAccum>;

/// Element-type slot of a GraphBLAS dtype in the DriverTable (the order of
/// pygb::DType).
template <typename T>
constexpr int elem_index() {
  if constexpr (std::is_same_v<T, bool>) return 0;
  else if constexpr (std::is_same_v<T, std::int8_t>) return 1;
  else if constexpr (std::is_same_v<T, std::int16_t>) return 2;
  else if constexpr (std::is_same_v<T, std::int32_t>) return 3;
  else if constexpr (std::is_same_v<T, std::int64_t>) return 4;
  else if constexpr (std::is_same_v<T, std::uint8_t>) return 5;
  else if constexpr (std::is_same_v<T, std::uint16_t>) return 6;
  else if constexpr (std::is_same_v<T, std::uint32_t>) return 7;
  else if constexpr (std::is_same_v<T, std::uint64_t>) return 8;
  else if constexpr (std::is_same_v<T, float>) return 9;
  else if constexpr (std::is_same_v<T, double>) return 10;
  else static_assert(!sizeof(T*), "type is not a GraphBLAS POD type");
}

inline constexpr int kNumElemTypes = 11;

/// The dtype-only drivers, one per output (or staging) dtype, plus the
/// per-dtype container access they need. Constant data in libpygb
/// (gbtl/detail/drivers.cpp); append-only — a new member goes last and
/// bumps kDriverTableVersion.
struct DriverTable {
  unsigned version;
  const OperandOps* operands[kNumElemTypes];
  void (*mxv[kNumElemTypes])(const MxvCall&);
  void (*mxm[kNumElemTypes])(const MxmCall&);
  void (*ewise_m[kNumElemTypes])(const EwiseMCall&);
  void (*ewise_v[kNumElemTypes])(const EwiseVCall&);
  void (*apply_m[kNumElemTypes])(const ApplyMCall&);
  void (*apply_v[kNumElemTypes])(const ApplyVCall&);
  void (*reduce_m_v[kNumElemTypes])(const ReduceMVCall&);
  void (*reduce_m_s[kNumElemTypes])(const ReduceSCall&);
  void (*reduce_v_s[kNumElemTypes])(const ReduceSCall&);
  void (*assign_v[kNumElemTypes])(const IndexVCall&);
  void (*extract_v[kNumElemTypes])(const IndexVCall&);
  void (*assign_m[kNumElemTypes])(const IndexMCall&);
  void (*extract_m[kNumElemTypes])(const IndexMCall&);
  void (*transpose_m[kNumElemTypes])(const IndexMCall&);
};

inline constexpr unsigned kDriverTableVersion = 2;

#if defined(GBTL_POOL_LINKED)
/// The host's table (gbtl/detail/drivers.cpp).
const DriverTable& host_driver_table() noexcept;
#endif

}  // namespace gbtl
