// gbtl/detail/write_backend.hpp — the one place that implements the
// GraphBLAS output-write discipline shared by every operation:
//
//   T = op(inputs)                      (computed by the caller)
//   Z = accum ? (C (+) T) : T          (union-merge; accum where both exist)
//   C = mask/replace merge of Z into C (true: take Z; false: keep or clear)
//
// Centralizing this logic keeps each kernel focused on producing T and
// guarantees identical mask/accumulate/replace behaviour across operations.
#pragma once

#include <type_traits>
#include <utility>
#include <vector>

#include "gbtl/core.hpp"
#include "gbtl/matrix.hpp"
#include "gbtl/types.hpp"
#include "gbtl/vector.hpp"
#include "gbtl/views.hpp"

namespace gbtl::detail {

using core::no_accum_v;

/// Merge the computed result T into the output matrix C under mask M with
/// accumulator `accum` and the given output control. T must have the same
/// shape as C. T's scalar type is cast into C's on write.
template <typename CT, typename TT, typename MaskT, typename AccumT>
void write_matrix_result(Matrix<CT>& c, const Matrix<TT>& t, const MaskT& m,
                         AccumT accum, OutputControl outp) {
  check_mask_shape(m, c);
  if (t.nrows() != c.nrows() || t.ncols() != c.ncols()) {
    throw DimensionException("internal: result shape mismatch");
  }

  using CRow = typename Matrix<CT>::Row;
  for (IndexType i = 0; i < c.nrows(); ++i) {
    const auto& crow = c.row(i);
    const auto& trow = t.row(i);
    CRow out;
    out.reserve(crow.size() + trow.size());

    auto ci = crow.begin();
    auto ti = trow.begin();
    // Walk the union of stored positions in C and T (sorted two-pointer
    // merge); positions stored in neither need no action under any mode.
    while (ci != crow.end() || ti != trow.end()) {
      IndexType j;
      bool has_c = false, has_t = false;
      CT cv{};
      TT tv{};
      if (ti == trow.end() || (ci != crow.end() && ci->first < ti->first)) {
        j = ci->first;
        cv = ci->second;
        has_c = true;
        ++ci;
      } else if (ci == crow.end() || ti->first < ci->first) {
        j = ti->first;
        tv = ti->second;
        has_t = true;
        ++ti;
      } else {
        j = ci->first;
        cv = ci->second;
        tv = ti->second;
        has_c = has_t = true;
        ++ci;
        ++ti;
      }

      const bool masked_in = mask_value(m, i, j);
      if (!masked_in) {
        // Outside the mask: merge keeps the old value, replace drops it.
        if (has_c && outp == OutputControl::kMerge) out.emplace_back(j, cv);
        continue;
      }
      if constexpr (no_accum_v<AccumT>) {
        // No accumulator: masked-in positions take exactly T's structure.
        if (has_t) out.emplace_back(j, static_cast<CT>(tv));
      } else {
        if (has_c && has_t) {
          out.emplace_back(j, static_cast<CT>(accum(cv, tv)));
        } else if (has_t) {
          out.emplace_back(j, static_cast<CT>(tv));
        } else {
          out.emplace_back(j, cv);  // accumulate keeps prior output values
        }
      }
    }
    c.setRow(i, std::move(out));
  }
}

/// Vector counterpart of write_matrix_result.
template <typename CT, typename TT, typename MaskT, typename AccumT>
void write_vector_result(Vector<CT>& c, const Vector<TT>& t, const MaskT& m,
                         AccumT accum, OutputControl outp) {
  check_vec_mask_shape(m, c);
  if (t.size() != c.size()) {
    throw DimensionException("internal: result size mismatch");
  }

  for (IndexType i = 0; i < c.size(); ++i) {
    const bool has_c = c.has_unchecked(i);
    const bool has_t = t.has_unchecked(i);
    if (!has_c && !has_t) continue;

    const bool masked_in = mask_value(m, i);
    if (!masked_in) {
      if (has_c && outp == OutputControl::kReplace) c.removeElement(i);
      continue;
    }
    if constexpr (no_accum_v<AccumT>) {
      if (has_t) {
        c.set_unchecked(i, static_cast<CT>(t.value_unchecked(i)));
      } else {
        c.removeElement(i);
      }
    } else {
      if (has_c && has_t) {
        c.set_unchecked(i, static_cast<CT>(accum(c.value_unchecked(i),
                                                 t.value_unchecked(i))));
      } else if (has_t) {
        c.set_unchecked(i, static_cast<CT>(t.value_unchecked(i)));
      }
      // has_c only: accumulate keeps the prior value — nothing to do.
    }
  }
}

// ---------------------------------------------------------------------------
// The same discipline for the driver/core ops (gbtl/core.hpp), committing
// a staged result. The accumulator core has already folded C into T where
// both hold a value, so `keep_prior` (an accumulator is present) only says
// whether masked-in positions without a T value keep C's value.
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
        // Outside the mask: merge keeps the old value, replace drops it.
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

}  // namespace gbtl::detail
