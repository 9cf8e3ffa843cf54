// pygb/jit/glue.hpp — the templated kernel bodies behind the JIT modules
// that still compile whole gbtl operations: assign, extract, transpose,
// the whole-algorithm entry points and fused chains. It plays the role of
// PyGB's operation_binding.cpp (Fig. 9): generated sources #include it and
// instantiate one run_* template (or a chain body) with concrete types; the
// static registry instantiates a curated set of the same templates.
//
// The operator-carrying families (mxm, mxv/vxm, eWise, apply, reduce) live
// in the light pygb/jit/thin.hpp, which this header includes.
//
// Kernels communicate exclusively through the standard-layout KernelArgs
// block; all compile-time variability (dtypes, operators, transposes, mask
// kind, accumulator) is in template parameters, and all run-time
// variability (replace flag, bound constants, index arrays, scalar seeds)
// is in the args.
#pragma once

#include <type_traits>

#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/triangle_count.hpp"
#include "gbtl/gbtl.hpp"
#include "pygb/jit/thin.hpp"

namespace pygb::jit {

// ---------------------------------------------------------------------------
// Args unpacking helpers.
// ---------------------------------------------------------------------------

template <typename T>
const gbtl::Matrix<T>& in_matrix(const void* p) {
  return *static_cast<const gbtl::Matrix<T>*>(p);
}
template <typename T>
gbtl::Matrix<T>& out_matrix(void* p) {
  return *static_cast<gbtl::Matrix<T>*>(p);
}
template <typename T>
const gbtl::Vector<T>& in_vector(const void* p) {
  return *static_cast<const gbtl::Vector<T>*>(p);
}
template <typename T>
gbtl::Vector<T>& out_vector(void* p) {
  return *static_cast<gbtl::Vector<T>*>(p);
}

inline gbtl::OutputControl outp_of(const KernelArgs* args) {
  return args->replace ? gbtl::OutputControl::kReplace
                       : gbtl::OutputControl::kMerge;
}

/// Invoke f with the typed mask object for the compile-time mask kind.
template <MaskKind MK, typename F>
decltype(auto) with_mask(const KernelArgs* args, F&& f) {
  if constexpr (MK == MaskKind::kNone) {
    return f(gbtl::NoMask{});
  } else if constexpr (MK == MaskKind::kMatrix) {
    return f(in_matrix<bool>(args->mask));
  } else if constexpr (MK == MaskKind::kMatrixComp) {
    return f(gbtl::complement(in_matrix<bool>(args->mask)));
  } else if constexpr (MK == MaskKind::kVector) {
    return f(in_vector<bool>(args->mask));
  } else {
    return f(gbtl::complement(in_vector<bool>(args->mask)));
  }
}

/// Invoke f with m or transpose(m) depending on the compile-time flag.
template <bool Trans, typename T, typename F>
decltype(auto) with_trans(const gbtl::Matrix<T>& m, F&& f) {
  if constexpr (Trans) {
    return f(gbtl::transpose(m));
  } else {
    return f(m);
  }
}

/// Resolve AllIndices (null pointer) vs explicit index arrays.
template <typename F>
decltype(auto) with_indices(const gbtl::IndexArray* idx, F&& f) {
  if (idx == nullptr) {
    return f(gbtl::AllIndices{});
  }
  return f(*idx);
}

// ---------------------------------------------------------------------------
// Accumulator adaptation: AccumT is gbtl::NoAccumulate or a binary functor
// type over CT (e.g. gbtl::Min<CT>), default-constructed at the call.
// ---------------------------------------------------------------------------

template <typename AccumT>
AccumT make_accum() {
  return AccumT{};
}

// ---------------------------------------------------------------------------
// Kernel bodies. Template parameter order is uniform:
//   CT (output), AT (input), mask kind, accumulator type.
// ---------------------------------------------------------------------------

template <typename CT, typename AT, MaskKind MK, typename AccumT>
void run_assign_mm(const KernelArgs* args) {
  with_mask<MK>(args, [&](const auto& mask) {
    with_indices(args->row_indices, [&](const auto& rows) {
      with_indices(args->col_indices, [&](const auto& cols) {
        gbtl::assign(out_matrix<CT>(args->c), mask, make_accum<AccumT>(),
                     in_matrix<AT>(args->a), rows, cols, outp_of(args));
      });
    });
  });
}

template <typename CT, MaskKind MK, typename AccumT>
void run_assign_ms(const KernelArgs* args) {
  const CT val = read_scalar<CT>(args);
  with_mask<MK>(args, [&](const auto& mask) {
    with_indices(args->row_indices, [&](const auto& rows) {
      with_indices(args->col_indices, [&](const auto& cols) {
        gbtl::assign(out_matrix<CT>(args->c), mask, make_accum<AccumT>(),
                     val, rows, cols, outp_of(args));
      });
    });
  });
}

template <typename CT, typename AT, MaskKind MK, typename AccumT>
void run_assign_vv(const KernelArgs* args) {
  with_mask<MK>(args, [&](const auto& mask) {
    with_indices(args->row_indices, [&](const auto& idx) {
      gbtl::assign(out_vector<CT>(args->c), mask, make_accum<AccumT>(),
                   in_vector<AT>(args->a), idx, outp_of(args));
    });
  });
}

template <typename CT, MaskKind MK, typename AccumT>
void run_assign_vs(const KernelArgs* args) {
  const CT val = read_scalar<CT>(args);
  with_mask<MK>(args, [&](const auto& mask) {
    with_indices(args->row_indices, [&](const auto& idx) {
      gbtl::assign(out_vector<CT>(args->c), mask, make_accum<AccumT>(), val,
                   idx, outp_of(args));
    });
  });
}

template <typename CT, typename AT, MaskKind MK, typename AccumT>
void run_extract_mm(const KernelArgs* args) {
  with_mask<MK>(args, [&](const auto& mask) {
    with_indices(args->row_indices, [&](const auto& rows) {
      with_indices(args->col_indices, [&](const auto& cols) {
        gbtl::extract(out_matrix<CT>(args->c), mask, make_accum<AccumT>(),
                      in_matrix<AT>(args->a), rows, cols, outp_of(args));
      });
    });
  });
}

template <typename CT, typename AT, MaskKind MK, typename AccumT>
void run_extract_vv(const KernelArgs* args) {
  with_mask<MK>(args, [&](const auto& mask) {
    with_indices(args->row_indices, [&](const auto& idx) {
      gbtl::extract(out_vector<CT>(args->c), mask, make_accum<AccumT>(),
                    in_vector<AT>(args->a), idx, outp_of(args));
    });
  });
}

template <typename CT, typename AT, bool ATrans, MaskKind MK,
          typename AccumT>
void run_transpose_m(const KernelArgs* args) {
  with_mask<MK>(args, [&](const auto& mask) {
    with_trans<ATrans>(in_matrix<AT>(args->a), [&](const auto& a) {
      gbtl::transpose(out_matrix<CT>(args->c), mask, make_accum<AccumT>(), a,
                      outp_of(args));
    });
  });
}

// ---------------------------------------------------------------------------
// Whole-algorithm entry points: the Fig. 10 "Python calls a complete C++
// algorithm" series — one dispatch for the entire outer loop.
// ---------------------------------------------------------------------------

/// c = levels Vector<CT>, a = graph Matrix<AT>, b = frontier Vector<bool>.
/// scalar_out.i receives the number of plies.
template <typename CT, typename AT>
void run_algo_bfs(const KernelArgs* args) {
  const auto depth = pygb::algo::bfs(in_matrix<AT>(args->a),
                                     in_vector<bool>(args->b),
                                     out_vector<CT>(args->c));
  write_scalar_out(args, static_cast<std::int64_t>(depth));
}

/// c = path Vector<CT> (pre-seeded), a = graph Matrix<AT>.
template <typename CT, typename AT>
void run_algo_sssp(const KernelArgs* args) {
  pygb::algo::sssp(in_matrix<AT>(args->a), out_vector<CT>(args->c));
}

/// c = rank Vector<CT>, a = graph Matrix<AT>; extra0 = damping,
/// extra1 = threshold, extra2 = max iterations. scalar_out.i = iterations.
template <typename CT, typename AT>
void run_algo_pagerank(const KernelArgs* args) {
  const unsigned iters = pygb::algo::page_rank(
      in_matrix<AT>(args->a), out_vector<CT>(args->c),
      static_cast<CT>(args->extra0), static_cast<CT>(args->extra1),
      static_cast<unsigned>(args->extra2));
  write_scalar_out(args, static_cast<std::int64_t>(iters));
}

/// a = L Matrix<AT>; scalar_out receives the triangle count as CT.
template <typename CT, typename AT>
void run_algo_tc(const KernelArgs* args) {
  const CT count = pygb::algo::triangle_count<CT>(in_matrix<AT>(args->a));
  write_scalar_out(args, count);
}

/// c = labels Vector<CT>, a = graph Matrix<AT>; scalar_out.i = rounds.
template <typename CT, typename AT>
void run_algo_cc(const KernelArgs* args) {
  const auto rounds = pygb::algo::connected_components(
      in_matrix<AT>(args->a), out_vector<CT>(args->c));
  write_scalar_out(args, static_cast<std::int64_t>(rounds));
}

}  // namespace pygb::jit
