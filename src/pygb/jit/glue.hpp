// pygb/jit/glue.hpp — the header behind the JIT modules that compile whole
// gbtl code rather than one op's cores: the whole-algorithm entry points
// (algo_* keys) and fused chains. It plays the role of PyGB's
// operation_binding.cpp (Fig. 9): generated sources #include it and
// instantiate one run_algo_* template (or a chain body) with concrete
// types; the static registry instantiates the same templates.
//
// Every single-op family (mxm, mxv/vxm, eWise, apply, reduce, assign,
// extract, transpose) lives in the light pygb/jit/thin.hpp, which this
// header includes.
#pragma once

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
const gbtl::Vector<T>& in_vector(const void* p) {
  return *static_cast<const gbtl::Vector<T>*>(p);
}
template <typename T>
gbtl::Vector<T>& out_vector(void* p) {
  return *static_cast<gbtl::Vector<T>*>(p);
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
