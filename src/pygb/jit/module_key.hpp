// pygb/jit/module_key.hpp — the operation descriptor assembled by the DSL
// at evaluation time, and its canonical dispatch key.
//
// This is the information PyGB passes to `get_module(kwargs)` in Fig. 9:
// the function name, the operand dtypes, the operator structure, transpose
// flags, and the mask kind. Everything in the key is compile-time-relevant
// for the C++ kernel; runtime-only values (the replace flag, bound
// constants, assign scalars, index arrays) travel in KernelArgs instead so
// that modules are maximally reusable across calls.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gbtl/detail/backend.hpp"
#include "gbtl/types.hpp"
#include "pygb/dtype.hpp"
#include "pygb/jit/kernel_args.hpp"
#include "pygb/operators.hpp"
#include "pygb/userops.hpp"

namespace pygb::jit {

const char* to_string(MaskKind mk);

/// Operation names understood by all three backends.
namespace func {
inline constexpr const char* kMxM = "mxm";
inline constexpr const char* kMxV = "mxv";
inline constexpr const char* kVxM = "vxm";
inline constexpr const char* kEWiseAddMM = "ewise_add_mm";
inline constexpr const char* kEWiseAddVV = "ewise_add_vv";
inline constexpr const char* kEWiseMultMM = "ewise_mult_mm";
inline constexpr const char* kEWiseMultVV = "ewise_mult_vv";
inline constexpr const char* kApplyM = "apply_m";
inline constexpr const char* kApplyV = "apply_v";
inline constexpr const char* kReduceMS = "reduce_m_s";
inline constexpr const char* kReduceVS = "reduce_v_s";
inline constexpr const char* kReduceMV = "reduce_m_v";
inline constexpr const char* kAssignMM = "assign_mm";
inline constexpr const char* kAssignMS = "assign_ms";
inline constexpr const char* kAssignVV = "assign_vv";
inline constexpr const char* kAssignVS = "assign_vs";
inline constexpr const char* kExtractMM = "extract_mm";
inline constexpr const char* kExtractVV = "extract_vv";
inline constexpr const char* kTransposeM = "transpose_m";
// Whole-algorithm entry points (Fig. 10 "Python calls a complete C++
// algorithm" series).
inline constexpr const char* kAlgoBfs = "algo_bfs";
inline constexpr const char* kAlgoSssp = "algo_sssp";
inline constexpr const char* kAlgoPagerank = "algo_pagerank";
inline constexpr const char* kAlgoTriangleCount = "algo_tc";
inline constexpr const char* kAlgoConnectedComponents = "algo_cc";
// A recorded multi-statement chain compiled into ONE module (§V's planned
// lazy-evaluation feature, implemented — see pygb/fused.hpp).
inline constexpr const char* kFusedChain = "fused_chain";
}  // namespace func

// ---------------------------------------------------------------------------
// Fused-chain descriptors (§V: "allow a series of operations to be deferred
// until a single binary module containing all the previously deferred
// operations is compiled").
// ---------------------------------------------------------------------------

/// A chain parameter: a container (bound by pointer at run time) or a
/// runtime scalar. Scalars are transported over the double channel but
/// compiled at their declared dtype, so FP32/integer chains don't widen.
struct ChainParam {
  enum class Kind : std::uint8_t { kMatrix, kVector, kScalar };
  Kind kind;
  DType dtype = DType::kFP64;
  std::string name;
};

/// One statement of a chain. Operand fields are parameter indices (-1 =
/// unused). Masks are not supported inside chains (they fuse the unmasked
/// inner loops of algorithms like PageRank's iteration body).
struct ChainStatement {
  std::string func;  ///< one of the func:: operation names
  int target = -1;
  int a = -1;
  int b = -1;
  int scalar = -1;  ///< scalar-parameter index for bound/assign statements
  bool a_transposed = false;
  bool b_transposed = false;
  std::optional<Semiring> semiring;
  std::optional<BinaryOp> binary_op;
  std::optional<UnaryOpName> plain_unary;
  std::optional<BinaryOp> bound_op;  ///< bind-2nd with `scalar` param
  std::optional<Monoid> monoid;
  std::optional<BinaryOp> accum;
};

/// The full chain: compiled as one translation unit; the signature is the
/// dispatch key.
struct FusedChainDesc {
  std::string name;
  std::vector<ChainParam> params;
  std::vector<ChainStatement> statements;

  /// Module-key axis identifying who built the chain: "" for hand-recorded
  /// FusedChain programs, "dag" for planner-fused lazy-DAG chains. Part of
  /// signature() so the two families never collide in the module cache.
  std::string origin;

  std::string signature() const;
};

/// Everything the dispatcher needs to find or build a kernel.
struct OpRequest {
  std::string func;

  DType c = DType::kFP64;        ///< output element type
  std::optional<DType> a;        ///< first input element type
  std::optional<DType> b;        ///< second input element type

  bool a_transposed = false;
  bool b_transposed = false;
  MaskKind mask = MaskKind::kNone;

  /// Kernel-backend axis (docs/BACKENDS.md). Resolved by the dispatcher
  /// (per-op BackendHint > process default) before the key is taken, so a
  /// compiled module is permanently bound to one backend. kScalar keeps the
  /// pre-axis key spelling — existing module caches stay valid.
  gbtl::detail::Backend backend = gbtl::detail::Backend::kScalar;

  std::optional<Semiring> semiring;    ///< mxm/mxv/vxm and whole algorithms
  std::optional<Monoid> monoid;        ///< reduce
  std::optional<BinaryOp> binary_op;   ///< eWiseAdd / eWiseMult
  std::optional<UnaryOp> unary_op;     ///< apply (bound value is runtime)
  std::optional<BinaryOp> accum;       ///< output accumulator

  /// User-defined operators (§VIII): served only by the JIT backend.
  std::optional<UserBinaryOp> user_binary;  ///< replaces binary_op
  std::optional<UserUnaryOp> user_unary;    ///< replaces unary_op

  /// Fused chain description (func == kFusedChain; JIT backend only).
  std::shared_ptr<const FusedChainDesc> chain;

  /// Canonical dispatch key. Two requests with equal keys can share a
  /// compiled module.
  std::string key() const;

  bool has_user_op() const {
    return user_binary.has_value() || user_unary.has_value();
  }
};

}  // namespace pygb::jit
