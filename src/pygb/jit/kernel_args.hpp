// pygb/jit/kernel_args.hpp — the type-erased argument block every kernel
// receives, split out of module_key.hpp so the light module header
// (pygb/jit/thin.hpp) carries it without <string> or <memory>.
#pragma once

#include <cstdint>

#include "gbtl/index.hpp"

namespace pygb::jit {

struct OpRequest;  // pygb/jit/module_key.hpp

/// How the output is masked. The mask container itself is always boolean
/// (the DSL coerces mask values, per the paper); complement is part of the
/// compiled kernel's type.
enum class MaskKind : std::uint8_t {
  kNone,
  kMatrix,
  kMatrixComp,
  kVector,
  kVectorComp,
};

/// Fixed-width exact scalar channel used for reduce-to-scalar results.
struct ScalarSlot {
  double f = 0.0;
  std::int64_t i = 0;
  std::uint64_t u = 0;
};

/// The type-erased, standard-layout argument block every kernel receives —
/// stable across the static registry, dlopen'd JIT modules, and the
/// interpreted fallback.
struct KernelArgs {
  void* c = nullptr;        ///< gbtl::Matrix<CT>* or gbtl::Vector<CT>*
  const void* mask = nullptr;  ///< gbtl::Matrix<bool>* / gbtl::Vector<bool>*
  const void* a = nullptr;
  const void* b = nullptr;

  double scalar_f = 0.0;       ///< bound constant / assign value (float ch.)
  std::int64_t scalar_i = 0;   ///< same, integer channel
  ScalarSlot* scalar_out = nullptr;  ///< reduce-to-scalar result

  const gbtl::IndexArray* row_indices = nullptr;  ///< null = AllIndices
  const gbtl::IndexArray* col_indices = nullptr;  ///< null = AllIndices

  bool replace = false;
  bool has_scalar_seed = false;  ///< reduce: scalar_out holds a seed value

  double extra0 = 0.0;  ///< algorithm parameters (e.g. PageRank damping)
  double extra1 = 0.0;
  std::int64_t extra2 = 0;

  /// Fused-chain invocation: pointers to the bound containers (parameter
  /// order) and the runtime scalar values.
  const void* const* chain_ptrs = nullptr;
  const double* chain_scalars = nullptr;

  /// Set for interp-mode kernels, which interpret the descriptor at run
  /// time; compiled kernels ignore it.
  const OpRequest* request = nullptr;
};

using KernelFn = void (*)(const KernelArgs*);

}  // namespace pygb::jit
