// gbtl/index.hpp — the index type and the tag types every GBTL operation
// signature names. Kept free of exceptions and strings so the light JIT
// module header (pygb/jit/thin.hpp) can include it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gbtl {

/// Index type used for all row/column positions, mirroring GrB_Index.
using IndexType = std::uint64_t;

/// Ordered list of indices (used by assign/extract index arguments).
using IndexArray = std::vector<IndexType>;

/// Sentinel meaning "all indices" — GrB_ALL / GBTL's AllIndices().
struct AllIndices {};

/// Output write discipline for masked operations (C API "replace" flag).
/// MERGE keeps masked-out entries of the output; REPLACE clears them.
enum class OutputControl : std::uint8_t { kMerge, kReplace };

/// Tag type: no accumulator — the operation result overwrites (subject to
/// mask semantics) rather than being combined with prior output values.
struct NoAccumulate {};

/// Tag type: no write mask — every element of the output is writable.
struct NoMask {};

}  // namespace gbtl
