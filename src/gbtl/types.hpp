// gbtl/types.hpp — fundamental index types, exceptions, and concepts shared
// by every GBTL container and operation.
//
// This substrate implements the semantics of the GraphBLAS C API
// specification (Buluc et al., 2017) in templated C++20, following the
// structure of the GraphBLAS Template Library (GBTL) that the PyGB paper
// compiles to.
#pragma once

#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "gbtl/index.hpp"

namespace gbtl {

/// Thrown when operand dimensions do not conform (GrB_DIMENSION_MISMATCH).
class DimensionException : public std::runtime_error {
 public:
  explicit DimensionException(const std::string& msg)
      : std::runtime_error("gbtl: dimension mismatch: " + msg) {}
};

/// Thrown when an index is out of bounds (GrB_INDEX_OUT_OF_BOUNDS).
class IndexOutOfBoundsException : public std::out_of_range {
 public:
  explicit IndexOutOfBoundsException(const std::string& msg)
      : std::out_of_range("gbtl: index out of bounds: " + msg) {}
};

/// Thrown when extractElement finds no stored value (GrB_NO_VALUE).
class NoValueException : public std::runtime_error {
 public:
  explicit NoValueException(const std::string& msg)
      : std::runtime_error("gbtl: no stored value: " + msg) {}
};

/// Thrown for invalid arguments (GrB_INVALID_VALUE).
class InvalidValueException : public std::invalid_argument {
 public:
  explicit InvalidValueException(const std::string& msg)
      : std::invalid_argument("gbtl: invalid value: " + msg) {}
};

/// Scalar types storable in GBTL containers: the 11 GraphBLAS PODs
/// (bool, u/int 8..64, float, double) plus anything arithmetic-like.
template <typename T>
concept ScalarType = std::is_arithmetic_v<T>;

namespace detail {

/// Checked conversion helper for building error messages.
inline std::string dim_str(IndexType r, IndexType c) {
  return std::to_string(r) + "x" + std::to_string(c);
}

}  // namespace detail

}  // namespace gbtl
