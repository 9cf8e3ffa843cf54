// gbtl/detail/drivers.cpp — the drivers instantiated once per GraphBLAS
// dtype, and the constant DriverTable that hands them to JIT modules
// (PoolApi v5) and to the static kernel table.
#include "gbtl/detail/drivers.hpp"

#include <cstdint>

namespace gbtl {

namespace detail {
GBTL_DRIVERS_OF_ALL_DTYPES()
}  // namespace detail

namespace {

template <typename... Ts>
struct Dtypes {
  static constexpr DriverTable table() {
    return {kDriverTableVersion,
            {detail::operand_ops<Ts>()...},
            {&detail::mxv_driver<Ts>...},
            {&detail::mxm_driver<Ts>...},
            {&detail::ewise_m_driver<Ts>...},
            {&detail::ewise_v_driver<Ts>...},
            {&detail::apply_m_driver<Ts>...},
            {&detail::apply_v_driver<Ts>...},
            {&detail::reduce_m_v_driver<Ts>...},
            {&detail::reduce_m_s_driver<Ts>...},
            {&detail::reduce_v_s_driver<Ts>...},
            {&detail::assign_v_driver<Ts>...},
            {&detail::extract_v_driver<Ts>...},
            {&detail::assign_m_driver<Ts>...},
            {&detail::extract_m_driver<Ts>...},
            {&detail::transpose_m_driver<Ts>...}};
  }
};

// The order of pygb::DType (core::elem_index).
using AllDtypes =
    Dtypes<bool, std::int8_t, std::int16_t, std::int32_t, std::int64_t,
           std::uint8_t, std::uint16_t, std::uint32_t, std::uint64_t, float,
           double>;

constexpr DriverTable kTable = AllDtypes::table();

}  // namespace

const DriverTable& host_driver_table() noexcept { return kTable; }

}  // namespace gbtl
