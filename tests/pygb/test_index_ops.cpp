// Differential coverage of the assign, extract and transpose kernels: each
// op x {no mask, mask, complement} x {no accum, Plus} x {merge, replace},
// plus one cross-dtype pair (int32 <- fp64), dispatched under interp,
// static and jit and checked element-exactly against the dense model
// below, which shares no code with src/gbtl. Every jit key compiles in a
// private empty cache, so the jit leg really builds a thin module.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "gbtl/gbtl.hpp"
#include "pygb/jit/codegen.hpp"
#include "pygb/jit/compiler.hpp"
#include "pygb/jit/registry.hpp"
#include "pygb/operators.hpp"

namespace {

namespace jit = pygb::jit;
using gbtl::IndexArray;
using gbtl::IndexType;

/// Dense model of a matrix (row-major) or vector: stored or not.
using Dense = std::vector<std::optional<double>>;

/// The model as a native Matrix<T> with `cols` columns, or a Vector<T>.
template <typename T>
std::variant<gbtl::Matrix<T>, gbtl::Vector<T>> make(const Dense& d,
                                                    IndexType cols,
                                                    bool matrix) {
  if (!matrix) {
    gbtl::Vector<T> u(d.size());
    for (IndexType k = 0; k < d.size(); ++k) {
      if (d[k]) u.setElement(k, static_cast<T>(*d[k]));
    }
    return u;
  }
  gbtl::Matrix<T> m(d.size() / cols, cols);
  for (IndexType k = 0; k < d.size(); ++k) {
    if (d[k]) m.setElement(k / cols, k % cols, static_cast<T>(*d[k]));
  }
  return m;
}

/// The address of the container a make() result holds.
void* raw(auto& v) {
  return std::visit([](auto& c) { return static_cast<void*>(&c); }, v);
}

struct OpCase {
  const char* func;
  bool matrix;
  bool scalar = false;   ///< constant assign
  bool a_trans = false;  ///< transpose of a transposed input
};

std::string name_of(const OpCase& c) {
  return std::string(c.func) + (c.a_trans ? "_at" : "");
}

// Printed by name: gtest would otherwise list the case as a byte dump of
// the func pointer, which changes from run to run.
void PrintTo(const OpCase& c, std::ostream* os) { *os << name_of(c); }

class IndexOps : public ::testing::TestWithParam<OpCase> {
 protected:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// One case under `mode`, compared position by position with the model.
  void check(jit::Mode mode, jit::MaskKind mk, bool accum, bool replace,
             bool to_int) {
    const OpCase& op = GetParam();
    const std::string f = op.func;
    const bool assign = f.starts_with("assign");
    const bool indexed = f != jit::func::kTransposeM;
    const bool flip = !indexed && !op.a_trans;
    // Assign writes rows I (cols J) of a 6x5 (size-7) C; extract reads a
    // 6x5 (size-7) A at repeated indices; transpose flips a 5x6 A, or
    // copies a 6x5 A^T^T.
    const IndexArray rows = assign ? IndexArray{4, 0, 2} : IndexArray{5, 1, 1};
    const IndexArray cols = assign ? IndexArray{3, 1} : IndexArray{0, 4, 0};
    const IndexType n = op.matrix ? 6 : 7, m = op.matrix ? 5 : 1;
    const IndexType ir = rows.size(), jc = op.matrix ? cols.size() : 1;
    const IndexType cr = !assign && indexed ? ir : n;
    const IndexType cc = !assign && indexed ? jc : m;
    const IndexType ac = assign ? jc : flip ? n : m;
    std::mt19937 rng(11);
    auto random = [&](IndexType size, bool boolean) {
      Dense d(size);
      for (auto& x : d) {
        if (rng() % 2 == 0) continue;
        x = boolean ? rng() % 2 : rng() % 9 + 0.75;  // fractions show casts
      }
      return d;
    };
    const Dense c = random(cr * cc, false);
    const Dense a = random((assign ? ir : flip ? m : n) * ac, false);
    const Dense mask = random(cr * cc, true);

    // The model: T where the op writes (its region), Z, then the mask.
    auto cast = [&](std::optional<double> x) -> std::optional<double> {
      if (x && to_int) return static_cast<std::int32_t>(*x);
      return x;
    };
    Dense t(cr * cc);
    std::vector<bool> region(cr * cc, !assign);
    for (IndexType k = 0; k < (assign ? ir : cr); ++k) {
      for (IndexType l = 0; l < (assign ? jc : cc); ++l) {
        if (assign) {
          const IndexType p = rows[k] * cc + (op.matrix ? cols[l] : 0);
          region[p] = true;
          t[p] = cast(op.scalar ? 2.5 : a[k * ac + l]);
        } else if (indexed) {
          t[k * cc + l] = cast(a[rows[k] * ac + (op.matrix ? cols[l] : 0)]);
        } else {
          t[k * cc + l] = cast(flip ? a[l * ac + k] : a[k * ac + l]);
        }
      }
    }
    Dense want(cr * cc);
    for (IndexType p = 0; p < want.size(); ++p) {
      std::optional<double> z = cast(c[p]);
      if (region[p]) z = accum && z ? (t[p] ? *z + *t[p] : z) : t[p];
      bool in = mk == jit::MaskKind::kNone || (mask[p] && *mask[p] != 0.0);
      if (mk == jit::MaskKind::kMatrixComp ||
          mk == jit::MaskKind::kVectorComp) {
        in = !in;
      }
      want[p] = in ? z : replace ? std::nullopt : cast(c[p]);
    }

    // The kernel.
    jit::OpRequest req;
    req.func = f;
    req.c = to_int ? pygb::DType::kInt32 : pygb::DType::kFP64;
    if (!op.scalar) req.a = pygb::DType::kFP64;
    req.a_transposed = op.a_trans;
    req.mask = mk;
    if (accum) req.accum = pygb::BinaryOp("Plus");
    jit::KernelArgs args;
    args.request = &req;
    args.replace = replace;
    args.scalar_f = 2.5;
    args.scalar_i = 2;
    if (indexed) args.row_indices = &rows;
    if (indexed && op.matrix) args.col_indices = &cols;
    auto native_mask = make<bool>(mask, cc, op.matrix);
    if (mk != jit::MaskKind::kNone) args.mask = raw(native_mask);
    auto native_a = make<double>(a, ac, op.matrix);
    args.a = raw(native_a);

    auto& reg = jit::Registry::instance();
    reg.set_mode(mode);
    jit::ResolveInfo info;
    const jit::KernelFn kernel = reg.get(req, &info);
    if (mode == jit::Mode::kJit) {
      EXPECT_STREQ(jit::module_header(req), jit::kThinHeader);
      const bool first = compiled_.insert(info.key).second;
      EXPECT_STREQ(info.backend, first ? "jit-compile" : "jit-memory");
    }
    auto run = [&](auto out, const auto& expected) {
      args.c = raw(out);
      kernel(&args);
      EXPECT_TRUE(out == expected)
          << jit::to_string(mode) << ", mask kind " << static_cast<int>(mk)
          << ", accum " << accum << ", replace " << replace;
    };
    if (to_int) {
      run(make<std::int32_t>(c, cc, op.matrix),
          make<std::int32_t>(want, cc, op.matrix));
    } else {
      run(make<double>(c, cc, op.matrix), make<double>(want, cc, op.matrix));
    }
  }

  std::string dir_ = (std::filesystem::temp_directory_path() /
                      ("pygb_index_ops_" + std::to_string(::getpid())))
                         .string();
  std::set<std::string> compiled_;
};

TEST_P(IndexOps, MatchesTheDenseModelUnderEveryMode) {
  const OpCase& op = GetParam();
  auto& reg = jit::Registry::instance();
  const jit::Mode saved_mode = reg.mode();
  const std::string saved_dir = reg.cache_dir();
  reg.set_cache_dir(dir_);
  reg.clear_memory_cache();  // earlier tests in this process loaded keys
  std::vector<jit::Mode> modes = {jit::Mode::kInterp, jit::Mode::kStatic};
  if (jit::compiler_available()) modes.push_back(jit::Mode::kJit);
  for (const jit::Mode mode : modes) {
    for (const auto mk :
         {jit::MaskKind::kNone,
          op.matrix ? jit::MaskKind::kMatrix : jit::MaskKind::kVector,
          op.matrix ? jit::MaskKind::kMatrixComp
                    : jit::MaskKind::kVectorComp}) {
      for (const bool accum : {false, true}) {
        for (const bool replace : {false, true}) {
          check(mode, mk, accum, replace, false);
        }
      }
    }
    if (!op.scalar) check(mode, jit::MaskKind::kNone, false, false, true);
  }
  reg.set_cache_dir(saved_dir);
  reg.set_mode(saved_mode);
  if (jit::compiler_available()) {
    EXPECT_FALSE(compiled_.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, IndexOps,
    ::testing::Values(OpCase{jit::func::kAssignMM, true},
                      OpCase{jit::func::kAssignMS, true, true},
                      OpCase{jit::func::kAssignVV, false},
                      OpCase{jit::func::kAssignVS, false, true},
                      OpCase{jit::func::kExtractMM, true},
                      OpCase{jit::func::kExtractVV, false},
                      OpCase{jit::func::kTransposeM, true},
                      OpCase{jit::func::kTransposeM, true, false, true}),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return name_of(info.param);
    });

}  // namespace
