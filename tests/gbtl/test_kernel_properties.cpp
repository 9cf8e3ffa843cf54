// Kernel property fuzzer for the backend axis (docs/BACKENDS.md): every
// test drives the same operation through the scalar and simd backends over
// adversarial sparsity shapes — empty rows/cols, a single dense row,
// near-hypersparse, fully dense, all-true/all-false masks, aliased
// outputs — and asserts the results are BIT-IDENTICAL (gbtl operator==
// compares stored structure and values exactly; no tolerance). The simd
// backend's kernels are constructed to preserve scalar fold orders, so any
// difference is a bug, doubles included.
//
// Also covered here:
//   * push-vs-pull mxv/vxm parity at input densities straddling the
//     direction-optimization crossover (detail::kMxvPullThreshold, 0.10),
//     with the decision counters proving both directions actually ran;
//   * the L2-tiled Gustavson mxm forced on tiny matrices via the mutable
//     detail::mxm_tile_bytes() budget, checked bit-identical AND for the
//     CSR invariants (strictly ascending, duplicate-free rows);
//   * transpose-cache invalidation: a mutation after a pull must not
//     serve stale cached A^T data;
//   * the matrix-apply fast paths (same-type Identity copy, aliased
//     in-place C = f(C), in-place normalize_rows) vs the staged route.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "gbtl/detail/backend.hpp"
#include "gbtl/detail/pool.hpp"
#include "gbtl/gbtl.hpp"
#include "reference.hpp"

namespace {

using gbtl::IndexType;
using gbtl::Matrix;
using gbtl::Vector;
using gbtl::detail::Backend;

constexpr IndexType kN = 200;  // > 2 * kMinRowsPerThread so the pool fans out

// ---------------------------------------------------------------------------
// Adversarial shape corpus
// ---------------------------------------------------------------------------

struct NamedMatrix {
  const char* name;
  Matrix<double> m;
};

std::vector<NamedMatrix> adversarial_matrices() {
  std::vector<NamedMatrix> out;

  out.push_back({"empty", Matrix<double>(kN, kN)});

  {  // every odd row and every column >= kN/2 empty
    Matrix<double> m(kN, kN);
    for (IndexType i = 0; i < kN; i += 2) {
      for (IndexType j = 0; j < kN / 2; j += 3) {
        m.setElement(i, j, static_cast<double>(i + j + 1));
      }
    }
    out.push_back({"empty_rows_cols", std::move(m)});
  }

  {  // one fully dense row in an otherwise empty matrix
    Matrix<double> m(kN, kN);
    for (IndexType j = 0; j < kN; ++j) {
      m.setElement(kN / 2, j, static_cast<double>(j) * 0.5 + 1.0);
    }
    out.push_back({"single_dense_row", std::move(m)});
  }

  {  // one fully dense column (stresses the transpose/pull direction)
    Matrix<double> m(kN, kN);
    for (IndexType i = 0; i < kN; ++i) {
      m.setElement(i, 3, static_cast<double>(i) + 1.0);
    }
    out.push_back({"single_dense_col", std::move(m)});
  }

  {  // near-hypersparse: 3 entries in kN x kN
    Matrix<double> m(kN, kN);
    m.setElement(0, kN - 1, 2.0);
    m.setElement(kN - 1, 0, 3.0);
    m.setElement(kN / 3, kN / 7, 5.0);
    out.push_back({"near_hypersparse", std::move(m)});
  }

  out.push_back({"random_5pct",
                 testref::random_matrix<double>(kN, kN, 0.05, 42)});
  out.push_back({"random_50pct",
                 testref::random_matrix<double>(kN, kN, 0.5, 43)});

  {  // fully dense (hits every dense fast path)
    Matrix<double> m(kN, kN);
    for (IndexType i = 0; i < kN; ++i) {
      for (IndexType j = 0; j < kN; ++j) {
        m.setElement(i, j, static_cast<double>((i * 31 + j * 7) % 11) + 0.25);
      }
    }
    out.push_back({"dense", std::move(m)});
  }

  return out;
}

std::vector<std::pair<const char*, Vector<double>>> adversarial_vectors() {
  std::vector<std::pair<const char*, Vector<double>>> out;
  out.emplace_back("empty", Vector<double>(kN));
  {
    Vector<double> v(kN);
    v.setElement(kN / 2, 4.0);
    out.emplace_back("single", std::move(v));
  }
  out.emplace_back("sparse_5pct",
                   testref::random_vector<double>(kN, 0.05, 7));
  out.emplace_back("half", testref::random_vector<double>(kN, 0.5, 8));
  {
    Vector<double> v(kN);
    for (IndexType i = 0; i < kN; ++i) {
      v.setElement(i, static_cast<double>(i % 13) * 0.125 + 0.5);
    }
    out.emplace_back("dense", std::move(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fixture: run a closure once per backend, restore global state after
// ---------------------------------------------------------------------------

class KernelProperties : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_backend_ = gbtl::detail::default_backend();
    saved_tile_bytes_ = gbtl::detail::mxm_tile_bytes();
  }
  void TearDown() override {
    gbtl::detail::set_default_backend(saved_backend_);
    gbtl::detail::mxm_tile_bytes() = saved_tile_bytes_;
  }

  /// Run `fn` under the scalar backend, then under simd; both results are
  /// returned for bit-exact comparison by the caller.
  template <typename Fn>
  auto both(Fn&& fn) {
    gbtl::detail::set_default_backend(Backend::kScalar);
    auto scalar = fn();
    gbtl::detail::set_default_backend(Backend::kSimd);
    auto simd = fn();
    return std::make_pair(std::move(scalar), std::move(simd));
  }

  Backend saved_backend_{};
  std::uint64_t saved_tile_bytes_ = 0;
};

/// Strictly ascending, duplicate-free column indices in every stored row —
/// the CSR invariant every kernel must maintain (the tiled mxm appends
/// per-tile fragments, so this is where a violation would show up).
template <typename T>
::testing::AssertionResult csr_invariants_hold(const Matrix<T>& m) {
  for (IndexType i = 0; i < m.nrows(); ++i) {
    const auto& row = m.row(i);
    for (std::size_t k = 1; k < row.size(); ++k) {
      if (!(row[k - 1].first < row[k].first)) {
        return ::testing::AssertionFailure()
               << "row " << i << " not strictly ascending at slot " << k
               << " (" << row[k - 1].first << " then " << row[k].first << ")";
      }
    }
    for (const auto& [j, v] : row) {
      if (j >= m.ncols()) {
        return ::testing::AssertionFailure()
               << "row " << i << " column " << j << " out of bounds";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// mxv / vxm: scalar vs simd over the whole corpus, both orientations
// ---------------------------------------------------------------------------

TEST_F(KernelProperties, MxvScalarVsSimdBitIdentical) {
  const gbtl::ArithmeticSemiring<double> sr;
  for (const auto& [mname, a] : adversarial_matrices()) {
    for (const auto& [vname, u] : adversarial_vectors()) {
      auto [scalar, simd] = both([&] {
        Vector<double> w(kN);
        gbtl::mxv(w, gbtl::NoMask{}, gbtl::NoAccumulate{}, sr, a, u);
        return w;
      });
      EXPECT_TRUE(scalar == simd)
          << "mxv diverged: A=" << mname << " u=" << vname;

      auto [scalar_t, simd_t] = both([&] {
        Vector<double> w(kN);
        gbtl::mxv(w, gbtl::NoMask{}, gbtl::NoAccumulate{}, sr,
                  gbtl::transpose(a), u);
        return w;
      });
      EXPECT_TRUE(scalar_t == simd_t)
          << "mxv(A^T) diverged: A=" << mname << " u=" << vname;

      auto [scalar_v, simd_v] = both([&] {
        Vector<double> w(kN);
        gbtl::vxm(w, gbtl::NoMask{}, gbtl::NoAccumulate{}, sr, u, a);
        return w;
      });
      EXPECT_TRUE(scalar_v == simd_v)
          << "vxm diverged: A=" << mname << " u=" << vname;
    }
  }
}

// At densities straddling the pull crossover (default threshold 0.10) the
// simd backend switches direction; scalar always pushes at the transposed
// orientation. Bit-equality across the sweep IS push-vs-pull parity, and
// the decision counters prove both directions actually executed.
TEST_F(KernelProperties, PushPullParityAtDensityCrossover) {
  const gbtl::ArithmeticSemiring<double> sr;
  const auto a = testref::random_matrix<double>(kN, kN, 0.08, 99);
  const auto ref_at = testref::ref_transpose(testref::to_dense(a));

  gbtl::detail::reset_mxv_decisions();
  bool saw_push = false, saw_pull = false;
  for (double density : {0.02, 0.08, 0.095, 0.105, 0.12, 0.3, 1.0}) {
    Vector<double> u(kN);
    const auto want =
        static_cast<IndexType>(density * static_cast<double>(kN));
    for (IndexType i = 0; i < want; ++i) {
      // spread stored entries across the index space
      u.setElement((i * 7919) % kN, static_cast<double>(i % 9) + 1.0);
    }
    const auto pull_before = gbtl::detail::mxv_pull_decisions();
    const auto push_before = gbtl::detail::mxv_push_decisions();
    auto [scalar, simd] = both([&] {
      Vector<double> w(kN);
      gbtl::mxv(w, gbtl::NoMask{}, gbtl::NoAccumulate{}, sr,
                gbtl::transpose(a), u);
      return w;
    });
    EXPECT_TRUE(scalar == simd)
        << "push/pull parity broke at density " << density;
    EXPECT_TRUE(testref::matches(
        simd, testref::ref_mxv(sr, ref_at, testref::to_dense(u))))
        << "simd result wrong vs dense reference at density " << density;
    saw_pull |= gbtl::detail::mxv_pull_decisions() > pull_before;
    saw_push |= gbtl::detail::mxv_push_decisions() > push_before;
  }
  EXPECT_TRUE(saw_push) << "sweep never exercised the push direction";
  EXPECT_TRUE(saw_pull) << "sweep never exercised the pull direction";
}

// ---------------------------------------------------------------------------
// Masks: all-true, all-false, plain and complement, merge and replace
// ---------------------------------------------------------------------------

TEST_F(KernelProperties, MaskedMxvExtremeMasks) {
  const gbtl::ArithmeticSemiring<double> sr;
  const auto a = testref::random_matrix<double>(kN, kN, 0.1, 17);
  const auto u = testref::random_vector<double>(kN, 0.6, 18);

  Vector<bool> all_true(kN);
  Vector<bool> all_false(kN);  // no stored entries == nothing passes
  for (IndexType i = 0; i < kN; ++i) all_true.setElement(i, true);

  for (const auto* mask_name : {"all_true", "all_false"}) {
    const auto& mask =
        mask_name[4] == 't' ? all_true : all_false;  // "all_True"
    for (const auto outp :
         {gbtl::OutputControl::kMerge, gbtl::OutputControl::kReplace}) {
      auto [scalar, simd] = both([&] {
        auto w = testref::random_vector<double>(kN, 0.3, 19);
        gbtl::mxv(w, mask, gbtl::NoAccumulate{}, sr, gbtl::transpose(a), u,
                  outp);
        return w;
      });
      EXPECT_TRUE(scalar == simd)
          << "masked mxv diverged: mask=" << mask_name
          << " outp=" << static_cast<int>(outp);

      auto [scalar_c, simd_c] = both([&] {
        auto w = testref::random_vector<double>(kN, 0.3, 19);
        gbtl::mxv(w, gbtl::complement(mask), gbtl::NoAccumulate{}, sr,
                  gbtl::transpose(a), u, outp);
        return w;
      });
      EXPECT_TRUE(scalar_c == simd_c)
          << "complement-masked mxv diverged: mask=" << mask_name
          << " outp=" << static_cast<int>(outp);
    }
  }
}

// ---------------------------------------------------------------------------
// Aliased outputs: w = A·w and accumulated w += u ⊕ w
// ---------------------------------------------------------------------------

TEST_F(KernelProperties, AliasedOutputsBitIdentical) {
  const gbtl::ArithmeticSemiring<double> sr;
  const auto a = testref::random_matrix<double>(kN, kN, 0.1, 23);

  auto [scalar, simd] = both([&] {
    auto w = testref::random_vector<double>(kN, 0.8, 24);
    gbtl::mxv(w, gbtl::NoMask{}, gbtl::NoAccumulate{}, sr, a, w);
    return w;
  });
  EXPECT_TRUE(scalar == simd) << "aliased w = A*w diverged";

  auto [scalar2, simd2] = both([&] {
    auto w = testref::random_vector<double>(kN, 1.0, 25);
    gbtl::eWiseAdd(w, gbtl::NoMask{}, gbtl::Plus<double>{},
                   gbtl::Plus<double>{}, w, w);
    return w;
  });
  EXPECT_TRUE(scalar2 == simd2) << "aliased accumulated w += w+w diverged";
}

// ---------------------------------------------------------------------------
// mxm: forced L2 tiling, masked row-skip, transposed operands
// ---------------------------------------------------------------------------

TEST_F(KernelProperties, TiledMxmBitIdenticalAndCsrClean) {
  const gbtl::ArithmeticSemiring<double> sr;
  for (const auto& [aname, a] : adversarial_matrices()) {
    for (double bfill : {0.02, 0.3}) {
      const auto b = testref::random_matrix<double>(kN, kN, bfill, 57);
      // Budget of 1 byte forces the minimum tile width (64 columns), so
      // kN=200 columns split into 4 tiles.
      gbtl::detail::mxm_tile_bytes() = 1;
      auto [scalar, simd] = both([&] {
        Matrix<double> c(kN, kN);
        gbtl::mxm(c, gbtl::NoMask{}, gbtl::NoAccumulate{}, sr, a, b);
        return c;
      });
      EXPECT_TRUE(scalar == simd)
          << "tiled mxm diverged: A=" << aname << " bfill=" << bfill;
      EXPECT_TRUE(csr_invariants_hold(simd))
          << "tiled mxm broke CSR invariants: A=" << aname
          << " bfill=" << bfill;
    }
  }
}

TEST_F(KernelProperties, MaskedMxmRowSkipExtremeMasks) {
  const gbtl::ArithmeticSemiring<double> sr;
  const auto a = testref::random_matrix<double>(kN, kN, 0.1, 61);
  const auto b = testref::random_matrix<double>(kN, kN, 0.1, 62);

  Matrix<bool> all_true(kN, kN);
  Matrix<bool> all_false(kN, kN);  // empty: every row skippable
  Matrix<bool> half(kN, kN);       // alternating empty mask rows
  for (IndexType i = 0; i < kN; ++i) {
    for (IndexType j = 0; j < kN; ++j) all_true.setElement(i, j, true);
    if (i % 2 == 0) {
      for (IndexType j = 0; j < kN; j += 2) half.setElement(i, j, true);
    } else {
      half.setElement(i, 0, false);  // stored but falsy — must NOT pass
    }
  }

  gbtl::detail::mxm_tile_bytes() = 1;  // combine row-skip with tiling
  int idx = 0;
  for (const auto* mask : {&all_true, &all_false, &half}) {
    for (const auto outp :
         {gbtl::OutputControl::kMerge, gbtl::OutputControl::kReplace}) {
      auto [scalar, simd] = both([&] {
        auto c = testref::random_matrix<double>(kN, kN, 0.05, 63);
        gbtl::mxm(c, *mask, gbtl::NoAccumulate{}, sr, a, b, outp);
        return c;
      });
      EXPECT_TRUE(scalar == simd)
          << "masked mxm diverged: mask#" << idx
          << " outp=" << static_cast<int>(outp);
    }
    ++idx;
  }
}

TEST_F(KernelProperties, TransposedMxmUsesCachedTransposeCorrectly) {
  const gbtl::ArithmeticSemiring<double> sr;
  auto a = testref::random_matrix<double>(kN, kN, 0.1, 71);
  const auto b = testref::random_matrix<double>(kN, kN, 0.1, 72);

  auto run = [&] {
    Matrix<double> c(kN, kN);
    gbtl::mxm(c, gbtl::NoMask{}, gbtl::NoAccumulate{}, sr,
              gbtl::transpose(a), b);
    return c;
  };
  auto [scalar, simd] = both(run);
  EXPECT_TRUE(scalar == simd) << "mxm(A^T, B) diverged";

  // Mutate A: the cached transpose must be invalidated, not served stale.
  a.setElement(0, 0, 123.0);
  auto [scalar2, simd2] = both(run);
  EXPECT_TRUE(scalar2 == simd2) << "mxm(A^T, B) diverged after mutation";
  EXPECT_FALSE(scalar == scalar2) << "mutation had no effect — bad test";
}

// Same stale-cache property for the mxv pull path, which builds the cache.
TEST_F(KernelProperties, TransposeCacheInvalidatedOnMutation) {
  const gbtl::ArithmeticSemiring<double> sr;
  auto a = testref::random_matrix<double>(kN, kN, 0.1, 81);
  const auto u = testref::random_vector<double>(kN, 1.0, 82);  // dense: pull

  auto run = [&] {
    Vector<double> w(kN);
    gbtl::mxv(w, gbtl::NoMask{}, gbtl::NoAccumulate{}, sr,
              gbtl::transpose(a), u);
    return w;
  };
  auto [scalar, simd] = both(run);
  EXPECT_TRUE(scalar == simd);

  a.setElement(2, 2, 77.0);
  auto [scalar2, simd2] = both(run);
  EXPECT_TRUE(scalar2 == simd2) << "stale cached transpose after mutation";
  EXPECT_FALSE(scalar == scalar2) << "mutation had no effect — bad test";
}

// ---------------------------------------------------------------------------
// eWise / apply / reduce dense fast paths (and their scalar fallbacks)
// ---------------------------------------------------------------------------

TEST_F(KernelProperties, EwiseApplyReduceScalarVsSimd) {
  for (const auto& [uname, u] : adversarial_vectors()) {
    for (const auto& [vname, v] : adversarial_vectors()) {
      auto [sa, va] = both([&] {
        Vector<double> w(kN);
        gbtl::eWiseAdd(w, gbtl::NoMask{}, gbtl::NoAccumulate{},
                       gbtl::Plus<double>{}, u, v);
        return w;
      });
      EXPECT_TRUE(sa == va) << "eWiseAdd Plus: u=" << uname << " v=" << vname;

      auto [sm, vm] = both([&] {
        Vector<double> w(kN);
        gbtl::eWiseMult(w, gbtl::NoMask{}, gbtl::NoAccumulate{},
                        gbtl::Times<double>{}, u, v);
        return w;
      });
      EXPECT_TRUE(sm == vm)
          << "eWiseMult Times: u=" << uname << " v=" << vname;

      // Min has NO vector form on purpose (vminpd tie semantics) — the
      // simd backend must fall back and still agree.
      auto [smin, vmin] = both([&] {
        Vector<double> w(kN);
        gbtl::eWiseAdd(w, gbtl::NoMask{}, gbtl::NoAccumulate{},
                       gbtl::Min<double>{}, u, v);
        return w;
      });
      EXPECT_TRUE(smin == vmin)
          << "eWiseAdd Min: u=" << uname << " v=" << vname;
    }

    auto [sap, vap] = both([&] {
      Vector<double> w(kN);
      gbtl::apply(w, gbtl::NoMask{}, gbtl::NoAccumulate{},
                  gbtl::BinaryOpBind2nd<double, gbtl::Times<double>>(0.85),
                  u);
      return w;
    });
    EXPECT_TRUE(sap == vap) << "apply Times-bind2nd: u=" << uname;

    auto [sneg, vneg] = both([&] {
      Vector<double> w(kN);
      gbtl::apply(w, gbtl::NoMask{}, gbtl::NoAccumulate{},
                  gbtl::AdditiveInverse<double>{}, u);
      return w;
    });
    EXPECT_TRUE(sneg == vneg) << "apply AdditiveInverse: u=" << uname;

    auto [sred, vred] = both([&] {
      double acc = -1.0;
      gbtl::reduce(acc, gbtl::NoAccumulate{}, gbtl::PlusMonoid<double>{}, u);
      return acc;
    });
    EXPECT_EQ(sred, vred) << "reduce Plus: u=" << uname;
  }
}

// The simd backend short-circuits two matrix-apply shapes: same-type
// Identity (container copy) and aliased C = f(C) (in-place value
// overwrite, no staging). Both must be bit-identical to the staged scalar
// path, and the in-place form must invalidate the transpose snapshot like
// any other mutator.
TEST_F(KernelProperties, MatrixApplyFastPathsScalarVsSimd) {
  for (const auto& [name, a] : adversarial_matrices()) {
    // Identity copy (not aliased).
    auto [sid, vid] = both([&] {
      Matrix<double> c(kN, kN);
      gbtl::apply(c, gbtl::NoMask{}, gbtl::NoAccumulate{},
                  gbtl::Identity<double>{}, a);
      return c;
    });
    EXPECT_TRUE(sid == vid) << "apply Identity copy: a=" << name;
    EXPECT_TRUE(csr_invariants_hold(vid)) << "a=" << name;

    // Aliased in-place rescale (PageRank's damping step shape).
    auto [ssc, vsc] = both([&] {
      Matrix<double> c(a);
      gbtl::apply(c, gbtl::NoMask{}, gbtl::NoAccumulate{},
                  gbtl::BinaryOpBind2nd<double, gbtl::Times<double>>(0.85),
                  c);
      return c;
    });
    EXPECT_TRUE(ssc == vsc) << "aliased apply Times-bind2nd: a=" << name;
    EXPECT_TRUE(csr_invariants_hold(vsc)) << "a=" << name;

    // normalize_rows takes an in-place route under simd.
    auto [snr, vnr] = both([&] {
      Matrix<double> c(a);
      gbtl::normalize_rows(c);
      return c;
    });
    EXPECT_TRUE(snr == vnr) << "normalize_rows: a=" << name;
  }

  // transform_rows-backed mutation must drop the cached transpose: pull a
  // dense mxv (seeding the snapshot), rescale in place, pull again.
  const gbtl::ArithmeticSemiring<double> sr;
  auto a = testref::random_matrix<double>(kN, kN, 0.1, 83);
  const auto u = testref::random_vector<double>(kN, 1.0, 84);
  auto run = [&] {
    Vector<double> w(kN);
    gbtl::mxv(w, gbtl::NoMask{}, gbtl::NoAccumulate{}, sr,
              gbtl::transpose(a), u);
    return w;
  };
  auto [s1, v1] = both(run);
  EXPECT_TRUE(s1 == v1);
  {
    gbtl::detail::BackendScope simd_scope(gbtl::detail::Backend::kSimd);
    gbtl::apply(a, gbtl::NoMask{}, gbtl::NoAccumulate{},
                gbtl::BinaryOpBind2nd<double, gbtl::Times<double>>(2.0), a);
  }
  auto [s2, v2] = both(run);
  EXPECT_TRUE(s2 == v2) << "stale cached transpose after in-place apply";
  EXPECT_FALSE(s1 == s2) << "in-place apply had no effect — bad test";
}

}  // namespace
