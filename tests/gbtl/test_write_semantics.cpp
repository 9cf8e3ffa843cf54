// Exhaustive parameterized sweep of the GraphBLAS output-write discipline
// (DESIGN.md §6): accumulate × mask kind × replace/merge, cross-checked
// against a transparently-written dense model for every stored/absent
// combination of C and T. Every op commits through the drivers' one
// commit; the sweep reaches it through extract with AllIndices, whose
// result T is exactly its input.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "gbtl/gbtl.hpp"

namespace {

using namespace gbtl;  // NOLINT

enum class MaskMode { kNone, kPlain, kComp };
enum class AccumMode { kNone, kPlus };

struct WriteCase {
  MaskMode mask;
  AccumMode accum;
  OutputControl outp;
  // gtest names each case from a byte dump of the parameter, so the
  // padding is spelled out and zeroed: left implicit it holds stack
  // garbage and the test names change from one build to the next.
  std::uint8_t pad[3] = {};
};

/// Dense model of the discipline for one position.
std::optional<int> model(std::optional<int> c, std::optional<int> t,
                         bool masked_in, AccumMode accum,
                         OutputControl outp) {
  if (!masked_in) {
    return outp == OutputControl::kMerge ? c : std::nullopt;
  }
  if (accum == AccumMode::kNone) return t;
  if (c && t) return *c + *t;
  if (t) return t;
  return c;
}

class WriteSemantics : public ::testing::TestWithParam<WriteCase> {};

TEST_P(WriteSemantics, VectorAllCombinations) {
  const auto p = GetParam();
  // Position layout: every combination of (c present, t present, mask true)
  // appears at least once in 8 slots.
  Vector<int> c(8), t(8);
  Vector<bool> mask(8);
  for (IndexType i = 0; i < 8; ++i) {
    if (i & 1) c.setElement(i, 100 + static_cast<int>(i));
    if (i & 2) t.setElement(i, 1 + static_cast<int>(i));
    if (i & 4) mask.setElement(i, true);
  }

  Vector<int> out = c;
  auto run = [&](const auto& m) {
    if (p.accum == AccumMode::kNone) {
      extract(out, m, NoAccumulate{}, t, AllIndices{}, p.outp);
    } else {
      extract(out, m, Plus<int>{}, t, AllIndices{}, p.outp);
    }
  };
  switch (p.mask) {
    case MaskMode::kNone:
      run(NoMask{});
      break;
    case MaskMode::kPlain:
      run(mask);
      break;
    case MaskMode::kComp:
      run(complement(mask));
      break;
  }

  for (IndexType i = 0; i < 8; ++i) {
    bool masked_in = true;
    if (p.mask == MaskMode::kPlain) masked_in = (i & 4) != 0;
    if (p.mask == MaskMode::kComp) masked_in = (i & 4) == 0;
    const std::optional<int> cv =
        (i & 1) ? std::optional<int>(100 + static_cast<int>(i))
                : std::nullopt;
    const std::optional<int> tv =
        (i & 2) ? std::optional<int>(1 + static_cast<int>(i)) : std::nullopt;
    const auto want = model(cv, tv, masked_in, p.accum, p.outp);
    EXPECT_EQ(out.hasElement(i), want.has_value()) << "slot " << i;
    if (want) EXPECT_EQ(out.extractElement(i), *want) << "slot " << i;
  }
}

TEST_P(WriteSemantics, MatrixAllCombinations) {
  const auto p = GetParam();
  // Same 8-combination layout spread over a 2x4 matrix.
  Matrix<int> c(2, 4), t(2, 4);
  Matrix<bool> mask(2, 4);
  auto pos = [](IndexType k) {
    return std::pair<IndexType, IndexType>{k / 4, k % 4};
  };
  for (IndexType k = 0; k < 8; ++k) {
    auto [i, j] = pos(k);
    if (k & 1) c.setElement(i, j, 100 + static_cast<int>(k));
    if (k & 2) t.setElement(i, j, 1 + static_cast<int>(k));
    if (k & 4) mask.setElement(i, j, true);
  }

  Matrix<int> out = c;
  auto run = [&](const auto& m) {
    if (p.accum == AccumMode::kNone) {
      extract(out, m, NoAccumulate{}, t, AllIndices{}, AllIndices{}, p.outp);
    } else {
      extract(out, m, Plus<int>{}, t, AllIndices{}, AllIndices{}, p.outp);
    }
  };
  switch (p.mask) {
    case MaskMode::kNone:
      run(NoMask{});
      break;
    case MaskMode::kPlain:
      run(mask);
      break;
    case MaskMode::kComp:
      run(complement(mask));
      break;
  }

  for (IndexType k = 0; k < 8; ++k) {
    auto [i, j] = pos(k);
    bool masked_in = true;
    if (p.mask == MaskMode::kPlain) masked_in = (k & 4) != 0;
    if (p.mask == MaskMode::kComp) masked_in = (k & 4) == 0;
    const std::optional<int> cv =
        (k & 1) ? std::optional<int>(100 + static_cast<int>(k))
                : std::nullopt;
    const std::optional<int> tv =
        (k & 2) ? std::optional<int>(1 + static_cast<int>(k)) : std::nullopt;
    const auto want = model(cv, tv, masked_in, p.accum, p.outp);
    EXPECT_EQ(out.hasElement(i, j), want.has_value()) << "slot " << k;
    if (want) EXPECT_EQ(out.extractElement(i, j), *want) << "slot " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, WriteSemantics,
    ::testing::Values(
        WriteCase{MaskMode::kNone, AccumMode::kNone, OutputControl::kMerge},
        WriteCase{MaskMode::kNone, AccumMode::kNone,
                  OutputControl::kReplace},
        WriteCase{MaskMode::kNone, AccumMode::kPlus, OutputControl::kMerge},
        WriteCase{MaskMode::kPlain, AccumMode::kNone,
                  OutputControl::kMerge},
        WriteCase{MaskMode::kPlain, AccumMode::kNone,
                  OutputControl::kReplace},
        WriteCase{MaskMode::kPlain, AccumMode::kPlus,
                  OutputControl::kMerge},
        WriteCase{MaskMode::kPlain, AccumMode::kPlus,
                  OutputControl::kReplace},
        WriteCase{MaskMode::kComp, AccumMode::kNone, OutputControl::kMerge},
        WriteCase{MaskMode::kComp, AccumMode::kNone,
                  OutputControl::kReplace},
        WriteCase{MaskMode::kComp, AccumMode::kPlus,
                  OutputControl::kReplace}));

TEST(WriteSemantics, StoredFalseMaskValueIsMaskedOut) {
  Vector<int> c(2), t(2);
  t.setElement(0, 1);
  t.setElement(1, 2);
  Vector<bool> mask(2);
  mask.setElement(0, true);
  mask.setElement(1, false);  // stored false is NOT masked in
  extract(c, mask, NoAccumulate{}, t, AllIndices{});
  EXPECT_TRUE(c.hasElement(0));
  EXPECT_FALSE(c.hasElement(1));
}

TEST(WriteSemantics, NonBoolMaskUsesTruthiness) {
  Vector<int> c(3), t(3);
  for (IndexType i = 0; i < 3; ++i) t.setElement(i, 7);
  Vector<double> mask(3);
  mask.setElement(0, 2.5);  // truthy
  mask.setElement(1, 0.0);  // falsy stored value
  // The public op coerces the mask to a boolean copy (BoolMask).
  assign(c, mask, NoAccumulate{}, t, AllIndices{});
  EXPECT_TRUE(c.hasElement(0));
  EXPECT_FALSE(c.hasElement(1));
  EXPECT_FALSE(c.hasElement(2));
}

}  // namespace
