#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "aim/common/random.h"
#include "aim/rta/simd.h"

namespace aim {
namespace {

/// Dispatch level in effect at process start, before any test calls
/// SetLevel — what the AIM_SIMD_LEVEL env override (if any) produced.
const simd::SimdLevel kStartupLevel = simd::ActiveLevel();

/// Restores the active dispatch tier on scope exit, so cross-tier tests
/// cannot leak a forced level into later tests.
struct LevelGuard {
  simd::SimdLevel prev = simd::ActiveLevel();
  ~LevelGuard() { simd::SetLevel(prev); }
};

/// Every tier this binary+CPU can actually run (always includes kScalar).
std::vector<simd::SimdLevel> SupportedLevels() {
  std::vector<simd::SimdLevel> levels = {simd::SimdLevel::kScalar};
  if (simd::MaxSupportedLevel() >= simd::SimdLevel::kAvx2) {
    levels.push_back(simd::SimdLevel::kAvx2);
  }
  if (simd::MaxSupportedLevel() >= simd::SimdLevel::kAvx512) {
    levels.push_back(simd::SimdLevel::kAvx512);
  }
  return levels;
}

constexpr CmpOp kAllOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                             CmpOp::kGe, CmpOp::kEq, CmpOp::kNe};
constexpr ValueType kAllTypes[] = {ValueType::kInt32,  ValueType::kUInt32,
                                   ValueType::kInt64,  ValueType::kUInt64,
                                   ValueType::kFloat,  ValueType::kDouble};

/// Random column with repeated values (so kEq/kNe hit) and extremes.
std::vector<std::uint8_t> RandomColumn(ValueType type, std::uint32_t count,
                                       Random* rng) {
  std::vector<std::uint8_t> col(count * ValueTypeSize(type));
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::int64_t small = rng->UniformRange(-20, 20);
    switch (type) {
      case ValueType::kInt32: {
        std::int32_t v = rng->OneIn(20)
                             ? std::numeric_limits<std::int32_t>::min()
                             : static_cast<std::int32_t>(small);
        std::memcpy(col.data() + i * 4, &v, 4);
        break;
      }
      case ValueType::kUInt32: {
        std::uint32_t v = rng->OneIn(20)
                              ? std::numeric_limits<std::uint32_t>::max()
                              : static_cast<std::uint32_t>(small + 20);
        std::memcpy(col.data() + i * 4, &v, 4);
        break;
      }
      case ValueType::kInt64: {
        std::int64_t v = small * 1000000007LL;
        std::memcpy(col.data() + i * 8, &v, 8);
        break;
      }
      case ValueType::kUInt64: {
        std::uint64_t v = static_cast<std::uint64_t>(small + 20) * 999983ULL;
        std::memcpy(col.data() + i * 8, &v, 8);
        break;
      }
      case ValueType::kFloat: {
        float v = static_cast<float>(small) * 0.5f;
        std::memcpy(col.data() + i * 4, &v, 4);
        break;
      }
      case ValueType::kDouble: {
        double v = static_cast<double>(small) * 0.25;
        std::memcpy(col.data() + i * 8, &v, 8);
        break;
      }
    }
  }
  return col;
}

Value ConstantFor(ValueType type, std::int64_t raw) {
  switch (type) {
    case ValueType::kInt32:
      return Value::Int32(static_cast<std::int32_t>(raw));
    case ValueType::kUInt32:
      return Value::UInt32(static_cast<std::uint32_t>(raw + 20));
    case ValueType::kInt64:
      return Value::Int64(raw * 1000000007LL);
    case ValueType::kUInt64:
      return Value::UInt64(static_cast<std::uint64_t>(raw + 20) * 999983ULL);
    case ValueType::kFloat:
      return Value::Float(static_cast<float>(raw) * 0.5f);
    case ValueType::kDouble:
      return Value::Double(static_cast<double>(raw) * 0.25);
  }
  return Value();
}

/// gtest names each case by the raw bytes of its param, so the padding
/// after `type` is spelled out and zeroed; left implicit, it carried stack
/// garbage (and ASLR'd addresses) into the test names.
struct FilterCase {
  ValueType type;
  std::uint8_t pad[3];
  std::uint32_t count;
};
static_assert(std::has_unique_object_representations_v<FilterCase>,
              "FilterCase must have no implicit padding");

class SimdFilterTest : public ::testing::TestWithParam<FilterCase> {};

TEST_P(SimdFilterTest, MatchesScalarReferenceAtEveryTier) {
  const FilterCase c = GetParam();
  LevelGuard guard;
  for (simd::SimdLevel level : SupportedLevels()) {
    ASSERT_EQ(simd::SetLevel(level), level);
    Random rng(static_cast<std::uint64_t>(c.count) * 31 +
               static_cast<std::uint64_t>(c.type));
    const std::vector<std::uint8_t> col = RandomColumn(c.type, c.count, &rng);

    for (CmpOp op : kAllOps) {
      for (int k = 0; k < 5; ++k) {
        const Value constant = ConstantFor(c.type, rng.UniformRange(-20, 20));
        std::vector<std::uint8_t> m_simd(c.count, 0xcc);
        std::vector<std::uint8_t> m_ref(c.count, 0xcc);
        simd::FilterColumn(c.type, col.data(), c.count, op, constant,
                           m_simd.data(), /*combine_and=*/false);
        simd::FilterColumnScalar(c.type, col.data(), c.count, op, constant,
                                 m_ref.data(), false);
        ASSERT_EQ(m_simd, m_ref)
            << simd::SimdLevelName(level) << " " << ValueTypeName(c.type)
            << " " << CmpOpName(op) << " n=" << c.count;

        // Combine-and on top of a random prior mask.
        std::vector<std::uint8_t> prior(c.count);
        for (auto& b : prior) b = rng.OneIn(2) ? 0xff : 0x00;
        std::vector<std::uint8_t> a_simd = prior, a_ref = prior;
        simd::FilterColumn(c.type, col.data(), c.count, op, constant,
                           a_simd.data(), /*combine_and=*/true);
        simd::FilterColumnScalar(c.type, col.data(), c.count, op, constant,
                                 a_ref.data(), true);
        ASSERT_EQ(a_simd, a_ref) << simd::SimdLevelName(level);
      }
    }
  }
}

class SimdAggTest : public ::testing::TestWithParam<FilterCase> {};

TEST_P(SimdAggTest, MatchesScalarReferenceAtEveryTier) {
  const FilterCase c = GetParam();
  LevelGuard guard;
  for (simd::SimdLevel level : SupportedLevels()) {
    ASSERT_EQ(simd::SetLevel(level), level);
    Random rng(static_cast<std::uint64_t>(c.count) * 77 +
               static_cast<std::uint64_t>(c.type));
    const std::vector<std::uint8_t> col = RandomColumn(c.type, c.count, &rng);
    std::vector<std::uint8_t> mask(c.count);
    for (auto& b : mask) b = rng.OneIn(3) ? 0x00 : 0xff;

    simd::AggAccum fast, ref;
    simd::MaskedAggregate(c.type, col.data(), mask.data(), c.count, &fast);
    simd::MaskedAggregateScalar(c.type, col.data(), mask.data(), c.count,
                                &ref);
    EXPECT_EQ(fast.count, ref.count) << simd::SimdLevelName(level);
    EXPECT_DOUBLE_EQ(fast.min, ref.min) << simd::SimdLevelName(level);
    EXPECT_DOUBLE_EQ(fast.max, ref.max) << simd::SimdLevelName(level);
    const double tol = 1e-9 * (1.0 + std::abs(ref.sum));
    EXPECT_NEAR(fast.sum, ref.sum, tol) << simd::SimdLevelName(level);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndSizes, SimdFilterTest,
    ::testing::ValuesIn([] {
      std::vector<FilterCase> cases;
      for (ValueType t : kAllTypes) {
        for (std::uint32_t n : {0u, 1u, 7u, 8u, 9u, 64u, 1000u, 3072u}) {
          cases.push_back({t, {}, n});
        }
      }
      return cases;
    }()));

INSTANTIATE_TEST_SUITE_P(
    TypesAndSizes, SimdAggTest,
    ::testing::ValuesIn([] {
      std::vector<FilterCase> cases;
      for (ValueType t : kAllTypes) {
        for (std::uint32_t n : {0u, 1u, 7u, 8u, 9u, 64u, 1000u, 3072u}) {
          cases.push_back({t, {}, n});
        }
      }
      return cases;
    }()));

TEST(SimdMaskTest, CountMask) {
  Random rng(9);
  for (std::uint32_t n : {0u, 1u, 5u, 8u, 63u, 64u, 1000u}) {
    std::vector<std::uint8_t> mask(n);
    std::uint32_t expected = 0;
    for (auto& b : mask) {
      b = rng.OneIn(2) ? 0xff : 0x00;
      expected += b != 0;
    }
    EXPECT_EQ(simd::CountMask(mask.data(), n), expected) << "n=" << n;
  }
}

TEST(SimdMaskTest, FillAndOr) {
  std::vector<std::uint8_t> a(10, 0x00), b(10, 0x00);
  simd::FillMask(a.data(), 10);
  EXPECT_EQ(simd::CountMask(a.data(), 10), 10u);
  b[3] = 0xff;
  std::vector<std::uint8_t> c(10, 0x00);
  simd::MaskOr(c.data(), b.data(), 10);
  EXPECT_EQ(simd::CountMask(c.data(), 10), 1u);
  EXPECT_EQ(c[3], 0xff);
}

TEST(SimdMaskTest, AggAccumMerge) {
  simd::AggAccum a, b;
  a.sum = 10;
  a.min = 1;
  a.max = 5;
  a.count = 3;
  b.sum = 20;
  b.min = 0.5;
  b.max = 9;
  b.count = 4;
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.sum, 30.0);
  EXPECT_DOUBLE_EQ(a.min, 0.5);
  EXPECT_DOUBLE_EQ(a.max, 9.0);
  EXPECT_EQ(a.count, 7);
}

TEST(SimdTest, ReportsAvx2Availability) {
  // On the CI machine this is informative; both paths are covered by the
  // reference-equivalence tests either way.
  (void)simd::HasAvx2();
  (void)simd::HasAvx512();
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Cross-tier dispatch: special values and the level API itself.
// ---------------------------------------------------------------------------

template <typename T>
std::vector<std::uint8_t> AsBytes(const std::vector<T>& vals) {
  std::vector<std::uint8_t> out(vals.size() * sizeof(T));
  std::memcpy(out.data(), vals.data(), out.size());
  return out;
}

/// NaN / infinity semantics must be bit-identical across tiers: NaN
/// compares false for every ordered op and true for kNe; min/max skip NaN;
/// the sum propagates NaN. Column length 19 exercises a non-vector-width
/// tail at both 8- and 16-lane widths.
TEST(SimdDispatchTest, FloatSpecialValueParityAcrossTiers) {
  const float inf = std::numeric_limits<float>::infinity();
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> vals = {0.5f, -1.0f, qnan, inf,  -inf, 3.0f, qnan,
                             2.5f, -2.5f, inf,  qnan, 0.0f, -0.0f};
  while (vals.size() < 19) vals.push_back(static_cast<float>(vals.size()));
  const std::vector<std::uint8_t> col = AsBytes(vals);
  const auto n = static_cast<std::uint32_t>(vals.size());

  LevelGuard guard;
  for (simd::SimdLevel level : SupportedLevels()) {
    ASSERT_EQ(simd::SetLevel(level), level);
    for (CmpOp op : kAllOps) {
      for (float cv : {0.0f, 2.5f, inf, -inf}) {
        std::vector<std::uint8_t> got(n, 0xcc), want(n, 0xcc);
        simd::FilterColumn(ValueType::kFloat, col.data(), n, op,
                           Value::Float(cv), got.data(), false);
        simd::FilterColumnScalar(ValueType::kFloat, col.data(), n, op,
                                 Value::Float(cv), want.data(), false);
        ASSERT_EQ(got, want) << simd::SimdLevelName(level) << " "
                             << CmpOpName(op) << " c=" << cv;
      }
    }

    // Aggregation with every row selected: min/max skip the NaNs but keep
    // the infinities; the sum is NaN-poisoned exactly like the scalar ref.
    std::vector<std::uint8_t> mask(n, 0xff);
    simd::AggAccum got, want;
    simd::MaskedAggregate(ValueType::kFloat, col.data(), mask.data(), n,
                          &got);
    simd::MaskedAggregateScalar(ValueType::kFloat, col.data(), mask.data(),
                                n, &want);
    EXPECT_EQ(got.count, want.count) << simd::SimdLevelName(level);
    EXPECT_DOUBLE_EQ(got.min, want.min) << simd::SimdLevelName(level);
    EXPECT_DOUBLE_EQ(got.max, want.max) << simd::SimdLevelName(level);
    EXPECT_TRUE(std::isnan(got.sum) && std::isnan(want.sum))
        << simd::SimdLevelName(level);

    // All-false mask: min/max stay at their sentinels on every tier.
    std::fill(mask.begin(), mask.end(), 0);
    simd::AggAccum none;
    simd::MaskedAggregate(ValueType::kFloat, col.data(), mask.data(), n,
                          &none);
    EXPECT_EQ(none.count, 0) << simd::SimdLevelName(level);
    EXPECT_DOUBLE_EQ(none.min, std::numeric_limits<double>::infinity());
    EXPECT_DOUBLE_EQ(none.max, -std::numeric_limits<double>::infinity());
  }
}

/// Integer extremes: INT32_MIN/MAX (the vector tiers' min/max sentinel
/// values appearing as real data) and UINT32_MAX must aggregate and filter
/// identically on every tier, including with an all-false mask.
TEST(SimdDispatchTest, IntegerSaturationParityAcrossTiers) {
  std::vector<std::int32_t> ivals = {std::numeric_limits<std::int32_t>::max(),
                                     std::numeric_limits<std::int32_t>::min(),
                                     0,
                                     -1,
                                     1,
                                     std::numeric_limits<std::int32_t>::max(),
                                     std::numeric_limits<std::int32_t>::min()};
  while (ivals.size() < 21) {
    ivals.push_back(static_cast<std::int32_t>(ivals.size()) - 10);
  }
  const std::vector<std::uint8_t> col = AsBytes(ivals);
  const auto n = static_cast<std::uint32_t>(ivals.size());

  LevelGuard guard;
  for (simd::SimdLevel level : SupportedLevels()) {
    ASSERT_EQ(simd::SetLevel(level), level);
    for (CmpOp op : kAllOps) {
      for (std::int32_t cv : {std::numeric_limits<std::int32_t>::min(),
                              std::numeric_limits<std::int32_t>::max(), 0}) {
        std::vector<std::uint8_t> got(n, 0xcc), want(n, 0xcc);
        simd::FilterColumn(ValueType::kInt32, col.data(), n, op,
                           Value::Int32(cv), got.data(), false);
        simd::FilterColumnScalar(ValueType::kInt32, col.data(), n, op,
                                 Value::Int32(cv), want.data(), false);
        ASSERT_EQ(got, want) << simd::SimdLevelName(level) << " "
                             << CmpOpName(op) << " c=" << cv;
      }
    }

    for (bool select_all : {true, false}) {
      std::vector<std::uint8_t> mask(n, select_all ? 0xff : 0x00);
      simd::AggAccum got, want;
      simd::MaskedAggregate(ValueType::kInt32, col.data(), mask.data(), n,
                            &got);
      simd::MaskedAggregateScalar(ValueType::kInt32, col.data(), mask.data(),
                                  n, &want);
      EXPECT_EQ(got.count, want.count) << simd::SimdLevelName(level);
      EXPECT_DOUBLE_EQ(got.min, want.min) << simd::SimdLevelName(level);
      EXPECT_DOUBLE_EQ(got.max, want.max) << simd::SimdLevelName(level);
      EXPECT_DOUBLE_EQ(got.sum, want.sum) << simd::SimdLevelName(level);
    }
  }
}

TEST(SimdDispatchTest, LevelNamesRoundTrip) {
  for (simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2,
        simd::SimdLevel::kAvx512}) {
    simd::SimdLevel parsed;
    ASSERT_TRUE(simd::ParseSimdLevel(simd::SimdLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  simd::SimdLevel out;
  EXPECT_FALSE(simd::ParseSimdLevel("sse9", &out));
  EXPECT_FALSE(simd::ParseSimdLevel(nullptr, &out));
}

TEST(SimdDispatchTest, SetLevelClampsToSupported) {
  LevelGuard guard;
  const simd::SimdLevel max = simd::MaxSupportedLevel();
  // Requesting the highest tier yields at most what the host supports.
  EXPECT_EQ(simd::SetLevel(simd::SimdLevel::kAvx512),
            max >= simd::SimdLevel::kAvx512 ? simd::SimdLevel::kAvx512 : max);
  // Scalar is always available and always honored.
  EXPECT_EQ(simd::SetLevel(simd::SimdLevel::kScalar),
            simd::SimdLevel::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), simd::SimdLevel::kScalar);
}

TEST(SimdDispatchTest, EnvOverrideRespected) {
  const char* env = std::getenv("AIM_SIMD_LEVEL");
  if (env == nullptr) {
    GTEST_SKIP() << "AIM_SIMD_LEVEL not set (CI sets it per dispatch leg)";
  }
  simd::SimdLevel requested;
  if (!simd::ParseSimdLevel(env, &requested)) {
    GTEST_SKIP() << "unrecognized AIM_SIMD_LEVEL spelling: " << env;
  }
  const simd::SimdLevel expect =
      requested > simd::MaxSupportedLevel() ? simd::MaxSupportedLevel()
                                            : requested;
  // kStartupLevel snapshots ActiveLevel before any test forces a tier.
  EXPECT_EQ(kStartupLevel, expect);
}

}  // namespace
}  // namespace aim
