#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "sketch/distinct_estimator.h"
#include "source/data_source.h"
#include "source/universe.h"

namespace ube {
namespace {

DataSource MakeSource(const std::string& name, int64_t cardinality,
                      uint64_t first_id = 0, uint64_t count = 0) {
  DataSource s(name, SourceSchema({"title"}));
  s.set_cardinality(cardinality);
  if (count > 0) {
    auto sig = std::make_unique<ExactSignature>();
    for (uint64_t i = first_id; i < first_id + count; ++i) sig->Add(i);
    s.set_signature(std::move(sig));
  }
  return s;
}

// ------------------------------ DataSource -------------------------------

TEST(DataSourceTest, BasicFields) {
  DataSource s("shop.example", SourceSchema({"title", "price"}));
  EXPECT_EQ(s.name(), "shop.example");
  EXPECT_EQ(s.schema().num_attributes(), 2);
  EXPECT_EQ(s.cardinality(), 0);
  s.set_cardinality(42);
  EXPECT_EQ(s.cardinality(), 42);
  EXPECT_FALSE(s.has_signature());
}

TEST(DataSourceTest, CharacteristicsOverwriteAndLookup) {
  DataSource s("x", SourceSchema({"a"}));
  EXPECT_EQ(s.GetCharacteristic("mttf"), std::nullopt);
  s.SetCharacteristic("mttf", 10.0);
  s.SetCharacteristic("latency", 3.5);
  EXPECT_EQ(s.GetCharacteristic("mttf"), 10.0);
  s.SetCharacteristic("mttf", 20.0);  // overwrite
  EXPECT_EQ(s.GetCharacteristic("mttf"), 20.0);
  EXPECT_EQ(s.characteristics().size(), 2u);
}

TEST(DataSourceDeathTest, SignatureOnUncooperativeSourceAborts) {
  DataSource s("x", SourceSchema({"a"}));
  EXPECT_DEATH(s.signature(), "non-cooperating");
}

TEST(DataSourceTest, MutableSchema) {
  DataSource s("x", SourceSchema({"a"}));
  *s.mutable_schema() = SourceSchema({"a", "b"});
  EXPECT_EQ(s.schema().num_attributes(), 2);
}

// ------------------------------- Universe --------------------------------

TEST(UniverseTest, AddAndAccess) {
  Universe u;
  EXPECT_TRUE(u.empty());
  SourceId a = u.AddSource(MakeSource("a", 10));
  SourceId b = u.AddSource(MakeSource("b", 20));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(u.num_sources(), 2);
  EXPECT_FALSE(u.empty());
  EXPECT_EQ(u.source(0).name(), "a");
  EXPECT_EQ(u.TotalCardinality(), 30);
  EXPECT_EQ(u.AllIds(), (std::vector<SourceId>{0, 1}));
}

TEST(UniverseTest, FindByName) {
  Universe u;
  u.AddSource(MakeSource("alpha", 1));
  u.AddSource(MakeSource("beta", 1));
  Result<SourceId> found = u.FindByName("beta");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), 1);
  EXPECT_EQ(u.FindByName("gamma").status().code(), StatusCode::kNotFound);
}

TEST(UniverseTest, FindByNameReturnsFirstMatch) {
  Universe u;
  u.AddSource(MakeSource("dup", 1));
  u.AddSource(MakeSource("dup", 2));
  Result<SourceId> found = u.FindByName("dup");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), 0);
}

TEST(UniverseTest, UnionEstimateOverCooperatingSources) {
  Universe u;
  u.AddSource(MakeSource("a", 10, 0, 10));    // ids [0, 10)
  u.AddSource(MakeSource("b", 10, 5, 10));    // ids [5, 15)
  u.AddSource(MakeSource("n", 10));           // uncooperative
  EXPECT_DOUBLE_EQ(u.UnionCardinalityEstimate(), 15.0);
  EXPECT_DOUBLE_EQ(u.FreshUnionCardinalityEstimate(), 15.0);
}

TEST(UniverseTest, UnionEstimateZeroWhenNoneCooperate) {
  Universe u;
  u.AddSource(MakeSource("a", 10));
  EXPECT_DOUBLE_EQ(u.UnionCardinalityEstimate(), 0.0);
  EXPECT_DOUBLE_EQ(u.FreshUnionCardinalityEstimate(), 0.0);
}

// The universe keeps no derived state: every aggregate is recomputed from
// the sources on each call, so a mutation shows on the next read.
TEST(UniverseTest, UnionEstimateRecomputedAfterAddSource) {
  Universe u;
  u.AddSource(MakeSource("a", 10, 0, 10));
  EXPECT_DOUBLE_EQ(u.UnionCardinalityEstimate(), 10.0);
  u.AddSource(MakeSource("b", 10, 100, 5));
  EXPECT_DOUBLE_EQ(u.UnionCardinalityEstimate(), 15.0);
}

TEST(UniverseTest, UnionEstimateRecomputedAfterMutableAccess) {
  Universe u;
  u.AddSource(MakeSource("a", 10, 0, 10));
  u.AddSource(MakeSource("b", 10, 100, 5));
  EXPECT_DOUBLE_EQ(u.UnionCardinalityEstimate(), 15.0);
  auto sig = std::make_unique<ExactSignature>();
  for (uint64_t i = 0; i < 3; ++i) sig->Add(i);
  u.mutable_source(0)->set_signature(std::move(sig));
  EXPECT_DOUBLE_EQ(u.UnionCardinalityEstimate(), 8.0);
  EXPECT_DOUBLE_EQ(u.FreshUnionCardinalityEstimate(), 8.0);
  // A fresh but unavailable source leaves the fresh union only.
  u.mutable_source(1)->set_available(false);
  EXPECT_DOUBLE_EQ(u.UnionCardinalityEstimate(), 8.0);
  EXPECT_DOUBLE_EQ(u.FreshUnionCardinalityEstimate(), 3.0);
  EXPECT_EQ(u.FreshCardinality(), 10);
}

TEST(UniverseDeathTest, OutOfRangeAccess) {
  Universe u;
  u.AddSource(MakeSource("a", 1));
  EXPECT_DEATH(u.source(1), "out of range");
  EXPECT_DEATH(u.source(-1), "out of range");
  EXPECT_DEATH(u.mutable_source(1), "out of range");
}

TEST(UniverseTest, EmptyUniverseAggregates) {
  Universe u;
  EXPECT_EQ(u.TotalCardinality(), 0);
  EXPECT_EQ(u.FreshCardinality(), 0);
  EXPECT_DOUBLE_EQ(u.UnionCardinalityEstimate(), 0.0);
  EXPECT_DOUBLE_EQ(u.FreshUnionCardinalityEstimate(), 0.0);
  EXPECT_TRUE(u.AllIds().empty());
}

}  // namespace
}  // namespace ube
