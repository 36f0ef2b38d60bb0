#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qef/qef.h"
#include "qef/quality_model.h"
#include "sketch/distinct_estimator.h"
#include "source/universe.h"

namespace ube {
namespace {

// Builds a source with an exact signature over [first, first+count) ids and
// the given nominal cardinality (defaults to count).
DataSource MakeSource(const std::string& name, uint64_t first, uint64_t count,
                      int64_t cardinality = -1, bool cooperate = true) {
  DataSource s(name, SourceSchema({"title"}));
  s.set_cardinality(cardinality >= 0 ? cardinality
                                     : static_cast<int64_t>(count));
  if (cooperate) {
    auto sig = std::make_unique<ExactSignature>();
    for (uint64_t i = first; i < first + count; ++i) sig->Add(i);
    s.set_signature(std::move(sig));
  }
  return s;
}

// Universe: A = [0, 100), B = [50, 150), C = [200, 300). |∪U| = 250.
class DataQefTest : public ::testing::Test {
 protected:
  DataQefTest() {
    universe_.AddSource(MakeSource("A", 0, 100));
    universe_.AddSource(MakeSource("B", 50, 100));
    universe_.AddSource(MakeSource("C", 200, 100));
  }

  EvalContext Context(const std::vector<SourceId>& sources) {
    sources_ = sources;
    return model_.MakeContext(universe_, sources_, nullptr);
  }

  Universe universe_;
  QualityModel model_;  // no QEFs needed just for MakeContext
  std::vector<SourceId> sources_;
};

TEST_F(DataQefTest, ContextAggregates) {
  EvalContext ctx = Context({0, 1});
  EXPECT_EQ(ctx.total_cardinality, 200);
  EXPECT_EQ(ctx.cooperating_count, 2);
  EXPECT_EQ(ctx.cooperating_cardinality, 200);
  EXPECT_DOUBLE_EQ(ctx.union_estimate, 150.0);  // exact signatures
}

TEST_F(DataQefTest, CardinalityQef) {
  CardinalityQef card;
  EXPECT_DOUBLE_EQ(card.Evaluate(Context({0})), 100.0 / 300.0);
  EXPECT_DOUBLE_EQ(card.Evaluate(Context({0, 1, 2})), 1.0);
}

TEST_F(DataQefTest, CoverageQef) {
  CoverageQef coverage;
  // |∪{A}| = 100 of 250.
  EXPECT_DOUBLE_EQ(coverage.Evaluate(Context({0})), 100.0 / 250.0);
  // |∪{A,B}| = 150 of 250.
  EXPECT_DOUBLE_EQ(coverage.Evaluate(Context({0, 1})), 150.0 / 250.0);
  EXPECT_DOUBLE_EQ(coverage.Evaluate(Context({0, 1, 2})), 1.0);
}

TEST_F(DataQefTest, RedundancyOverlapFactor) {
  RedundancyQef redundancy;
  // Single source: defined as 1 (no overlap possible).
  EXPECT_DOUBLE_EQ(redundancy.Evaluate(Context({0})), 1.0);
  // A and C are disjoint: o = 200/200 = 1 -> R = (2-1)/(2-1) = 1.
  EXPECT_DOUBLE_EQ(redundancy.Evaluate(Context({0, 2})), 1.0);
  // A and B overlap by 50: o = 200/150 -> R = (2 - 4/3) / 1 = 2/3.
  EXPECT_NEAR(redundancy.Evaluate(Context({0, 1})), 2.0 / 3.0, 1e-9);
}

TEST_F(DataQefTest, RedundancyIdenticalSourcesScoreZero) {
  Universe u;
  u.AddSource(MakeSource("X", 0, 100));
  u.AddSource(MakeSource("Y", 0, 100));
  QualityModel m;
  std::vector<SourceId> sources = {0, 1};
  EvalContext ctx = m.MakeContext(u, sources, nullptr);
  RedundancyQef redundancy;
  // o = 200/100 = 2 = |S| -> R = 0: worst possible, as the paper requires.
  EXPECT_DOUBLE_EQ(redundancy.Evaluate(ctx), 0.0);
}

TEST_F(DataQefTest, RedundancyUnionRatioMode) {
  RedundancyQef ratio(RedundancyQef::Mode::kUnionRatio);
  // |∪{A,B}| / (|A|+|B|) = 150/200.
  EXPECT_NEAR(ratio.Evaluate(Context({0, 1})), 0.75, 1e-9);
  EXPECT_DOUBLE_EQ(ratio.Evaluate(Context({0, 2})), 1.0);
}

TEST_F(DataQefTest, UncooperativeSourcesExcluded) {
  Universe u;
  u.AddSource(MakeSource("A", 0, 100));
  u.AddSource(MakeSource("N", 0, 100, 100, /*cooperate=*/false));
  QualityModel m;
  std::vector<SourceId> both = {0, 1};
  EvalContext ctx = m.MakeContext(u, both, nullptr);
  EXPECT_EQ(ctx.cooperating_count, 1);
  EXPECT_EQ(ctx.total_cardinality, 200);
  EXPECT_EQ(ctx.cooperating_cardinality, 100);
  // Coverage counts only the cooperating source's data.
  CoverageQef coverage;
  EXPECT_DOUBLE_EQ(coverage.Evaluate(ctx), 1.0);  // |∪U| also excludes N
  // Redundancy over a single cooperating source: 1.
  RedundancyQef redundancy;
  EXPECT_DOUBLE_EQ(redundancy.Evaluate(ctx), 1.0);
}

TEST(CoverageQefTest, NoSignaturesAnywhereScoresZero) {
  Universe u;
  u.AddSource(MakeSource("A", 0, 10, 10, /*cooperate=*/false));
  QualityModel m;
  std::vector<SourceId> sources = {0};
  EvalContext ctx = m.MakeContext(u, sources, nullptr);
  CoverageQef coverage;
  EXPECT_DOUBLE_EQ(coverage.Evaluate(ctx), 0.0);
}

// --------------------------- MatchingQualityQef -------------------------

TEST(MatchingQefTest, ReflectsMatchResult) {
  MatchingQualityQef qef;
  MatchResult match;
  match.valid = true;
  match.matching_quality = 0.8;
  EvalContext ctx;
  ctx.match = &match;
  EXPECT_DOUBLE_EQ(qef.Evaluate(ctx), 0.8);
  match.valid = false;
  EXPECT_DOUBLE_EQ(qef.Evaluate(ctx), 0.0);
}

// --------------------------- SchemaCoverageQef --------------------------

TEST(SchemaCoverageQefTest, FractionOfAttributesCovered) {
  Universe u;
  u.AddSource(MakeSource("A", 0, 10));   // 1 attribute each
  u.AddSource(MakeSource("B", 10, 10));
  SchemaCoverageQef qef;
  MatchResult match;
  match.valid = true;
  // Schema covering both attributes: coverage 1.
  match.schema = MediatedSchema(
      {GlobalAttribute({AttributeId{0, 0}, AttributeId{1, 0}})});
  QualityModel m;
  std::vector<SourceId> sources = {0, 1};
  EvalContext ctx = m.MakeContext(u, sources, &match);
  EXPECT_DOUBLE_EQ(qef.Evaluate(ctx), 1.0);
  // Empty schema: coverage 0.
  MatchResult empty;
  empty.valid = true;
  EvalContext ctx2 = m.MakeContext(u, sources, &empty);
  EXPECT_DOUBLE_EQ(qef.Evaluate(ctx2), 0.0);
  // Invalid match: 0.
  MatchResult invalid;
  invalid.valid = false;
  EvalContext ctx3 = m.MakeContext(u, sources, &invalid);
  EXPECT_DOUBLE_EQ(qef.Evaluate(ctx3), 0.0);
}

TEST(SchemaCoverageQefTest, TriggersNeedsMatching) {
  QualityModel model;
  model.AddQef(std::make_unique<SchemaCoverageQef>(), 1.0);
  EXPECT_TRUE(model.NeedsMatching());
}

// --------------------------- CharacteristicQef --------------------------

class CharacteristicQefTest : public ::testing::Test {
 protected:
  CharacteristicQefTest() {
    // mttf: A=50, B=150, C=100; cardinalities 100, 300, 100.
    universe_.AddSource(MakeSource("A", 0, 100));
    universe_.AddSource(MakeSource("B", 100, 300));
    universe_.AddSource(MakeSource("C", 400, 100));
    universe_.mutable_source(0)->SetCharacteristic("mttf", 50.0);
    universe_.mutable_source(1)->SetCharacteristic("mttf", 150.0);
    universe_.mutable_source(2)->SetCharacteristic("mttf", 100.0);
  }

  EvalContext Context(const std::vector<SourceId>& sources) {
    sources_ = sources;
    return model_.MakeContext(universe_, sources_, nullptr);
  }

  Universe universe_;
  QualityModel model_;
  std::vector<SourceId> sources_;
};

TEST_F(CharacteristicQefTest, WeightedSumMatchesHandComputation) {
  CharacteristicQef wsum("mttf", Aggregation::kWeightedSum);
  // normalized: A=0, B=1, C=0.5. wsum({A,B}) = (0*100 + 1*300)/400 = 0.75.
  EXPECT_NEAR(wsum.Evaluate(Context({0, 1})), 0.75, 1e-9);
  // wsum({A,C}) = (0*100 + 0.5*100)/200 = 0.25.
  EXPECT_NEAR(wsum.Evaluate(Context({0, 2})), 0.25, 1e-9);
  // High-value source with more tuples is worth more than with fewer:
  // that is exactly the paper's motivation for weighting by cardinality.
  CharacteristicQef unweighted("mttf", Aggregation::kMean);
  EXPECT_GT(wsum.Evaluate(Context({0, 1})),
            unweighted.Evaluate(Context({0, 1})));
}

TEST_F(CharacteristicQefTest, MeanMinMax) {
  CharacteristicQef mean("mttf", Aggregation::kMean);
  CharacteristicQef min("mttf", Aggregation::kMin);
  CharacteristicQef max("mttf", Aggregation::kMax);
  EXPECT_NEAR(mean.Evaluate(Context({0, 1, 2})), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(min.Evaluate(Context({0, 1, 2})), 0.0);
  EXPECT_DOUBLE_EQ(max.Evaluate(Context({0, 1, 2})), 1.0);
}

TEST_F(CharacteristicQefTest, InvertForSmallerIsBetter) {
  CharacteristicQef latency("mttf", Aggregation::kMean, /*invert=*/true);
  // Inverted: A=1, B=0, C=0.5.
  EXPECT_NEAR(latency.Evaluate(Context({0})), 1.0, 1e-9);
  EXPECT_NEAR(latency.Evaluate(Context({1})), 0.0, 1e-9);
}

TEST_F(CharacteristicQefTest, MissingCharacteristicScoresWorst) {
  universe_.mutable_source(2)->SetCharacteristic("fees", 10.0);
  CharacteristicQef fees("fees", Aggregation::kMean);
  // Only C defines fees; range degenerate -> C scores 1, A scores 0.
  EXPECT_NEAR(fees.Evaluate(Context({0, 2})), 0.5, 1e-9);
}

TEST_F(CharacteristicQefTest, UnknownCharacteristicScoresZero) {
  CharacteristicQef unknown("reputation", Aggregation::kWeightedSum);
  EXPECT_DOUBLE_EQ(unknown.Evaluate(Context({0, 1, 2})), 0.0);
}

TEST_F(CharacteristicQefTest, DegenerateRangeScoresOne) {
  Universe u;
  u.AddSource(MakeSource("A", 0, 10));
  u.AddSource(MakeSource("B", 10, 10));
  u.mutable_source(0)->SetCharacteristic("mttf", 5.0);
  u.mutable_source(1)->SetCharacteristic("mttf", 5.0);
  QualityModel m;
  std::vector<SourceId> sources = {0, 1};
  EvalContext ctx = m.MakeContext(u, sources, nullptr);
  CharacteristicQef qef("mttf", Aggregation::kWeightedSum);
  EXPECT_DOUBLE_EQ(qef.Evaluate(ctx), 1.0);
}

TEST_F(CharacteristicQefTest, NameIncludesCharacteristic) {
  CharacteristicQef qef("mttf", Aggregation::kWeightedSum);
  EXPECT_EQ(qef.name(), "char:mttf");
}

// ------------------------------ LambdaQef -------------------------------

TEST(LambdaQefTest, EvaluatesUserFunction) {
  LambdaQef qef("half-sources", [](const EvalContext& ctx) {
    return ctx.sources->size() >= 2 ? 1.0 : 0.5;
  });
  Universe u;
  u.AddSource(MakeSource("A", 0, 10));
  u.AddSource(MakeSource("B", 10, 10));
  QualityModel m;
  std::vector<SourceId> one = {0};
  std::vector<SourceId> two = {0, 1};
  EvalContext c1 = m.MakeContext(u, one, nullptr);
  EvalContext c2 = m.MakeContext(u, two, nullptr);
  EXPECT_DOUBLE_EQ(qef.Evaluate(c1), 0.5);
  EXPECT_DOUBLE_EQ(qef.Evaluate(c2), 1.0);
  EXPECT_EQ(qef.name(), "half-sources");
}

// ----------------------------- QualityModel -----------------------------

TEST(QualityModelTest, DefaultModelMatchesPaperWeights) {
  QualityModel model = QualityModel::MakeDefault();
  ASSERT_EQ(model.num_qefs(), 5);
  EXPECT_EQ(model.qef(0).name(), "matching");
  EXPECT_EQ(model.qef(1).name(), "cardinality");
  EXPECT_EQ(model.qef(2).name(), "coverage");
  EXPECT_EQ(model.qef(3).name(), "redundancy");
  EXPECT_EQ(model.qef(4).name(), "char:mttf");
  EXPECT_DOUBLE_EQ(model.weight(0), 0.25);
  EXPECT_DOUBLE_EQ(model.weight(1), 0.25);
  EXPECT_DOUBLE_EQ(model.weight(2), 0.20);
  EXPECT_DOUBLE_EQ(model.weight(3), 0.15);
  EXPECT_DOUBLE_EQ(model.weight(4), 0.15);
  EXPECT_TRUE(model.ValidateWeightVector(model.weights()).ok());
  EXPECT_TRUE(model.NeedsMatching());
}

TEST(QualityModelTest, WeightValidation) {
  QualityModel model;
  EXPECT_FALSE(model.ValidateWeightVector(model.weights()).ok());  // no QEFs
  model.AddQef(std::make_unique<CardinalityQef>(), 0.6);
  EXPECT_FALSE(model.ValidateWeightVector(model.weights()).ok());  // sum != 1
  model.AddQef(std::make_unique<CoverageQef>(), 0.4);
  EXPECT_TRUE(model.ValidateWeightVector(model.weights()).ok());
  EXPECT_FALSE(model.ValidateWeightVector({0.5}).ok());        // wrong count
  EXPECT_FALSE(model.ValidateWeightVector({1.5, -0.5}).ok());  // out of range
  EXPECT_FALSE(model.ValidateWeightVector({0.9, 0.3}).ok());   // sum != 1
  EXPECT_TRUE(model.ValidateWeightVector({0.3, 0.7}).ok());
}

TEST(QualityModelTest, RescaleWeightKeepsSumOne) {
  QualityModel model = QualityModel::MakeDefault();
  std::vector<double> w = model.weights();
  ASSERT_TRUE(QualityModel::RescaleWeight(&w, 1, 0.6).ok());
  EXPECT_DOUBLE_EQ(w[1], 0.6);
  double sum = 0.0;
  for (double x : w) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_TRUE(model.ValidateWeightVector(w).ok());
  // Remaining weights keep their relative proportions (0.25 : 0.2 : ...).
  EXPECT_NEAR(w[0] / w[2], 0.25 / 0.20, 1e-9);
  const std::vector<double> rescaled = w;
  EXPECT_FALSE(QualityModel::RescaleWeight(&w, 5, 0.5).ok());  // no QEF 5
  EXPECT_FALSE(QualityModel::RescaleWeight(&w, 1, 1.5).ok());
  EXPECT_EQ(w, rescaled);
}

// A NaN passes every `w < 0 || w > 1` and `|sum - 1| > eps` test, so each
// entry point checks finiteness explicitly; the weights stay as they were.
TEST(QualityModelTest, NonFiniteWeightsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  QualityModel model = QualityModel::MakeDefault();
  const std::vector<double> before = model.weights();
  for (double bad : {nan, inf, -inf}) {
    SCOPED_TRACE(bad);
    Status status =
        model.ValidateWeightVector({bad, 0.25, 0.25, 0.25, 0.25});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    std::vector<double> overlay = before;
    status = QualityModel::RescaleWeight(&overlay, 1, bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_EQ(overlay, before);
  }
}

TEST(QualityModelTest, EvaluateIsWeightedSum) {
  Universe u;
  u.AddSource(MakeSource("A", 0, 100));
  u.AddSource(MakeSource("B", 100, 100));
  QualityModel model;
  model.AddQef(std::make_unique<CardinalityQef>(), 0.5);
  model.AddQef(std::make_unique<RedundancyQef>(), 0.5);
  std::vector<SourceId> sources = {0};
  EvalContext ctx = model.MakeContext(u, sources, nullptr);
  QualityBreakdown breakdown = model.Evaluate(ctx);
  EXPECT_TRUE(breakdown.feasible);
  ASSERT_EQ(breakdown.scores.size(), 2u);
  EXPECT_DOUBLE_EQ(breakdown.scores[0], 0.5);  // 100/200
  EXPECT_DOUBLE_EQ(breakdown.scores[1], 1.0);
  EXPECT_DOUBLE_EQ(breakdown.overall, 0.75);
}

TEST(QualityModelTest, InvalidMatchMakesCandidateInfeasible) {
  Universe u;
  u.AddSource(MakeSource("A", 0, 100));
  QualityModel model;
  model.AddQef(std::make_unique<CardinalityQef>(), 1.0);
  MatchResult match;
  match.valid = false;
  std::vector<SourceId> sources = {0};
  EvalContext ctx = model.MakeContext(u, sources, &match);
  QualityBreakdown breakdown = model.Evaluate(ctx);
  EXPECT_FALSE(breakdown.feasible);
  EXPECT_DOUBLE_EQ(breakdown.overall, 0.0);
}

TEST(QualityModelTest, FindQef) {
  QualityModel model = QualityModel::MakeDefault();
  EXPECT_EQ(model.FindQef("coverage"), 2);
  EXPECT_EQ(model.FindQef("missing"), -1);
}

TEST(QualityModelDeathTest, MatchingQefWithoutMatchAborts) {
  Universe u;
  u.AddSource(MakeSource("A", 0, 10));
  QualityModel model;
  model.AddQef(std::make_unique<MatchingQualityQef>(), 1.0);
  std::vector<SourceId> sources = {0};
  EvalContext ctx = model.MakeContext(u, sources, nullptr);
  EXPECT_DEATH(model.Evaluate(ctx), "matching QEF");
}

}  // namespace
}  // namespace ube
