// Metamorphic monotonicity oracles. Every law here is a *theorem* of the
// model implemented in this repo (not merely an intuition): relaxing the
// feasible region never hurts the optimum, restricting it never helps, a
// coverage-dominated duplicate source cannot move a coverage-only optimum,
// uniformly scaling QEF weights preserves the argmax, and tightening the
// matcher's θ/β thresholds only shrinks the generated mediated schema.
// See TESTING.md ("oracle taxonomy") for why e.g. the dominated-source law
// is deliberately stated against a coverage-only model.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "matching/cluster_matcher.h"
#include "matching/similarity_graph.h"
#include "optimize/solver.h"
#include "qef/qef.h"
#include "qef/quality_model.h"
#include "testkit/generators.h"
#include "testkit/oracles.h"
#include "testkit/property.h"
#include "util/rng.h"

namespace ube {
namespace {

using testkit::GenerateCandidate;
using testkit::GenerateSpec;
using testkit::GenerateUniverse;
using testkit::GenerateWeights;
using testkit::PropertyRunner;
using testkit::RequiredSources;
using testkit::SpecGenOptions;

// The paper's five-QEF model with explicit weights (parallel to
// testkit::GenerateModel, which draws its own).
QualityModel BuildModel(const std::vector<double>& weights) {
  UBE_CHECK(weights.size() == 5, "BuildModel wants 5 weights");
  QualityModel model;
  model.AddQef(std::make_unique<MatchingQualityQef>(), weights[0]);
  model.AddQef(std::make_unique<CardinalityQef>(), weights[1]);
  model.AddQef(std::make_unique<CoverageQef>(), weights[2]);
  model.AddQef(std::make_unique<RedundancyQef>(), weights[3]);
  model.AddQef(std::make_unique<CharacteristicQef>(
                   "mttf", Aggregation::kWeightedSum),
               weights[4]);
  return model;
}

double ExhaustiveOptimum(const Engine& engine, const ProblemSpec& spec) {
  Result<Solution> solution = engine.Solve(spec, SolverKind::kExhaustive);
  UBE_CHECK(solution.ok(), "exhaustive solve failed in monotonicity oracle");
  return solution->quality;
}

// Raising m only enlarges the feasible region, and per-candidate quality
// does not depend on m — so the optimum is non-decreasing in m.
TEST(MonotonicityTest, OptimumNonDecreasingInMaxSources) {
  PropertyRunner runner("optimum-nondecreasing-in-m", 30);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    Universe universe = GenerateUniverse(rng);
    QualityModel model = testkit::GenerateModel(rng);
    SpecGenOptions no_constraints;
    no_constraints.source_constraint_probability = 0.0;
    no_constraints.ban_probability = 0.0;
    no_constraints.ga_constraint_probability = 0.0;
    ProblemSpec spec = GenerateSpec(rng, universe, no_constraints);
    Engine engine(std::move(universe), std::move(model));

    double previous = -1.0;
    for (int m = 1; m <= 4; ++m) {
      spec.max_sources = m;
      double optimum = ExhaustiveOptimum(engine, spec);
      EXPECT_GE(optimum, previous - 1e-9) << "m = " << m;
      previous = optimum;
    }
  }
}

// Banning a source removes candidates and changes nothing else: the
// optimum can only stay or drop.
TEST(MonotonicityTest, BanningNeverImprovesOptimum) {
  PropertyRunner runner("banning-never-improves", 30);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    Universe universe = GenerateUniverse(rng);
    QualityModel model = testkit::GenerateModel(rng);
    ProblemSpec spec = GenerateSpec(rng, universe);
    const int n = universe.num_sources();
    Engine engine(std::move(universe), std::move(model));

    std::vector<SourceId> required = RequiredSources(spec);
    std::vector<SourceId> candidates_to_ban;
    for (SourceId s = 0; s < n; ++s) {
      bool excluded =
          std::find(required.begin(), required.end(), s) != required.end() ||
          std::find(spec.banned_sources.begin(), spec.banned_sources.end(),
                    s) != spec.banned_sources.end();
      if (!excluded) candidates_to_ban.push_back(s);
    }
    // Keep at least one selectable source so the banned spec stays solvable
    // even when there are no required sources.
    if (candidates_to_ban.size() < 2) continue;

    double base = ExhaustiveOptimum(engine, spec);
    ProblemSpec banned = spec;
    banned.banned_sources.push_back(
        candidates_to_ban[rng.UniformInt(candidates_to_ban.size())]);
    double restricted = ExhaustiveOptimum(engine, banned);
    EXPECT_LE(restricted, base + 1e-9);
  }
}

// Forcing one more source into C shrinks the candidate set *and* makes the
// Match validity requirement strictly harder — both effects point down.
TEST(MonotonicityTest, AddingSourceConstraintNeverImprovesOptimum) {
  PropertyRunner runner("source-constraint-never-improves", 30);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    Universe universe = GenerateUniverse(rng);
    QualityModel model = testkit::GenerateModel(rng);
    ProblemSpec spec = GenerateSpec(rng, universe);
    const int n = universe.num_sources();
    Engine engine(std::move(universe), std::move(model));

    std::vector<SourceId> required = RequiredSources(spec);
    if (static_cast<int>(required.size()) + 1 > spec.max_sources) continue;
    std::vector<SourceId> addable;
    for (SourceId s = 0; s < n; ++s) {
      bool excluded =
          std::find(required.begin(), required.end(), s) != required.end() ||
          std::find(spec.banned_sources.begin(), spec.banned_sources.end(),
                    s) != spec.banned_sources.end();
      if (!excluded) addable.push_back(s);
    }
    if (addable.empty()) continue;

    double base = ExhaustiveOptimum(engine, spec);
    ProblemSpec constrained = spec;
    constrained.source_constraints.push_back(
        addable[rng.UniformInt(addable.size())]);
    double restricted = ExhaustiveOptimum(engine, constrained);
    EXPECT_LE(restricted, base + 1e-9);
  }
}

// Under a *coverage-only* model with exact signatures, adding a source
// whose tuple set is a subset of an existing source's changes neither any
// existing candidate's coverage nor |∪U| — and any candidate using the copy
// is matched by one using the original. The optimum is exactly unchanged.
// (Deliberately NOT stated for the full model: cardinality's duplicate-
// counting denominator and matching quality both react to duplicates.)
TEST(MonotonicityTest, DominatedSourcePreservesCoverageOptimum) {
  PropertyRunner runner("dominated-source-coverage", 30);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    Rng replay = rng;  // identical stream => identical base universe
    Universe base_universe = GenerateUniverse(rng);
    Universe extended_universe = GenerateUniverse(replay);

    SpecGenOptions no_constraints;
    no_constraints.source_constraint_probability = 0.0;
    no_constraints.ban_probability = 0.0;
    no_constraints.ga_constraint_probability = 0.0;
    ProblemSpec spec = GenerateSpec(rng, base_universe, no_constraints);
    const SourceId original =
        static_cast<SourceId>(rng.UniformInt(
            static_cast<uint64_t>(base_universe.num_sources())));
    testkit::AddDominatedCopy(rng, extended_universe, original);

    QualityModel coverage_only;
    coverage_only.AddQef(std::make_unique<CoverageQef>(), 1.0);
    QualityModel coverage_only2;
    coverage_only2.AddQef(std::make_unique<CoverageQef>(), 1.0);

    Engine base_engine(std::move(base_universe), std::move(coverage_only));
    Engine extended_engine(std::move(extended_universe),
                           std::move(coverage_only2));
    double base = ExhaustiveOptimum(base_engine, spec);
    double extended = ExhaustiveOptimum(extended_engine, spec);
    EXPECT_NEAR(extended, base, 1e-12);
  }
}

// Q(S) = Σ w_k F_k(S) with w normalized: scaling every raw weight by the
// same c > 0 leaves the normalized weights — hence the ranking of all
// candidates — unchanged. Stated tie-robustly: each model's argmax must be
// an argmax under the other model too.
TEST(MonotonicityTest, UniformWeightScalingPreservesArgmax) {
  PropertyRunner runner("weight-scaling-argmax", 30);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    Rng replay = rng;
    Universe universe1 = GenerateUniverse(rng);
    Universe universe2 = GenerateUniverse(replay);

    std::vector<double> raw(5);
    for (double& w : raw) w = rng.UniformDouble(0.05, 1.0);
    const double scale = rng.UniformDouble(0.5, 20.0);
    std::vector<double> scaled = raw;
    for (double& w : scaled) w *= scale;
    auto normalize = [](std::vector<double> w) {
      double sum = 0.0;
      for (double v : w) sum += v;
      for (double& v : w) v /= sum;
      return w;
    };

    SpecGenOptions no_constraints;
    no_constraints.source_constraint_probability = 0.0;
    no_constraints.ban_probability = 0.0;
    no_constraints.ga_constraint_probability = 0.0;
    ProblemSpec spec = GenerateSpec(rng, universe1, no_constraints);

    Engine engine1(std::move(universe1), BuildModel(normalize(raw)));
    Engine engine2(std::move(universe2), BuildModel(normalize(scaled)));
    Result<Solution> sol1 = engine1.Solve(spec, SolverKind::kExhaustive);
    Result<Solution> sol2 = engine2.Solve(spec, SolverKind::kExhaustive);
    ASSERT_TRUE(sol1.ok()) << sol1.status();
    ASSERT_TRUE(sol2.ok()) << sol2.status();

    EXPECT_NEAR(sol1->quality, sol2->quality, 1e-9);
    // Cross-evaluate so exact ties between candidates cannot flake the test.
    Result<CandidateEvaluator::Evaluation> cross12 =
        engine2.EvaluateCandidate(spec, sol1->sources);
    Result<CandidateEvaluator::Evaluation> cross21 =
        engine1.EvaluateCandidate(spec, sol2->sources);
    ASSERT_TRUE(cross12.ok()) << cross12.status();
    ASSERT_TRUE(cross21.ok()) << cross21.status();
    EXPECT_NEAR(cross12->quality, sol2->quality, 1e-9);
    EXPECT_NEAR(cross21->quality, sol1->quality, 1e-9);
  }
}

// Matcher-level θ law: every merge Algorithm 1 performs at θ_high has
// similarity >= θ_high > θ_low, so it is also performed at θ_low; the
// θ_high schema can only lose attributes relative to the θ_low one.
TEST(MonotonicityTest, ThetaTighteningOnlyShrinksSchema) {
  PropertyRunner runner("theta-tightening", 40);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    Universe universe = GenerateUniverse(rng);
    ProblemSpec trivial;
    trivial.max_sources = universe.num_sources();
    std::vector<SourceId> sources = GenerateCandidate(rng, universe, trivial);
    if (sources.size() < 2) continue;

    SimilarityGraph graph = SimilarityGraph::WithDefaults(universe, 0.0);
    ClusterMatcher matcher(universe, graph);
    MatchOptions loose{rng.UniformDouble(0.3, 0.6), 2};
    MatchOptions tight{loose.theta + rng.UniformDouble(0.05, 0.3), 2};

    // Source constraints = S makes validity meaningful: every chosen source
    // must be covered by some GA.
    Result<MatchResult> at_loose = matcher.Match(sources, sources, {}, loose);
    Result<MatchResult> at_tight = matcher.Match(sources, sources, {}, tight);
    ASSERT_TRUE(at_loose.ok()) << at_loose.status();
    ASSERT_TRUE(at_tight.ok()) << at_tight.status();

    if (at_tight->valid) {
      EXPECT_TRUE(at_loose->valid);
    }
    EXPECT_LE(at_tight->schema.TotalAttributes(),
              at_loose->schema.TotalAttributes());
    // Note: strict GA-level subsumption M(θ_high) ⊑ M(θ_low) is *not*
    // asserted — mid-run elimination at θ_high can diverge the greedy merge
    // order, re-partitioning attributes across GAs (observed ~1/2000 random
    // instances). Only the aggregate laws above are stable.

    // Structural sanity at both thresholds.
    for (const MatchResult* r : {&*at_loose, &*at_tight}) {
      EXPECT_TRUE(r->schema.GasAreDisjointAndValid());
      if (r->valid) {
        EXPECT_TRUE(r->schema.IsValidOn(sources));
      }
      for (double q : r->ga_qualities) {
        EXPECT_GE(q, 0.0);
        EXPECT_LE(q, 1.0);
      }
    }
  }
}

// Matcher-level β law: raising the minimum GA size only filters GAs out of
// the output schema.
TEST(MonotonicityTest, BetaTighteningOnlyShrinksSchema) {
  PropertyRunner runner("beta-tightening", 40);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    Universe universe = GenerateUniverse(rng);
    ProblemSpec trivial;
    trivial.max_sources = universe.num_sources();
    std::vector<SourceId> sources = GenerateCandidate(rng, universe, trivial);
    if (sources.size() < 2) continue;

    SimilarityGraph graph = SimilarityGraph::WithDefaults(universe, 0.0);
    ClusterMatcher matcher(universe, graph);
    const double theta = rng.UniformDouble(0.3, 0.7);
    const int beta_high = 3 + static_cast<int>(rng.UniformInt(2));  // 3 or 4
    MatchOptions loose{theta, 2};
    MatchOptions tight{theta, beta_high};

    Result<MatchResult> at_loose = matcher.Match(sources, sources, {}, loose);
    Result<MatchResult> at_tight = matcher.Match(sources, sources, {}, tight);
    ASSERT_TRUE(at_loose.ok()) << at_loose.status();
    ASSERT_TRUE(at_tight.ok()) << at_tight.status();

    if (at_tight->valid) {
      EXPECT_TRUE(at_loose->valid);
    }
    EXPECT_LE(at_tight->schema.TotalAttributes(),
              at_loose->schema.TotalAttributes());
    EXPECT_TRUE(at_tight->schema.IsSubsumedBy(at_loose->schema));
    for (const GlobalAttribute& ga : at_tight->schema.gas()) {
      EXPECT_GE(ga.size(), beta_high);
    }
    for (const GlobalAttribute& ga : at_loose->schema.gas()) {
      EXPECT_GE(ga.size(), 2);
    }
  }
}

}  // namespace
}  // namespace ube
