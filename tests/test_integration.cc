// End-to-end tests: scaled-down versions of the paper's experiments,
// asserting the qualitative shapes Section 7 reports rather than absolute
// numbers.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/engine.h"
#include "core/ga_evaluation.h"
#include "core/session.h"
#include "source/compound.h"
#include "workload/domains.h"
#include "workload/generator.h"

namespace ube {
namespace {

WorkloadConfig ScaledConfig(int num_sources, uint64_t seed = 17) {
  WorkloadConfig config;
  config.num_sources = num_sources;
  config.seed = seed;
  config.scale = 0.002;
  return config;
}

SolverOptions MediumSolve(uint64_t seed = 42) {
  SolverOptions options;
  options.seed = seed;
  options.max_iterations = 250;
  options.stall_iterations = 60;
  return options;
}

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() {
    GeneratedWorkload w = GenerateWorkload(ScaledConfig(60));
    ground_truth_ = w.ground_truth;
    engine_ = std::make_unique<Engine>(std::move(w.universe),
                                       QualityModel::MakeDefault());
  }

  GroundTruth ground_truth_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(IntegrationTest, NoFalseGasOnDefaultWorkload) {
  // Section 7.3: "µbe never produced false GAs."
  for (int m : {5, 10, 15}) {
    ProblemSpec spec;
    spec.max_sources = m;
    Result<Solution> solution =
        engine_->Solve(spec, SolverKind::kTabu, MediumSolve());
    ASSERT_TRUE(solution.ok());
    GaQualityReport report = EvaluateGaQuality(
        solution->mediated_schema, solution->sources, ground_truth_);
    EXPECT_EQ(report.false_gas, 0) << "m=" << m;
    EXPECT_GT(report.true_gas_selected, 0) << "m=" << m;
  }
}

TEST_F(IntegrationTest, MoreSourcesFindMoreTrueGas) {
  // Table 1's shape: allowing µBE to choose more sources lets it find more
  // of the true GAs and cover more attributes.
  ProblemSpec small_spec;
  small_spec.max_sources = 4;
  ProblemSpec large_spec;
  large_spec.max_sources = 16;
  Result<Solution> small =
      engine_->Solve(small_spec, SolverKind::kTabu, MediumSolve());
  Result<Solution> large =
      engine_->Solve(large_spec, SolverKind::kTabu, MediumSolve());
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  GaQualityReport small_report = EvaluateGaQuality(
      small->mediated_schema, small->sources, ground_truth_);
  GaQualityReport large_report = EvaluateGaQuality(
      large->mediated_schema, large->sources, ground_truth_);
  EXPECT_GE(large_report.true_gas_selected, small_report.true_gas_selected);
  EXPECT_GE(large_report.attributes_in_true_gas,
            small_report.attributes_in_true_gas);
}

TEST_F(IntegrationTest, QualityGrowsWithM) {
  // Figure 7's shape: overall quality increases with the number of sources
  // to choose (more options for Card/Coverage).
  double previous = -1.0;
  for (int m : {4, 10, 18}) {
    ProblemSpec spec;
    spec.max_sources = m;
    Result<Solution> solution =
        engine_->Solve(spec, SolverKind::kTabu, MediumSolve());
    ASSERT_TRUE(solution.ok());
    EXPECT_GT(solution->quality, previous - 0.02)  // small heuristic slack
        << "m=" << m;
    previous = std::max(previous, solution->quality);
  }
}

TEST_F(IntegrationTest, ConstraintsReduceOrKeepQuality) {
  // Figure 7's second shape: adding constraints restricts the feasible
  // region, so quality does not improve.
  ProblemSpec free_spec;
  free_spec.max_sources = 10;
  Result<Solution> unconstrained =
      engine_->Solve(free_spec, SolverKind::kTabu, MediumSolve());
  ASSERT_TRUE(unconstrained.ok());

  ProblemSpec constrained_spec = free_spec;
  // Pin 3 sources the unconstrained run did not select.
  for (SourceId s = 0;
       s < engine_->universe().num_sources() &&
       constrained_spec.source_constraints.size() < 3;
       ++s) {
    if (!std::binary_search(unconstrained->sources.begin(),
                            unconstrained->sources.end(), s)) {
      constrained_spec.source_constraints.push_back(s);
    }
  }
  Result<Solution> constrained =
      engine_->Solve(constrained_spec, SolverKind::kTabu, MediumSolve());
  ASSERT_TRUE(constrained.ok());
  EXPECT_LE(constrained->quality, unconstrained->quality + 0.02);
}

TEST_F(IntegrationTest, GaConstraintBridgingImprovesCoverage) {
  // The "Matching By Example" loop: promote a GA, re-solve, the GA is
  // preserved and grows (or stays equal), never shrinks.
  Session session(engine_.get());
  session.SetMaxSources(10);
  ASSERT_TRUE(session.Iterate(SolverKind::kTabu, MediumSolve()).ok());
  const Solution* first = session.last();
  ASSERT_GT(first->mediated_schema.num_gas(), 0);

  // Promote the largest GA.
  int best_ga = 0;
  for (int g = 1; g < first->mediated_schema.num_gas(); ++g) {
    if (first->mediated_schema.ga(g).size() >
        first->mediated_schema.ga(best_ga).size()) {
      best_ga = g;
    }
  }
  GlobalAttribute promoted = first->mediated_schema.ga(best_ga);
  ASSERT_TRUE(session.PromoteGa(best_ga).ok());
  ASSERT_TRUE(session.Iterate(SolverKind::kTabu, MediumSolve(43)).ok());
  const Solution* second = session.last();
  int containing = -1;
  for (int g = 0; g < second->mediated_schema.num_gas(); ++g) {
    if (second->mediated_schema.ga(g).ContainsAll(promoted)) {
      containing = g;
      break;
    }
  }
  ASSERT_NE(containing, -1) << "promoted GA lost";
  EXPECT_GE(second->mediated_schema.ga(containing).size(), promoted.size());
}

TEST_F(IntegrationTest, WeightBiasShiftsSolutions) {
  // Figure 8's shape: raising the cardinality weight biases µBE toward
  // high-cardinality solutions.
  ProblemSpec spec;
  spec.max_sources = 8;

  auto solution_cardinality = [&](double card_weight) {
    QualityModel model = QualityModel::MakeDefault();
    ProblemSpec weighted = spec;
    weighted.weight_overlay = model.weights();
    EXPECT_TRUE(QualityModel::RescaleWeight(&weighted.weight_overlay,
                                            model.FindQef("cardinality"),
                                            card_weight)
                    .ok());
    GeneratedWorkload w = GenerateWorkload(ScaledConfig(60));
    Engine engine(std::move(w.universe), std::move(model));
    Result<Solution> solution =
        engine.Solve(weighted, SolverKind::kTabu, MediumSolve());
    EXPECT_TRUE(solution.ok());
    int64_t total = 0;
    for (SourceId s : solution->sources) {
      total += engine.universe().source(s).cardinality();
    }
    return total;
  };

  int64_t low = solution_cardinality(0.05);
  int64_t high = solution_cardinality(0.95);
  EXPECT_GE(high, low);
}

TEST_F(IntegrationTest, UncooperativeSourcesStillSolvable) {
  WorkloadConfig config = ScaledConfig(40, 23);
  config.uncooperative_fraction = 0.5;
  GeneratedWorkload w = GenerateWorkload(config);
  Engine engine(std::move(w.universe), QualityModel::MakeDefault());
  ProblemSpec spec;
  spec.max_sources = 8;
  Result<Solution> solution =
      engine.Solve(spec, SolverKind::kTabu, MediumSolve());
  ASSERT_TRUE(solution.ok());
  EXPECT_GT(solution->quality, 0.0);
}

TEST_F(IntegrationTest, ExactAndPcsaSignaturesAgreeOnWinners) {
  // The PCSA approximation should not change the qualitative outcome.
  WorkloadConfig exact_config = ScaledConfig(40, 29);
  exact_config.signature_kind = SignatureKind::kExact;
  WorkloadConfig pcsa_config = ScaledConfig(40, 29);
  pcsa_config.signature_kind = SignatureKind::kPcsa;
  pcsa_config.pcsa_bitmaps = 256;

  GeneratedWorkload we = GenerateWorkload(exact_config);
  GeneratedWorkload wp = GenerateWorkload(pcsa_config);
  Engine exact_engine(std::move(we.universe), QualityModel::MakeDefault());
  Engine pcsa_engine(std::move(wp.universe), QualityModel::MakeDefault());
  ProblemSpec spec;
  spec.max_sources = 8;
  Result<Solution> exact =
      exact_engine.Solve(spec, SolverKind::kGreedy, MediumSolve());
  Result<Solution> pcsa =
      pcsa_engine.Solve(spec, SolverKind::kGreedy, MediumSolve());
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(pcsa.ok());
  // Same greedy trajectory up to estimator noise: solutions overlap heavily.
  std::vector<SourceId> common;
  std::set_intersection(exact->sources.begin(), exact->sources.end(),
                        pcsa->sources.begin(), pcsa->sources.end(),
                        std::back_inserter(common));
  EXPECT_GE(common.size(), exact->sources.size() / 2);
}

TEST_F(IntegrationTest, SolversAgreeOnGoodRegions) {
  // §7 text: tabu search is the most robust; here we only require every
  // heuristic to land within a reasonable band of the best found.
  ProblemSpec spec;
  spec.max_sources = 8;
  double best = 0.0;
  std::vector<double> qualities;
  for (SolverKind kind : {SolverKind::kTabu, SolverKind::kLocalSearch,
                          SolverKind::kAnnealing, SolverKind::kPso}) {
    Result<Solution> solution = engine_->Solve(spec, kind, MediumSolve());
    ASSERT_TRUE(solution.ok()) << SolverKindName(kind);
    qualities.push_back(solution->quality);
    best = std::max(best, solution->quality);
  }
  for (double q : qualities) EXPECT_GE(q, best * 0.8);
}

TEST_F(IntegrationTest, SolutionIsDeterministicEndToEnd) {
  GeneratedWorkload w1 = GenerateWorkload(ScaledConfig(50, 31));
  GeneratedWorkload w2 = GenerateWorkload(ScaledConfig(50, 31));
  Engine e1(std::move(w1.universe), QualityModel::MakeDefault());
  Engine e2(std::move(w2.universe), QualityModel::MakeDefault());
  ProblemSpec spec;
  spec.max_sources = 10;
  Result<Solution> a = e1.Solve(spec, SolverKind::kTabu, MediumSolve(7));
  Result<Solution> b = e2.Solve(spec, SolverKind::kTabu, MediumSolve(7));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->sources, b->sources);
  EXPECT_DOUBLE_EQ(a->quality, b->quality);
  EXPECT_EQ(a->mediated_schema.num_gas(), b->mediated_schema.num_gas());
}

TEST_F(IntegrationTest, CatalogRoundTripPreservesSolutions) {
  // Serialize the engine's universe to a catalog, reload it, and verify an
  // identical problem yields the identical solution — the full
  // generator → catalog → parser → engine → solver pipeline.
  GeneratedWorkload w = GenerateWorkload(ScaledConfig(40, 41));
  std::string text = WriteCatalog(w.universe);
  Result<Universe> reloaded = ParseCatalog(text);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();

  Engine original(std::move(w.universe), QualityModel::MakeDefault());
  Engine parsed(std::move(reloaded).value(), QualityModel::MakeDefault());
  ProblemSpec spec;
  spec.max_sources = 8;
  Result<Solution> a = original.Solve(spec, SolverKind::kTabu,
                                      MediumSolve(5));
  Result<Solution> b = parsed.Solve(spec, SolverKind::kTabu, MediumSolve(5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->sources, b->sources);
  EXPECT_DOUBLE_EQ(a->quality, b->quality);
  EXPECT_EQ(a->mediated_schema.num_gas(), b->mediated_schema.num_gas());
}

TEST_F(IntegrationTest, MixedDomainSessionWorkflow) {
  // Full loop on a polluted universe: solve, ban an off-domain source the
  // solver picked, re-solve; the ban holds and quality stays reasonable.
  MixedWorkloadConfig config;
  config.base.num_sources = 80;
  config.base.seed = 47;
  config.base.scale = 0.002;
  config.mix = {{FindDomain("books"), 0.6}, {FindDomain("movies"), 0.4}};
  Result<MixedWorkload> workload = GenerateMixedWorkload(config);
  ASSERT_TRUE(workload.ok());
  std::vector<int> domain_of = workload->domain_of;

  Engine engine(std::move(workload->universe), QualityModel::MakeDefault());
  Session session(&engine);
  session.SetMaxSources(10);
  ASSERT_TRUE(session.Iterate(SolverKind::kTabu, MediumSolve()).ok());

  // Ban the first off-domain (movies) source in the solution, if any.
  SourceId banned = -1;
  for (SourceId s : session.last()->sources) {
    if (domain_of[static_cast<size_t>(s)] != 0) {
      banned = s;
      break;
    }
  }
  if (banned >= 0) {
    ASSERT_TRUE(session.BanSource(banned).ok());
    ASSERT_TRUE(session.Iterate(SolverKind::kTabu, MediumSolve(48)).ok());
    EXPECT_FALSE(std::binary_search(session.last()->sources.begin(),
                                    session.last()->sources.end(), banned));
  }
  EXPECT_GT(session.last()->quality, 0.0);
  EXPECT_TRUE(session.last()->mediated_schema.GasAreDisjointAndValid());
}

TEST_F(IntegrationTest, CompoundUniverseSolvesEndToEnd) {
  // Fuse two attributes of the first source and run the whole engine over
  // the derived universe; solutions must remain structurally valid.
  GeneratedWorkload w = GenerateWorkload(ScaledConfig(30, 53));
  ASSERT_GE(w.universe.source(0).schema().num_attributes(), 2);
  CompoundGroup group;
  group.source = 0;
  group.attr_indices = {0, 1};
  auto derived = BuildCompoundUniverse(w.universe, {group});
  ASSERT_TRUE(derived.ok());
  Engine engine(std::move(derived->first), QualityModel::MakeDefault());
  ProblemSpec spec;
  spec.max_sources = 8;
  spec.source_constraints = {0};  // force the compound source in
  Result<Solution> solution =
      engine.Solve(spec, SolverKind::kTabu, MediumSolve());
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_TRUE(std::binary_search(solution->sources.begin(),
                                 solution->sources.end(), 0));
  EXPECT_TRUE(solution->mediated_schema.GasAreDisjointAndValid());
  // Any GA touching source 0 expands to valid original ids.
  for (const GlobalAttribute& ga : solution->mediated_schema.gas()) {
    if (!ga.TouchesSource(0)) continue;
    Result<std::vector<AttributeId>> expanded = derived->second.ExpandGa(ga);
    ASSERT_TRUE(expanded.ok()) << expanded.status();
    EXPECT_GE(expanded->size(), static_cast<size_t>(ga.size()));
  }
}

}  // namespace
}  // namespace ube
