#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/ga_evaluation.h"
#include "core/report.h"
#include "core/session.h"
#include "qef/qef.h"
#include "sketch/distinct_estimator.h"
#include "workload/generator.h"

namespace ube {
namespace {

WorkloadConfig SmallConfig(int num_sources = 40, uint64_t seed = 17) {
  WorkloadConfig config;
  config.num_sources = num_sources;
  config.seed = seed;
  config.scale = 0.001;
  return config;
}

SolverOptions FastSolve(uint64_t seed = 42) {
  SolverOptions options;
  options.seed = seed;
  options.max_iterations = 120;
  options.stall_iterations = 30;
  return options;
}

Engine MakeEngine(int num_sources = 40, uint64_t seed = 17) {
  GeneratedWorkload w = GenerateWorkload(SmallConfig(num_sources, seed));
  return Engine(std::move(w.universe), QualityModel::MakeDefault());
}

// ------------------------------- Engine ---------------------------------

TEST(EngineTest, SolveProducesFeasibleSolution) {
  Engine engine = MakeEngine();
  ProblemSpec spec;
  spec.max_sources = 8;
  Result<Solution> solution = engine.Solve(spec, SolverKind::kTabu,
                                           FastSolve());
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_LE(solution->sources.size(), 8u);
  EXPECT_GE(solution->sources.size(), 1u);
  EXPECT_GT(solution->quality, 0.0);
  EXPECT_TRUE(solution->mediated_schema.GasAreDisjointAndValid());
  EXPECT_EQ(solution->breakdown.scores.size(), 5u);
}

TEST(EngineTest, SolveValidatesSpec) {
  Engine engine = MakeEngine();
  ProblemSpec spec;
  spec.max_sources = 0;
  EXPECT_FALSE(engine.Solve(spec).ok());
  spec.max_sources = 5;
  spec.theta = 0.1;  // below the default similarity floor 0.25
  EXPECT_FALSE(engine.Solve(spec).ok());

  // Every entry point that runs Match reports the floor as a Status
  // instead of aborting inside the matcher.
  Result<std::vector<SourceId>> seed =
      engine.RepairSeed(spec, {0, 1, 2}, RepairOptions());
  ASSERT_FALSE(seed.ok());
  EXPECT_EQ(seed.status().code(), StatusCode::kInvalidArgument);
  Result<CandidateEvaluator::Evaluation> eval =
      engine.EvaluateCandidate(spec, {0, 1, 2});
  ASSERT_FALSE(eval.ok());
  EXPECT_EQ(eval.status().code(), StatusCode::kInvalidArgument);

  // A warm session lowering θ mid-loop: the repair of the previous
  // incumbent must not abort; the solve fails cleanly and the history
  // stays as it was.
  Session session(&engine);
  session.set_warm_start(true);
  session.SetMaxSources(5);
  ASSERT_TRUE(session.Iterate(SolverKind::kTabu, FastSolve()).ok());
  const Solution before = *session.last();
  session.SetTheta(0.1);
  Result<Solution> failed = session.Iterate(SolverKind::kTabu, FastSolve());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.stats().failed_solves, 1);
  EXPECT_EQ(session.num_iterations(), 1);
  EXPECT_EQ(session.last()->sources, before.sources);
  EXPECT_EQ(session.last()->quality, before.quality);
}

// A NaN θ passes both `θ < 0 || θ > 1` and Match's `θ < floor`, and would
// silently match at the floor; every entry point rejects a non-finite θ.
TEST(EngineTest, NonFiniteThetaRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Engine engine = MakeEngine();
  for (double bad : {nan, inf, -inf}) {
    SCOPED_TRACE(bad);
    ProblemSpec spec;
    spec.max_sources = 5;
    spec.theta = bad;
    Result<Solution> solved = engine.Solve(spec, SolverKind::kTabu,
                                           FastSolve());
    ASSERT_FALSE(solved.ok());
    EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
    Result<CandidateEvaluator::Evaluation> eval =
        engine.EvaluateCandidate(spec, {0, 1, 2, 3, 4});
    ASSERT_FALSE(eval.ok());
    EXPECT_EQ(eval.status().code(), StatusCode::kInvalidArgument);
  }

  Session session(&engine);
  session.SetMaxSources(5);
  ASSERT_TRUE(session.Iterate(SolverKind::kTabu, FastSolve()).ok());
  const Solution before = *session.last();
  session.SetTheta(nan);
  Result<Solution> failed = session.Iterate(SolverKind::kTabu, FastSolve());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.num_iterations(), 1);
  EXPECT_EQ(session.last()->quality, before.quality);
}

TEST(EngineTest, InfeasibleConstraintsReported) {
  Engine engine = MakeEngine();
  ProblemSpec spec;
  spec.max_sources = 1;
  spec.source_constraints = {0, 1};
  Result<Solution> r = engine.Solve(spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInfeasible);
}

TEST(EngineTest, SourceConstraintsAppearInSolution) {
  Engine engine = MakeEngine();
  ProblemSpec spec;
  spec.max_sources = 6;
  spec.source_constraints = {3, 7};
  Result<Solution> solution = engine.Solve(spec, SolverKind::kTabu,
                                           FastSolve());
  ASSERT_TRUE(solution.ok());
  for (SourceId required : {3, 7}) {
    EXPECT_TRUE(std::binary_search(solution->sources.begin(),
                                   solution->sources.end(), required));
  }
}

TEST(EngineTest, EvaluateCandidateScoresUserSet) {
  Engine engine = MakeEngine();
  ProblemSpec spec;
  spec.max_sources = 5;
  Result<CandidateEvaluator::Evaluation> eval =
      engine.EvaluateCandidate(spec, {0, 1, 2});
  ASSERT_TRUE(eval.ok()) << eval.status();
  EXPECT_GT(eval->quality, 0.0);
  // Unsorted and duplicate inputs are normalized.
  Result<CandidateEvaluator::Evaluation> same =
      engine.EvaluateCandidate(spec, {2, 0, 1, 1});
  ASSERT_TRUE(same.ok());
  EXPECT_DOUBLE_EQ(eval->quality, same->quality);
  // Too many sources rejected.
  EXPECT_FALSE(engine.EvaluateCandidate(spec, {0, 1, 2, 3, 4, 5}).ok());
  // Candidate must include constrained sources.
  spec.source_constraints = {9};
  EXPECT_FALSE(engine.EvaluateCandidate(spec, {0, 1}).ok());
}

// A similarity floor outside [0, 1], NaN included, is an engine option a
// caller supplies, so it is a Status: the engine is still built, and every
// call that evaluates returns InvalidArgument.
TEST(EngineTest, SimilarityFloorOutOfRangeIsAStatus) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), -0.1, 1.5,
                     std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    GeneratedWorkload w = GenerateWorkload(SmallConfig(20));
    Engine::Options options;
    options.similarity_floor = bad;
    Engine engine(std::move(w.universe), QualityModel::MakeDefault(),
                  std::move(options));
    ProblemSpec spec;
    spec.max_sources = 5;

    Result<Solution> solution =
        engine.Solve(spec, SolverKind::kTabu, FastSolve());
    EXPECT_EQ(solution.status().code(), StatusCode::kInvalidArgument);
    Result<CandidateEvaluator::Evaluation> evaluation =
        engine.EvaluateCandidate(spec, {0, 1, 2});
    EXPECT_EQ(evaluation.status().code(), StatusCode::kInvalidArgument);
    Result<std::vector<SourceId>> seed =
        engine.RepairSeed(spec, {0, 1, 2}, RepairOptions{});
    EXPECT_EQ(seed.status().code(), StatusCode::kInvalidArgument);
    Result<ContinuousReport> report =
        engine.RunContinuous(spec, ChurnTrace{}, ContinuousOptions{});
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  }
}

// A model whose own weights break the rules is a Status from every engine
// call, not an abort in the evaluator's constructor: weights that do not sum
// to 1 are InvalidArgument, a model with no QEF is FailedPrecondition. The
// effective vector is what counts, so a valid overlay over the bad model
// solves.
TEST(EngineTest, InvalidModelWeightsAreAStatus) {
  for (bool empty : {false, true}) {
    SCOPED_TRACE(empty ? "no QEFs" : "cardinality 0.9 + coverage 0.9");
    QualityModel model;
    if (!empty) {
      model.AddQef(std::make_unique<CardinalityQef>(), 0.9);
      model.AddQef(std::make_unique<CoverageQef>(), 0.9);
    }
    const StatusCode expected = empty ? StatusCode::kFailedPrecondition
                                      : StatusCode::kInvalidArgument;
    GeneratedWorkload w = GenerateWorkload(SmallConfig(20));
    Engine engine(std::move(w.universe), std::move(model));
    ProblemSpec spec;
    spec.max_sources = 5;

    EXPECT_EQ(
        engine.Solve(spec, SolverKind::kTabu, FastSolve()).status().code(),
        expected);
    EXPECT_EQ(engine.EvaluateCandidate(spec, {0, 1, 2}).status().code(),
              expected);
    EXPECT_EQ(
        engine.RepairSeed(spec, {0, 1, 2}, RepairOptions{}).status().code(),
        expected);
    Session session(&engine);
    session.SetMaxSources(5);
    EXPECT_EQ(session.Iterate(SolverKind::kTabu, FastSolve()).status().code(),
              expected);
    EXPECT_EQ(session.stats().failed_solves, 1);
    if (!empty) {
      ProblemSpec overlaid = spec;
      overlaid.weight_overlay = {0.5, 0.5};
      EXPECT_TRUE(engine.Solve(overlaid, SolverKind::kTabu, FastSolve()).ok());
    }
    EXPECT_EQ(engine.RunContinuous(spec, ChurnTrace{}, ContinuousOptions{})
                  .status()
                  .code(),
              expected);
  }
}

TEST(EngineTest, CustomSimilarityMeasure) {
  GeneratedWorkload w = GenerateWorkload(SmallConfig(20));
  Engine::Options options;
  options.similarity = std::make_unique<LevenshteinSimilarity>();
  options.similarity_floor = 0.3;
  Engine engine(std::move(w.universe), QualityModel::MakeDefault(),
                std::move(options));
  EXPECT_EQ(engine.similarity_graph().measure().name(), "levenshtein");
  ProblemSpec spec;
  spec.max_sources = 5;
  EXPECT_TRUE(engine.Solve(spec, SolverKind::kTabu, FastSolve()).ok());
}

// A programmatic universe whose source 3 carries an exact signature, or a
// 32-bitmap PCSA sketch, among the workload's 64-bitmap PCSA signatures: no
// union estimate can merge them.
Universe MixedSignatureUniverse(bool exact) {
  GeneratedWorkload w = GenerateWorkload(SmallConfig(20, 7));
  std::unique_ptr<DistinctSignature> odd;
  if (exact) {
    odd = std::make_unique<ExactSignature>();
  } else {
    odd = std::make_unique<PcsaSignature>(32);
  }
  odd->Add(1);
  w.universe.mutable_source(3)->set_signature(std::move(odd));
  return std::move(w.universe);
}

// Every engine call that evaluates returns InvalidArgument, naming the
// offending source, instead of aborting in a signature merge.
TEST(EngineTest, MixedSignatureFormatsAreRejected) {
  for (bool exact : {true, false}) {
    SCOPED_TRACE(exact ? "exact among pcsa:64" : "pcsa:32 among pcsa:64");
    Universe universe = MixedSignatureUniverse(exact);
    const std::string name = universe.source(3).name();
    Engine engine(std::move(universe), QualityModel::MakeDefault());
    ProblemSpec spec;
    spec.max_sources = 5;

    Result<Solution> solution =
        engine.Solve(spec, SolverKind::kTabu, FastSolve());
    EXPECT_EQ(solution.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(solution.status().message().find(name), std::string::npos)
        << solution.status();
    Result<CandidateEvaluator::Evaluation> evaluation =
        engine.EvaluateCandidate(spec, {0, 1, 2, 3});
    EXPECT_EQ(evaluation.status().code(), StatusCode::kInvalidArgument);
    Result<std::vector<SourceId>> seed =
        engine.RepairSeed(spec, {0, 1, 2, 3}, RepairOptions{});
    EXPECT_EQ(seed.status().code(), StatusCode::kInvalidArgument);
    Result<ContinuousReport> report =
        engine.RunContinuous(spec, ChurnTrace{}, ContinuousOptions{});
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  }
}

// A programmatic universe gets the catalog's per-source rules too: a NaN or
// infinite characteristic, or a negative cardinality, on source 3 is an
// InvalidArgument naming it, where it used to score a non-finite Q(S) with
// an OK status.
TEST(EngineTest, NonFiniteOrNegativeSourceStatisticsAreRejected) {
  enum class Defect { kNanMttf, kInfMttf, kNegativeCardinality };
  for (Defect defect :
       {Defect::kNanMttf, Defect::kInfMttf, Defect::kNegativeCardinality}) {
    SCOPED_TRACE(static_cast<int>(defect));
    GeneratedWorkload w = GenerateWorkload(SmallConfig(20, 7));
    DataSource* odd = w.universe.mutable_source(3);
    switch (defect) {
      case Defect::kNanMttf:
        odd->SetCharacteristic(kMttfCharacteristic,
                               std::numeric_limits<double>::quiet_NaN());
        break;
      case Defect::kInfMttf:
        odd->SetCharacteristic(kMttfCharacteristic,
                               std::numeric_limits<double>::infinity());
        break;
      case Defect::kNegativeCardinality:
        odd->set_cardinality(-1'000'000);
        break;
    }
    const std::string name = odd->name();
    Engine engine(std::move(w.universe), QualityModel::MakeDefault());
    ProblemSpec spec;
    spec.max_sources = 5;

    Result<CandidateEvaluator::Evaluation> evaluation =
        engine.EvaluateCandidate(spec, {0, 1, 2, 3});
    EXPECT_EQ(evaluation.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(evaluation.status().message().find(name), std::string::npos)
        << evaluation.status();
    Result<Solution> solution =
        engine.Solve(spec, SolverKind::kTabu, FastSolve());
    EXPECT_EQ(solution.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(solution.status().message().find(name), std::string::npos)
        << solution.status();
    Result<std::vector<SourceId>> seed =
        engine.RepairSeed(spec, {0, 1, 2, 3}, RepairOptions{});
    EXPECT_EQ(seed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(seed.status().message().find(name), std::string::npos)
        << seed.status();
  }
}

// ------------------------------- Session --------------------------------

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : engine_(MakeEngine()), session_(&engine_) {
    session_.SetMaxSources(6);
  }

  Engine engine_;
  Session session_;
};

TEST_F(SessionTest, IterateRecordsHistory) {
  EXPECT_EQ(session_.last(), nullptr);
  ASSERT_TRUE(session_.Iterate(SolverKind::kTabu, FastSolve()).ok());
  EXPECT_EQ(session_.num_iterations(), 1);
  ASSERT_NE(session_.last(), nullptr);
  ASSERT_TRUE(session_.Iterate(SolverKind::kTabu, FastSolve(43)).ok());
  EXPECT_EQ(session_.num_iterations(), 2);
}

TEST_F(SessionTest, FailedIterateLeavesHistoryIntact) {
  ASSERT_TRUE(session_.Iterate(SolverKind::kTabu, FastSolve()).ok());
  ASSERT_NE(session_.last(), nullptr);
  const Solution before = *session_.last();
  const std::string report_before = session_.ReportLast();

  // Make the spec infeasible mid-session (more pins than slots) and solve.
  session_.SetMaxSources(1);
  ASSERT_TRUE(session_.PinSource(0).ok());
  ASSERT_TRUE(session_.PinSource(1).ok());
  Result<Solution> failed = session_.Iterate(SolverKind::kTabu, FastSolve());
  ASSERT_FALSE(failed.ok());

  // The failed solve must not leave a half-appended history entry:
  // last()/ReportLast() still answer from the previous solution.
  EXPECT_EQ(session_.num_iterations(), 1);
  ASSERT_NE(session_.last(), nullptr);
  EXPECT_EQ(session_.last()->sources, before.sources);
  EXPECT_EQ(session_.last()->quality, before.quality);
  EXPECT_EQ(session_.ReportLast(), report_before);
  EXPECT_EQ(session_.stats().failed_solves, 1);
  EXPECT_EQ(session_.stats().iterations, 1);

  // Undo the damage and the loop keeps going.
  session_.SetMaxSources(6);
  EXPECT_TRUE(session_.Iterate(SolverKind::kTabu, FastSolve()).ok());
  EXPECT_EQ(session_.num_iterations(), 2);
}

TEST_F(SessionTest, PinSourceForcesItIntoNextSolution) {
  ASSERT_TRUE(session_.Iterate(SolverKind::kTabu, FastSolve()).ok());
  // Pin a source the first solution did not pick.
  SourceId pinned = -1;
  for (SourceId s = 0; s < engine_.universe().num_sources(); ++s) {
    if (!std::binary_search(session_.last()->sources.begin(),
                            session_.last()->sources.end(), s)) {
      pinned = s;
      break;
    }
  }
  ASSERT_NE(pinned, -1);
  ASSERT_TRUE(session_.PinSource(pinned).ok());
  ASSERT_TRUE(session_.Iterate(SolverKind::kTabu, FastSolve()).ok());
  EXPECT_TRUE(std::binary_search(session_.last()->sources.begin(),
                                 session_.last()->sources.end(), pinned));
}

TEST_F(SessionTest, PinByNameAndUnpin) {
  ASSERT_TRUE(session_.PinSourceByName("books-src-5").ok());
  EXPECT_EQ(session_.spec().source_constraints,
            (std::vector<SourceId>{5}));
  ASSERT_TRUE(session_.PinSource(5).ok());  // idempotent
  EXPECT_EQ(session_.spec().source_constraints.size(), 1u);
  EXPECT_FALSE(session_.PinSourceByName("no-such-source").ok());
  ASSERT_TRUE(session_.UnpinSource(5).ok());
  EXPECT_TRUE(session_.spec().source_constraints.empty());
  EXPECT_FALSE(session_.UnpinSource(5).ok());
}

TEST_F(SessionTest, BanSourceExcludesItFromNextSolution) {
  ASSERT_TRUE(session_.Iterate(SolverKind::kTabu, FastSolve()).ok());
  ASSERT_FALSE(session_.last()->sources.empty());
  SourceId victim = session_.last()->sources.front();
  ASSERT_TRUE(session_.BanSource(victim).ok());
  ASSERT_TRUE(session_.Iterate(SolverKind::kTabu, FastSolve()).ok());
  EXPECT_FALSE(std::binary_search(session_.last()->sources.begin(),
                                  session_.last()->sources.end(), victim));
}

TEST_F(SessionTest, BanPinInteraction) {
  ASSERT_TRUE(session_.PinSource(3).ok());
  EXPECT_FALSE(session_.BanSource(3).ok());  // pinned -> cannot ban
  ASSERT_TRUE(session_.UnpinSource(3).ok());
  ASSERT_TRUE(session_.BanSource(3).ok());
  EXPECT_FALSE(session_.PinSource(3).ok());  // banned -> cannot pin
  ASSERT_TRUE(session_.BanSource(3).ok());   // idempotent
  EXPECT_EQ(session_.spec().banned_sources.size(), 1u);
  ASSERT_TRUE(session_.UnbanSource(3).ok());
  EXPECT_FALSE(session_.UnbanSource(3).ok());
  ASSERT_TRUE(session_.PinSource(3).ok());
}

TEST_F(SessionTest, BanSourceInGaConstraintRejected) {
  ASSERT_TRUE(
      session_.AddGaConstraint(GlobalAttribute({AttributeId{2, 0}})).ok());
  EXPECT_FALSE(session_.BanSource(2).ok());
}

TEST_F(SessionTest, BanByNameAndClear) {
  ASSERT_TRUE(session_.BanSourceByName("books-src-9").ok());
  EXPECT_EQ(session_.spec().banned_sources, (std::vector<SourceId>{9}));
  EXPECT_FALSE(session_.BanSourceByName("nope").ok());
  session_.ClearConstraints();
  EXPECT_TRUE(session_.spec().banned_sources.empty());
}

TEST_F(SessionTest, PromoteGaSubsumedByNextSolution) {
  ASSERT_TRUE(session_.Iterate(SolverKind::kTabu, FastSolve()).ok());
  ASSERT_GT(session_.last()->mediated_schema.num_gas(), 0);
  GlobalAttribute promoted = session_.last()->mediated_schema.ga(0);
  ASSERT_TRUE(session_.PromoteGa(0).ok());
  ASSERT_EQ(session_.spec().ga_constraints.size(), 1u);
  ASSERT_TRUE(session_.Iterate(SolverKind::kTabu, FastSolve(91)).ok());
  MediatedSchema g({promoted});
  EXPECT_TRUE(g.IsSubsumedBy(session_.last()->mediated_schema));
}

TEST_F(SessionTest, PromoteGaValidation) {
  EXPECT_FALSE(session_.PromoteGa(0).ok());  // no solution yet
  ASSERT_TRUE(session_.Iterate(SolverKind::kTabu, FastSolve()).ok());
  EXPECT_FALSE(session_.PromoteGa(-1).ok());
  EXPECT_FALSE(session_.PromoteGa(999).ok());
}

TEST_F(SessionTest, AddGaConstraintAbsorbsSubsets) {
  GlobalAttribute small({AttributeId{0, 0}, AttributeId{1, 0}});
  GlobalAttribute big({AttributeId{0, 0}, AttributeId{1, 0},
                       AttributeId{2, 0}});
  ASSERT_TRUE(session_.AddGaConstraint(small).ok());
  ASSERT_TRUE(session_.AddGaConstraint(big).ok());
  ASSERT_EQ(session_.spec().ga_constraints.size(), 1u);
  EXPECT_EQ(session_.spec().ga_constraints[0], big);
}

TEST_F(SessionTest, AddGaConstraintRejectsPartialOverlap) {
  GlobalAttribute a({AttributeId{0, 0}, AttributeId{1, 0}});
  GlobalAttribute overlapping({AttributeId{1, 0}, AttributeId{2, 0}});
  ASSERT_TRUE(session_.AddGaConstraint(a).ok());
  EXPECT_FALSE(session_.AddGaConstraint(overlapping).ok());
  EXPECT_EQ(session_.spec().ga_constraints.size(), 1u);
}

TEST_F(SessionTest, AddGaConstraintValidatesIds) {
  EXPECT_FALSE(session_.AddGaConstraint(GlobalAttribute{}).ok());
  EXPECT_FALSE(
      session_.AddGaConstraint(GlobalAttribute({AttributeId{999, 0}})).ok());
  EXPECT_FALSE(
      session_.AddGaConstraint(GlobalAttribute({AttributeId{0, 999}})).ok());
}

TEST_F(SessionTest, AddGaConstraintByNames) {
  const SourceSchema& s0 = engine_.universe().source(0).schema();
  const SourceSchema& s1 = engine_.universe().source(1).schema();
  ASSERT_GT(s0.num_attributes(), 0);
  ASSERT_GT(s1.num_attributes(), 0);
  Status status = session_.AddGaConstraintByNames(
      {{"books-src-0", s0.attribute_name(0)},
       {"books-src-1", s1.attribute_name(0)}});
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(session_.spec().ga_constraints.size(), 1u);
  EXPECT_FALSE(session_
                   .AddGaConstraintByNames(
                       {{"books-src-0", "definitely not an attribute"}})
                   .ok());
  EXPECT_FALSE(
      session_.AddGaConstraintByNames({{"nope", "title"}}).ok());
}

TEST_F(SessionTest, SetWeightEditsOverlayNotModel) {
  int idx = engine_.quality_model().FindQef("cardinality");
  const double model_weight_before = engine_.quality_model().weight(idx);
  ASSERT_TRUE(session_.SetWeight("cardinality", 0.7).ok());
  // The reweight lands in the session's overlay; the engine's shared model
  // is untouched (other sessions keep their own weights).
  EXPECT_DOUBLE_EQ(engine_.quality_model().weight(idx), model_weight_before);
  ASSERT_EQ(session_.spec().weight_overlay.size(),
            engine_.quality_model().weights().size());
  EXPECT_DOUBLE_EQ(session_.spec().weight_overlay[static_cast<size_t>(idx)],
                   0.7);
  EXPECT_DOUBLE_EQ(session_.effective_weights()[static_cast<size_t>(idx)],
                   0.7);
  // The overlay still sums to 1 (rescale semantics are unchanged).
  double sum = 0.0;
  for (double w : session_.spec().weight_overlay) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_FALSE(session_.SetWeight("bogus", 0.5).ok());
}

TEST_F(SessionTest, TwoSessionsSolveUnderTheirOwnWeights) {
  // The regression for the shared-mutation bug: two sessions over one
  // engine set different weights, and each solve matches a fresh
  // single-tenant solve under that spec byte-for-byte.
  Session a(&engine_);
  Session b(&engine_);
  a.mutable_spec().max_sources = 3;
  b.mutable_spec().max_sources = 3;
  ASSERT_TRUE(a.SetWeight("cardinality", 0.7).ok());
  ASSERT_TRUE(b.SetWeight("coverage", 0.8).ok());

  Result<Solution> sol_a = a.Iterate();
  Result<Solution> sol_b = b.Iterate();
  ASSERT_TRUE(sol_a.ok()) << sol_a.status();
  ASSERT_TRUE(sol_b.ok()) << sol_b.status();

  Result<Solution> ref_a = engine_.Solve(a.spec());
  Result<Solution> ref_b = engine_.Solve(b.spec());
  ASSERT_TRUE(ref_a.ok() && ref_b.ok());
  EXPECT_EQ(sol_a.value().sources, ref_a.value().sources);
  EXPECT_EQ(sol_b.value().sources, ref_b.value().sources);
  EXPECT_EQ(sol_a.value().quality, ref_a.value().quality);
  EXPECT_EQ(sol_b.value().quality, ref_b.value().quality);
}

TEST_F(SessionTest, ClearConstraints) {
  ASSERT_TRUE(session_.PinSource(1).ok());
  ASSERT_TRUE(
      session_.AddGaConstraint(GlobalAttribute({AttributeId{0, 0}})).ok());
  session_.ClearConstraints();
  EXPECT_TRUE(session_.spec().source_constraints.empty());
  EXPECT_TRUE(session_.spec().ga_constraints.empty());
}

// ---------------------------- GA evaluation ------------------------------

TEST(GaEvaluationTest, HandComputedReport) {
  // Ground truth: 3 concepts; source schemas:
  //   s0: [c0, c1], s1: [c0, noise], s2: [c1, c2].
  GroundTruth truth(3,
                    {{0, 1}, {0, -1}, {1, 2}},
                    {"alpha", "beta", "gamma"});
  // Schema: pure GA for c0 {s0a0, s1a0}; false GA {s0a1, s1a1} (noise).
  MediatedSchema schema({GlobalAttribute({AttributeId{0, 0},
                                          AttributeId{1, 0}}),
                         GlobalAttribute({AttributeId{0, 1},
                                          AttributeId{1, 1}})});
  GaQualityReport report = EvaluateGaQuality(schema, {0, 1, 2}, truth);
  EXPECT_EQ(report.sources_selected, 3);
  EXPECT_EQ(report.pure_gas, 1);
  EXPECT_EQ(report.true_gas_selected, 1);
  EXPECT_EQ(report.false_gas, 1);
  EXPECT_EQ(report.attributes_in_true_gas, 2);
  // Available: c0 (s0, s1) and c1 (s0, s2); c2 only in s2.
  EXPECT_EQ(report.concepts_available, 2);
  EXPECT_EQ(report.true_gas_missed, 1);  // c1 not covered
}

TEST(GaEvaluationTest, MixedConceptGaIsFalse) {
  GroundTruth truth(2, {{0}, {1}}, {"a", "b"});
  MediatedSchema schema(
      {GlobalAttribute({AttributeId{0, 0}, AttributeId{1, 0}})});
  GaQualityReport report = EvaluateGaQuality(schema, {0, 1}, truth);
  EXPECT_EQ(report.false_gas, 1);
  EXPECT_EQ(report.pure_gas, 0);
}

TEST(GaEvaluationTest, FragmentedConceptCountedOnce) {
  GroundTruth truth(1, {{0}, {0}, {0}, {0}}, {"a"});
  MediatedSchema schema(
      {GlobalAttribute({AttributeId{0, 0}, AttributeId{1, 0}}),
       GlobalAttribute({AttributeId{2, 0}, AttributeId{3, 0}})});
  GaQualityReport report = EvaluateGaQuality(schema, {0, 1, 2, 3}, truth);
  EXPECT_EQ(report.pure_gas, 2);
  EXPECT_EQ(report.true_gas_selected, 1);  // one concept, counted once
  EXPECT_EQ(report.attributes_in_true_gas, 4);
  EXPECT_EQ(report.true_gas_missed, 0);
}

TEST(GaEvaluationTest, ToStringContainsFields) {
  GaQualityReport report;
  report.sources_selected = 20;
  report.true_gas_selected = 12;
  std::string text = ToString(report);
  EXPECT_NE(text.find("sources selected"), std::string::npos);
  EXPECT_NE(text.find("20"), std::string::npos);
  EXPECT_NE(text.find("true GAs selected"), std::string::npos);
}

// ------------------------------- report ---------------------------------

TEST(ReportTest, FormatSolutionMentionsSourcesAndQefs) {
  Engine engine = MakeEngine(20);
  ProblemSpec spec;
  spec.max_sources = 5;
  Result<Solution> solution =
      engine.Solve(spec, SolverKind::kGreedy, FastSolve());
  ASSERT_TRUE(solution.ok());
  std::string text =
      FormatSolution(*solution, engine.universe(), engine.quality_model());
  EXPECT_NE(text.find("overall quality"), std::string::npos);
  EXPECT_NE(text.find("books-src-"), std::string::npos);
  EXPECT_NE(text.find("matching"), std::string::npos);
  EXPECT_NE(text.find("mediated schema"), std::string::npos);
  EXPECT_NE(text.find("greedy"), std::string::npos);
}

TEST(ReportTest, FormatMediatedSchemaShowsAttributeNames) {
  Engine engine = MakeEngine(10);
  ProblemSpec spec;
  spec.max_sources = 10;
  Result<CandidateEvaluator::Evaluation> eval =
      engine.EvaluateCandidate(spec, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  ASSERT_TRUE(eval.ok()) << eval.status();
  const MatchResult& match = eval->match;
  ASSERT_GT(match.schema.num_gas(), 0);
  std::string text = FormatMediatedSchema(match.schema, match.ga_qualities,
                                          engine.universe());
  EXPECT_NE(text.find("GA 0"), std::string::npos);
  EXPECT_NE(text.find("books-src-"), std::string::npos);
  EXPECT_NE(text.find("."), std::string::npos);
}

}  // namespace
}  // namespace ube
