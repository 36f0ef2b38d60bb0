// Engine::RunContinuous and the bounded incumbent repair: the zero-churn
// bit-identity contract, churn-trace determinism across thread counts, the
// repair-then-escalate policy, and RepairIncumbent's sanitize semantics.
#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/change_feed.h"
#include "core/engine.h"
#include "core/report.h"
#include "optimize/repair.h"
#include "optimize/search_state.h"
#include "qef/quality_model.h"
#include "source/flaky.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace ube {
namespace {

Universe MediumUniverse(int num_sources = 24) {
  WorkloadConfig config;
  config.num_sources = num_sources;
  config.scale = 0.001;
  return GenerateWorkload(config).universe;
}

SolverOptions QuickSolve(int num_threads = 1) {
  SolverOptions options;
  options.seed = 42;
  options.max_iterations = 120;
  options.stall_iterations = 40;
  options.num_threads = num_threads;
  return options;
}

ContinuousOptions QuickContinuous(int num_threads = 1) {
  ContinuousOptions options;
  options.solver_options = QuickSolve(num_threads);
  options.repair.max_iterations = 30;
  options.repair.eval_budget = 1'500;
  return options;
}

ProblemSpec BasicSpec(int m = 6) {
  ProblemSpec spec;
  spec.max_sources = m;
  return spec;
}

ChurnTrace BusyTrace(const Universe& universe, uint64_t seed = 7) {
  ChurnFeedConfig config;
  config.seed = seed;
  config.events_per_sec = 2.0;
  config.horizon_ms = 10'000.0;  // ~20 events over ~10 batches
  return GenerateChurnTrace(universe, config).value();
}

void ExpectSameSolution(const Solution& a, const Solution& b) {
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.quality, b.quality);  // bit-exact
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
  EXPECT_EQ(a.stats.stop_reason, b.stats.stop_reason);
  ASSERT_EQ(a.breakdown.scores.size(), b.breakdown.scores.size());
  for (size_t i = 0; i < a.breakdown.scores.size(); ++i) {
    EXPECT_EQ(a.breakdown.scores[i], b.breakdown.scores[i]);
  }
}

// Zero-churn contract: an empty feed makes RunContinuous exactly a one-shot
// Solve — byte-identical Solution — for any thread count.
TEST(ContinuousTest, EmptyTraceIsByteIdenticalToOneShotSolve) {
  const ProblemSpec spec = BasicSpec();
  for (int threads : {1, 4}) {
    Engine engine(MediumUniverse(), QualityModel::MakeDefault());
    ContinuousOptions options = QuickContinuous(threads);
    Result<Solution> one_shot =
        engine.Solve(spec, options.solver, options.solver_options);
    ASSERT_TRUE(one_shot.ok()) << one_shot.status();

    Result<ContinuousReport> report =
        engine.RunContinuous(spec, ChurnTrace{}, options);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->steps.empty());
    EXPECT_EQ(report->full_solves, 1);
    EXPECT_EQ(report->repairs, 0);
    EXPECT_EQ(report->events_applied, 0);
    ExpectSameSolution(report->final_solution, one_shot.value());
  }
}

// Churn-trace determinism: the full step sequence — incumbents, qualities,
// evictions, escalation decisions — replays bit-identically for any thread
// count.
TEST(ContinuousTest, StepsReplayBitIdenticallyAcrossThreadCounts) {
  Universe universe = MediumUniverse();
  ChurnTrace trace = BusyTrace(universe);
  ASSERT_FALSE(trace.events.empty());
  const ProblemSpec spec = BasicSpec();

  Engine one(CloneUniverse(universe), QualityModel::MakeDefault());
  Engine four(std::move(universe), QualityModel::MakeDefault());
  Result<ContinuousReport> a =
      one.RunContinuous(spec, trace, QuickContinuous(1));
  Result<ContinuousReport> b =
      four.RunContinuous(spec, trace, QuickContinuous(4));
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();

  EXPECT_EQ(a->events_applied, static_cast<int>(trace.events.size()));
  EXPECT_EQ(a->events_applied, b->events_applied);
  EXPECT_EQ(a->full_solves, b->full_solves);
  EXPECT_EQ(a->repairs, b->repairs);
  EXPECT_EQ(a->escalations, b->escalations);
  EXPECT_EQ(a->last_full_quality, b->last_full_quality);
  ASSERT_EQ(a->steps.size(), b->steps.size());
  for (size_t i = 0; i < a->steps.size(); ++i) {
    const ContinuousStep& sa = a->steps[i];
    const ContinuousStep& sb = b->steps[i];
    EXPECT_EQ(sa.time_ms, sb.time_ms) << "step " << i;
    EXPECT_EQ(sa.events_applied, sb.events_applied) << "step " << i;
    EXPECT_EQ(sa.evicted, sb.evicted) << "step " << i;
    EXPECT_EQ(sa.escalated, sb.escalated) << "step " << i;
    EXPECT_EQ(sa.escalation_reason, sb.escalation_reason) << "step " << i;
    EXPECT_EQ(sa.repair_budget, sb.repair_budget) << "step " << i;
    EXPECT_EQ(sa.drift_events, sb.drift_events) << "step " << i;
    EXPECT_EQ(sa.quality_before, sb.quality_before) << "step " << i;
    EXPECT_EQ(sa.quality_after, sb.quality_after) << "step " << i;
    EXPECT_EQ(sa.evaluations, sb.evaluations) << "step " << i;
    EXPECT_EQ(sa.incumbent, sb.incumbent) << "step " << i;
  }
  ExpectSameSolution(a->final_solution, b->final_solution);
}

// Self-healing: after every batch the incumbent only contains sources that
// are alive in the evolved universe, and the engine remains usable.
TEST(ContinuousTest, IncumbentNeverContainsDeadSources) {
  Universe universe = MediumUniverse();
  ChurnTrace trace = BusyTrace(universe, 21);
  Engine engine(std::move(universe), QualityModel::MakeDefault());
  const ProblemSpec spec = BasicSpec();
  Result<ContinuousReport> report =
      engine.RunContinuous(spec, trace, QuickContinuous());
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_FALSE(report->steps.empty());
  for (const ContinuousStep& step : report->steps) {
    EXPECT_FALSE(step.incumbent.empty());
    EXPECT_TRUE(std::is_sorted(step.incumbent.begin(), step.incumbent.end()));
    EXPECT_LE(static_cast<int>(step.incumbent.size()), spec.max_sources);
    EXPECT_GT(step.quality_after, 0.0);
  }
  // The final incumbent is alive in the final universe.
  for (SourceId s : report->final_solution.sources) {
    EXPECT_TRUE(engine.universe().source(s).available()) << s;
  }
  // The engine still solves against the evolved universe.
  Result<Solution> after = engine.Solve(spec, SolverKind::kTabu, QuickSolve());
  ASSERT_TRUE(after.ok()) << after.status();
}

// Wiping out the whole incumbent leaves repair nothing to seed from; the
// policy must escalate to a full re-solve and recover.
TEST(ContinuousTest, IncumbentWipeoutEscalatesToFullResolve) {
  Universe universe = MediumUniverse();
  const ProblemSpec spec = BasicSpec(4);
  ContinuousOptions options = QuickContinuous();

  // Discover the initial incumbent with an identical solve.
  Engine scout(CloneUniverse(universe), QualityModel::MakeDefault());
  Result<Solution> initial =
      scout.Solve(spec, options.solver, options.solver_options);
  ASSERT_TRUE(initial.ok()) << initial.status();

  ChurnTrace trace;
  double t = 1.0;
  for (SourceId s : initial->sources) {
    ChurnEvent remove;
    remove.time_ms = t;
    remove.kind = ChurnEventKind::kRemove;
    remove.source = s;
    trace.events.push_back(std::move(remove));
    t += 1.0;
  }

  Engine engine(std::move(universe), QualityModel::MakeDefault());
  Result<ContinuousReport> report =
      engine.RunContinuous(spec, trace, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->escalations, 1);
  EXPECT_GE(report->full_solves, 2);  // initial + at least one escalation
  bool saw_wipeout = false;
  for (const ContinuousStep& step : report->steps) {
    if (step.escalation_reason == EscalationReason::kIncumbentWipeout) {
      saw_wipeout = true;
    }
  }
  EXPECT_TRUE(saw_wipeout);
  for (SourceId dead : initial->sources) {
    EXPECT_FALSE(std::binary_search(report->final_solution.sources.begin(),
                                    report->final_solution.sources.end(),
                                    dead));
  }
  EXPECT_GT(report->final_solution.quality, 0.0);
}

// A source whose breaker is open at batch time is banned from that batch's
// repair: three failed stale refreshes of an incumbent member trip its
// breaker (default policy), so the batch evicts it although it is alive.
TEST(ContinuousTest, OpenBreakerEvictsTheSourceFromTheIncumbent) {
  Universe universe = MediumUniverse();
  const ProblemSpec spec = BasicSpec();
  ContinuousOptions options = QuickContinuous();

  // Discover the initial incumbent with an identical solve.
  Engine scout(CloneUniverse(universe), QualityModel::MakeDefault());
  Result<Solution> initial =
      scout.Solve(spec, options.solver, options.solver_options);
  ASSERT_TRUE(initial.ok()) << initial.status();
  const SourceId failing = initial->sources.front();

  ChurnTrace trace;
  for (double t : {100.0, 200.0, 300.0}) {
    ChurnEvent refresh;
    refresh.time_ms = t;
    refresh.kind = ChurnEventKind::kStaleRefresh;
    refresh.source = failing;
    refresh.staleness = 0.5;
    trace.events.push_back(std::move(refresh));
  }

  Engine engine(std::move(universe), QualityModel::MakeDefault());
  Result<ContinuousReport> report =
      engine.RunContinuous(spec, trace, options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->steps.size(), 1u);
  EXPECT_TRUE(engine.live().health().IsBlocked(failing, 300.0));
  EXPECT_TRUE(engine.universe().source(failing).available());
  EXPECT_EQ(report->steps[0].evicted, 1);
  EXPECT_FALSE(std::binary_search(report->steps[0].incumbent.begin(),
                                  report->steps[0].incumbent.end(), failing));
}

// The baseline policy re-solves from scratch on every batch and never runs
// a repair — the churn_sweep bench compares the live mode against this.
TEST(ContinuousTest, FullEverytimeBaselineNeverRepairs) {
  Universe universe = MediumUniverse();
  ChurnTrace trace = BusyTrace(universe, 33);
  Engine engine(std::move(universe), QualityModel::MakeDefault());
  ContinuousOptions options = QuickContinuous();
  options.mode = ContinuousOptions::Mode::kFullEverytime;
  Result<ContinuousReport> report =
      engine.RunContinuous(BasicSpec(), trace, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->repairs, 0);
  EXPECT_EQ(report->escalations, 0);
  EXPECT_EQ(report->full_solves, 1 + static_cast<int>(report->steps.size()));
  for (const ContinuousStep& step : report->steps) {
    EXPECT_TRUE(step.escalated);
    EXPECT_EQ(step.escalation_reason, EscalationReason::kBaseline);
    EXPECT_EQ(step.repair_budget, 0);
  }
}

TEST(ContinuousTest, RejectsBadOptions) {
  Engine engine(MediumUniverse(), QualityModel::MakeDefault());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ContinuousOptions options = QuickContinuous();
  options.batch_ms = 0.0;
  EXPECT_FALSE(engine.RunContinuous(BasicSpec(), ChurnTrace{}, options).ok());
  options = QuickContinuous();
  options.batch_ms = nan;
  EXPECT_FALSE(engine.RunContinuous(BasicSpec(), ChurnTrace{}, options).ok());
  options = QuickContinuous();
  options.escalation_fraction = 1.5;
  EXPECT_FALSE(engine.RunContinuous(BasicSpec(), ChurnTrace{}, options).ok());
  options = QuickContinuous();
  options.escalation_fraction = nan;
  EXPECT_FALSE(engine.RunContinuous(BasicSpec(), ChurnTrace{}, options).ok());
  // An inverted budget range is rejected whether or not the controller
  // steers the budget: it is built either way.
  for (bool adaptive : {true, false}) {
    options = QuickContinuous();
    options.adaptive.enabled = adaptive;
    options.adaptive.min_eval_budget = 1'000;
    options.adaptive.max_eval_budget = 100;
    Result<ContinuousReport> report =
        engine.RunContinuous(BasicSpec(), ChurnTrace{}, options);
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
        << "adaptive=" << adaptive;
  }
}

// A batch window anchored at a NaN time admits no event, so a loop waiting
// for the window to admit one re-solves forever. Each batch applies its
// first event unconditionally, and LiveUniverse::Apply rejects the time.
TEST(ContinuousTest, NonFiniteEventTimeFailsInsteadOfSpinning) {
  Engine engine(MediumUniverse(), QualityModel::MakeDefault());
  for (size_t valid_events : {0u, 1u}) {
    ChurnTrace trace;
    for (size_t i = 0; i <= valid_events; ++i) {
      ChurnEvent refresh;
      refresh.time_ms = i < valid_events
                            ? 100.0
                            : std::numeric_limits<double>::quiet_NaN();
      refresh.kind = ChurnEventKind::kStaleRefresh;
      refresh.source = 0;
      trace.events.push_back(std::move(refresh));
    }
    Result<ContinuousReport> report =
        engine.RunContinuous(BasicSpec(), trace, QuickContinuous());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
        << report.status();
  }
}

// Once a drift by a non-finite factor is applied, every solve containing
// the drifted source returns OK with Q(S) = NaN.
TEST(ContinuousTest, NonFiniteDriftFailsInsteadOfPoisoningQuality) {
  Engine engine(MediumUniverse(), QualityModel::MakeDefault());
  ProblemSpec spec = BasicSpec();
  spec.source_constraints = {0};
  ChurnTrace trace;
  ChurnEvent drift;
  drift.time_ms = 100.0;
  drift.kind = ChurnEventKind::kDrift;
  drift.source = 0;
  drift.characteristic_factor = std::numeric_limits<double>::infinity();
  trace.events.push_back(std::move(drift));
  Result<ContinuousReport> report =
      engine.RunContinuous(spec, trace, QuickContinuous());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
      << report.status();
  Result<Solution> solved = engine.Solve(spec, SolverKind::kTabu, QuickSolve());
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_TRUE(std::isfinite(solved->quality));
}

// --- RepairIncumbent unit tests ----------------------------------------

TEST(RepairUnitTest, EvictsBannedMembersAndImproves) {
  Universe universe = MediumUniverse(16);
  SimilarityGraph graph(universe, MakeDefaultSimilarity(), 0.25);
  ClusterMatcher matcher(universe, graph);
  QualityModel model = QualityModel::MakeDefault();
  ProblemSpec spec;
  spec.max_sources = 5;
  spec.banned_sources = {1, 2};
  ASSERT_TRUE(CandidateEvaluator::ValidateSpec(universe, spec).ok());
  CandidateEvaluator evaluator(universe, matcher, model, spec);

  const std::vector<SourceId> incumbent = {1, 2, 3, 4, 5};
  RepairOptions options;
  RepairResult result = RepairIncumbent(evaluator, incumbent, options);
  ASSERT_TRUE(result.seeded);
  EXPECT_EQ(result.evicted, 2);
  EXPECT_GE(result.solution.quality, result.seed_quality);
  EXPECT_EQ(result.solution.stats.solver_name, "repair");
  for (SourceId banned : spec.banned_sources) {
    EXPECT_FALSE(std::binary_search(result.solution.sources.begin(),
                                    result.solution.sources.end(), banned));
  }
}

TEST(RepairUnitTest, WholeIncumbentEvictedMeansNotSeeded) {
  Universe universe = MediumUniverse(16);
  SimilarityGraph graph(universe, MakeDefaultSimilarity(), 0.25);
  ClusterMatcher matcher(universe, graph);
  QualityModel model = QualityModel::MakeDefault();
  ProblemSpec spec;
  spec.max_sources = 5;
  spec.banned_sources = {1, 2};
  CandidateEvaluator evaluator(universe, matcher, model, spec);

  RepairResult result = RepairIncumbent(evaluator, {1, 2}, RepairOptions());
  EXPECT_FALSE(result.seeded);
  EXPECT_EQ(result.evicted, 2);
}

TEST(RepairUnitTest, ReAddsRequiredAndClampsToM) {
  Universe universe = MediumUniverse(16);
  SimilarityGraph graph(universe, MakeDefaultSimilarity(), 0.25);
  ClusterMatcher matcher(universe, graph);
  QualityModel model = QualityModel::MakeDefault();
  ProblemSpec spec;
  spec.max_sources = 3;
  spec.source_constraints = {0};
  CandidateEvaluator evaluator(universe, matcher, model, spec);

  // Oversized and missing the required source.
  RepairResult result =
      RepairIncumbent(evaluator, {3, 4, 5, 6, 7}, RepairOptions());
  ASSERT_TRUE(result.seeded);
  EXPECT_LE(static_cast<int>(result.solution.sources.size()),
            spec.max_sources);
  EXPECT_TRUE(std::binary_search(result.solution.sources.begin(),
                                 result.solution.sources.end(), SourceId{0}));
}

TEST(RepairUnitTest, DeterministicAcrossThreadCounts) {
  Universe universe = MediumUniverse(16);
  SimilarityGraph graph(universe, MakeDefaultSimilarity(), 0.25);
  ClusterMatcher matcher(universe, graph);
  QualityModel model = QualityModel::MakeDefault();
  ProblemSpec spec;
  spec.max_sources = 5;
  CandidateEvaluator evaluator(universe, matcher, model, spec);

  RepairOptions one;
  one.num_threads = 1;
  RepairOptions four = one;
  four.num_threads = 4;
  RepairResult a = RepairIncumbent(evaluator, {0, 3, 8}, one);
  RepairResult b = RepairIncumbent(evaluator, {0, 3, 8}, four);
  ASSERT_TRUE(a.seeded);
  ASSERT_TRUE(b.seeded);
  EXPECT_EQ(a.solution.sources, b.solution.sources);
  EXPECT_EQ(a.solution.quality, b.solution.quality);
  EXPECT_EQ(a.solution.stats.evaluations, b.solution.stats.evaluations);
  EXPECT_EQ(a.seed_quality, b.seed_quality);
}

/// What the reference climb below ends with, in RepairIncumbent's terms.
struct ReferenceWalk {
  std::vector<SourceId> sources;
  double quality = 0.0;
  int64_t iterations = 0;
  StopReason stop = StopReason::kMaxIterations;
  int64_t evaluations = 0;
  int64_t cache_hits = 0;
  /// Computed evaluations just before and just after the last batch.
  int64_t before_last_batch = 0;
  int64_t after_last_batch = 0;
};

/// The repair's climb restated over the public evaluator API: from a
/// feasible seed, sample the moves of one iteration, score them with
/// QualityBatch, commit the *best* move that improves on the current
/// quality, and check the evaluation budget before and after every batch.
ReferenceWalk ReferenceClimb(const CandidateEvaluator& evaluator,
                             const std::vector<SourceId>& seed,
                             const RepairOptions& options) {
  evaluator.BeginRun();
  Rng rng(options.seed);
  SearchState state(evaluator, seed);
  double current = evaluator.Quality(state.sources());
  const int n = evaluator.universe().num_sources();
  const int sample = options.candidate_moves > 0
                         ? options.candidate_moves
                         : std::min(64, std::max(24, n / 8));
  auto spent = [&] {
    return options.eval_budget > 0 &&
           evaluator.num_evaluations() >= options.eval_budget;
  };
  ReferenceWalk walk;
  for (int iter = 0; iter < std::max(1, options.max_iterations); ++iter) {
    if (spent()) {
      walk.stop = StopReason::kEvalBudget;
      break;
    }
    ++walk.iterations;
    std::vector<SearchState::Move> moves;
    std::vector<std::vector<SourceId>> candidates;
    for (int k = 0; k < sample; ++k) {
      SearchState::Move move;
      if (!state.RandomMove(rng, &move)) break;
      moves.push_back(move);
      candidates.push_back(state.Apply(move));
    }
    if (moves.empty()) {
      walk.stop = StopReason::kExhausted;
      break;
    }
    walk.before_last_batch = evaluator.num_evaluations();
    const std::vector<double> qualities = evaluator.QualityBatch(candidates);
    walk.after_last_batch = evaluator.num_evaluations();
    int chosen = -1;
    double chosen_quality = current;
    for (size_t k = 0; k < moves.size(); ++k) {
      if (qualities[k] > chosen_quality + 1e-12) {
        chosen = static_cast<int>(k);
        chosen_quality = qualities[k];
      }
    }
    if (chosen >= 0) {
      state.Commit(moves[static_cast<size_t>(chosen)]);
      current = chosen_quality;
    }
    if (spent()) {
      walk.stop = StopReason::kEvalBudget;
      break;
    }
    if (chosen < 0) {
      walk.stop = StopReason::kConverged;
      break;
    }
  }
  walk.sources = state.sources();
  walk.quality = evaluator.Evaluate(walk.sources).quality;
  walk.evaluations = evaluator.num_evaluations();
  walk.cache_hits = evaluator.num_cache_hits();
  return walk;
}

// RepairIncumbent climbs exactly like the reference: best-of-sample moves,
// a budget check after every batch (one budget runs out inside the last,
// non-improving batch, where only that check tells eval-budget from
// converged), and the same evaluation and cache-hit counts. A one-restart
// local search from the same seed walks the same way; it reports its stop
// differently (max-iterations unless a budget ran out).
TEST(RepairUnitTest, WalksLikeTheReferenceClimb) {
  Universe universe = MediumUniverse(24);
  SimilarityGraph graph(universe, MakeDefaultSimilarity(), 0.25);
  ClusterMatcher matcher(universe, graph);
  QualityModel model = QualityModel::MakeDefault();
  ProblemSpec spec;
  spec.max_sources = 6;
  CandidateEvaluator evaluator(universe, matcher, model, spec);
  const std::vector<SourceId> seed = {0, 3, 8};

  int budget_inside_last_batch = 0;
  for (uint64_t rng_seed = 1; rng_seed <= 5; ++rng_seed) {
    RepairOptions unbounded;
    unbounded.seed = rng_seed;
    unbounded.eval_budget = 0;
    const ReferenceWalk open_walk = ReferenceClimb(evaluator, seed, unbounded);
    std::vector<int64_t> budgets = {0, 40};
    int64_t inside_last_batch = -1;
    if (open_walk.stop == StopReason::kConverged &&
        open_walk.after_last_batch > open_walk.before_last_batch) {
      inside_last_batch = open_walk.before_last_batch + 1;
      budgets.push_back(inside_last_batch);
      ++budget_inside_last_batch;
    }
    for (int64_t budget : budgets) {
      for (int threads : {1, 3}) {
        SCOPED_TRACE(::testing::Message() << "seed " << rng_seed << " budget "
                                          << budget << " threads " << threads);
        RepairOptions options = unbounded;
        options.eval_budget = budget;
        options.num_threads = threads;
        const ReferenceWalk walk = ReferenceClimb(evaluator, seed, options);
        if (budget == inside_last_batch) {
          EXPECT_EQ(walk.stop, StopReason::kEvalBudget);
          EXPECT_EQ(walk.sources, open_walk.sources);
        }
        RepairResult repaired = RepairIncumbent(evaluator, seed, options);
        ASSERT_TRUE(repaired.seeded);
        const Solution& got = repaired.solution;
        EXPECT_EQ(got.sources, walk.sources);
        EXPECT_EQ(got.quality, walk.quality);  // bit-exact
        EXPECT_EQ(got.stats.iterations, walk.iterations);
        EXPECT_EQ(got.stats.stop_reason, walk.stop);
        EXPECT_EQ(got.stats.evaluations, walk.evaluations);
        EXPECT_EQ(got.stats.cache_hits, walk.cache_hits);

        SolverOptions sls;
        sls.seed = rng_seed;
        sls.restarts = 1;
        sls.max_iterations = options.max_iterations;
        sls.max_evaluations = budget;
        sls.num_threads = threads;
        sls.initial_incumbent = seed;
        Result<Solution> climbed =
            MakeSolver(SolverKind::kLocalSearch)->Solve(evaluator, sls);
        ASSERT_TRUE(climbed.ok()) << climbed.status();
        EXPECT_EQ(climbed->sources, walk.sources);
        EXPECT_EQ(climbed->quality, walk.quality);
        EXPECT_EQ(climbed->stats.iterations, walk.iterations);
        EXPECT_EQ(climbed->stats.evaluations, walk.evaluations);
        EXPECT_EQ(climbed->stats.cache_hits, walk.cache_hits);
      }
    }
  }
  EXPECT_GT(budget_inside_last_batch, 0);
}

TEST(RepairBudgetControllerTest, ClampsBaseAndDoublesOnEscalation) {
  AdaptiveRepairOptions adaptive;
  adaptive.min_eval_budget = 256;
  adaptive.max_eval_budget = 4'096;
  RepairBudgetController controller(64, adaptive);  // below min -> clamped
  EXPECT_EQ(controller.budget(), 256);

  controller.Record(/*evaluations_used=*/256, /*repaired=*/true,
                    /*quality_escalated=*/true, /*wipeout=*/false);
  EXPECT_EQ(controller.budget(), 512);
  controller.Record(512, true, true, false);
  EXPECT_EQ(controller.budget(), 1'024);
  controller.Record(1'024, true, true, false);
  controller.Record(2'048, true, true, false);
  controller.Record(4'096, true, true, false);
  EXPECT_EQ(controller.budget(), 4'096);  // capped at max
}

TEST(RepairBudgetControllerTest, ShrinksAfterConsecutiveCheapSuccesses) {
  AdaptiveRepairOptions adaptive;
  adaptive.min_eval_budget = 256;
  adaptive.max_eval_budget = 16'384;
  adaptive.shrink_after = 3;
  RepairBudgetController controller(4'096, adaptive);
  // Cheap: evaluations * 2 <= budget. Two cheap batches are not enough.
  controller.Record(100, true, false, false);
  controller.Record(100, true, false, false);
  EXPECT_EQ(controller.budget(), 4'096);
  controller.Record(100, true, false, false);  // third -> shrink by 1/4
  EXPECT_EQ(controller.budget(), 3'072);
  // A wipeout resets the streak without touching the budget.
  controller.Record(100, false, false, true);
  EXPECT_EQ(controller.budget(), 3'072);
  controller.Record(100, true, false, false);
  controller.Record(100, true, false, false);
  EXPECT_EQ(controller.budget(), 3'072);  // streak restarted after wipeout
}

TEST(RepairBudgetControllerTest, SustainedEscalationPressurePinsAtMax) {
  AdaptiveRepairOptions adaptive;
  adaptive.min_eval_budget = 256;
  adaptive.max_eval_budget = 8'192;
  adaptive.window = 4;
  RepairBudgetController controller(256, adaptive);
  // Alternate escalated / cheap so doubling alone would not reach max, but
  // half the trailing window escalated -> pinned at max.
  controller.Record(256, true, true, false);
  controller.Record(64, true, false, false);
  controller.Record(512, true, true, false);
  controller.Record(64, true, false, false);
  EXPECT_EQ(controller.budget(), 8'192);
  EXPECT_EQ(controller.ring().total(), 4);
}

TEST(ContinuousTest, FormatContinuousReportRendersReasons) {
  Universe universe = MediumUniverse(16);
  ChurnFeedConfig feed;
  feed.seed = 99;
  feed.events_per_sec = 2.0;
  feed.horizon_ms = 10'000.0;
  feed.attr_rename_weight = 4.0;
  feed.attr_add_weight = 2.0;
  feed.attr_drop_weight = 2.0;
  ChurnTrace trace = GenerateChurnTrace(universe, feed).value();
  Engine engine(std::move(universe), QualityModel::MakeDefault());
  Result<ContinuousReport> report =
      engine.RunContinuous(BasicSpec(), trace, QuickContinuous());
  ASSERT_TRUE(report.ok()) << report.status();
  const std::string text = FormatContinuousReport(*report);
  EXPECT_NE(text.find("continuous: "), std::string::npos);
  EXPECT_NE(text.find("schema drift"), std::string::npos);
  EXPECT_NE(text.find("escalation reasons:"), std::string::npos);
  // Every batch line renders, with budget when the batch was repaired.
  size_t batches = 0;
  for (size_t at = text.find("  batch "); at != std::string::npos;
       at = text.find("  batch ", at + 1)) {
    ++batches;
  }
  EXPECT_EQ(batches, report->steps.size());
}

}  // namespace
}  // namespace ube
