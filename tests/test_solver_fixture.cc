// Unified solver fixture: every SolverKind is described by a SolverTraits
// descriptor (monotonic? randomized? exact? anytime? budget? epsilon?) and
// this suite checks each implementation against its own descriptor on the
// pinned golden small universe, plus the cache-store and warm-start axes.
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/obs.h"
#include "optimize/solver.h"
#include "testkit/golden.h"
#include "testkit/oracles.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ube {
namespace {

using testkit::SolutionIsFeasible;
using testkit::SolutionsBitIdentical;

#ifndef UBE_TEST_DATA_DIR
#define UBE_TEST_DATA_DIR "tests/data"
#endif

// The pinned golden case (generator seed + options + recorded exhaustive
// optimum), loaded once; every fixture case below runs on this exact
// instance. Universe is move-only, so each engine regenerates it from the
// pinned seed — bit-identical by the golden file's contract.
const testkit::GoldenSmallUniverse& Golden() {
  static const testkit::GoldenSmallUniverse* instance = [] {
    const std::string path =
        std::string(UBE_TEST_DATA_DIR) + "/golden_small_universe.json";
    Result<testkit::GoldenSmallUniverse> golden =
        testkit::LoadGoldenSmallUniverse(path);
    if (!golden.ok()) {
      ADD_FAILURE() << "cannot load golden universe: " << golden.status();
      std::abort();
    }
    return new testkit::GoldenSmallUniverse(std::move(*golden));
  }();
  return *instance;
}

Engine MakeGoldenEngine() {
  const testkit::GoldenSmallUniverse& golden = Golden();
  Rng rng(golden.universe_seed);
  return Engine(testkit::GenerateUniverse(rng, golden.universe),
                QualityModel::MakeDefault());
}

// Matching-free model over the same golden universe: no miss runs Match(S),
// so a batch's misses run inline even when the solve has a pool, while
// MakeDefault's matching QEF sends them to the pool.
QualityModel DataOnlyModel() {
  QualityModel model;
  model.AddQef(std::make_unique<CardinalityQef>(), 0.4);
  model.AddQef(std::make_unique<CoverageQef>(), 0.3);
  model.AddQef(std::make_unique<RedundancyQef>(), 0.2);
  model.AddQef(std::make_unique<CharacteristicQef>("mttf",
                                                   Aggregation::kWeightedSum),
               0.1);
  return model;
}

Engine MakeGoldenEngine(QualityModel model) {
  const testkit::GoldenSmallUniverse& golden = Golden();
  Rng rng(golden.universe_seed);
  return Engine(testkit::GenerateUniverse(rng, golden.universe),
                std::move(model));
}

SolverOptions FixtureOptions(uint64_t seed = 42) {
  SolverOptions options;
  options.seed = seed;
  options.max_iterations = 80;
  options.stall_iterations = 25;
  options.restarts = 3;
  options.swarm_size = 10;
  options.random_samples = 120;
  return options;
}

// --- the descriptor table itself ----------------------------------------

TEST(SolverTraitsTest, CoversEveryKindExactlyOnce) {
  const std::vector<SolverKind>& kinds = AllSolverKinds();
  std::set<std::string> names;
  for (SolverKind kind : kinds) {
    SolverTraits traits = SolverTraitsFor(kind);
    EXPECT_EQ(traits.kind, kind);
    EXPECT_GT(traits.default_eval_budget, 0);
    EXPECT_GE(traits.quality_epsilon, 0.0);
    names.insert(std::string(SolverKindName(kind)));
  }
  EXPECT_EQ(names.size(), kinds.size()) << "duplicate solver display name";
  // Exactly one exact solver (the enumeration anchor of every oracle).
  int exact = 0;
  for (SolverKind kind : kinds) exact += SolverTraitsFor(kind).exact;
  EXPECT_EQ(exact, 1);
}

// --- per-solver fixture, driven by the descriptor -----------------------

class SolverFixtureTest : public ::testing::TestWithParam<SolverKind> {};

TEST_P(SolverFixtureTest, MatchesItsDescriptorOnGoldenUniverse) {
  const SolverKind kind = GetParam();
  const SolverTraits traits = SolverTraitsFor(kind);
  const testkit::GoldenSmallUniverse& golden = Golden();
  Engine engine = MakeGoldenEngine();

  SolverOptions options = FixtureOptions();
  options.record_trace = true;
  Result<Solution> solution = engine.Solve(golden.spec, kind, options);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_TRUE(SolutionIsFeasible(*solution, engine.universe(), golden.spec));

  // Quality lands within the descriptor's epsilon of the recorded optimum
  // and never above it.
  EXPECT_LE(solution->quality, golden.optimal_quality + 1e-9);
  EXPECT_GE(solution->quality,
            golden.optimal_quality - traits.quality_epsilon)
      << "quality gap exceeds the descriptor's epsilon";
  if (traits.exact) {
    EXPECT_NEAR(solution->quality, golden.optimal_quality, 1e-9);
  }

  // Monotonic incumbent trace.
  if (traits.monotonic_trace) {
    for (size_t i = 1; i < solution->stats.trace.size(); ++i) {
      EXPECT_GE(solution->stats.trace[i].best_quality,
                solution->stats.trace[i - 1].best_quality)
          << "trace not monotonic at point " << i;
      EXPECT_GE(solution->stats.trace[i].evaluations,
                solution->stats.trace[i - 1].evaluations);
    }
  }

  // Same seed replays bit-identically; non-randomized solvers must also be
  // seed-independent.
  Result<Solution> replay = engine.Solve(golden.spec, kind, options);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(SolutionsBitIdentical(*solution, *replay));
  if (!traits.randomized) {
    SolverOptions other_seed = options;
    other_seed.seed = options.seed + 101;
    Result<Solution> reseeded = engine.Solve(golden.spec, kind, other_seed);
    ASSERT_TRUE(reseeded.ok()) << reseeded.status();
    EXPECT_EQ(solution->sources, reseeded->sources)
        << "descriptor says deterministic, but the seed changed the result";
  }
}

TEST_P(SolverFixtureTest, HonorsEvaluationBudget) {
  const SolverKind kind = GetParam();
  const SolverTraits traits = SolverTraitsFor(kind);
  if (!traits.anytime) {
    GTEST_SKIP() << "not an anytime solver; budget truncation not promised";
  }
  const testkit::GoldenSmallUniverse& golden = Golden();
  Engine engine = MakeGoldenEngine();

  SolverOptions options = FixtureOptions();
  options.max_evaluations = 40;
  Result<Solution> solution = engine.Solve(golden.spec, kind, options);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_TRUE(SolutionIsFeasible(*solution, engine.universe(), golden.spec));
  // The budget is checked between neighborhood batches, so a run may
  // overshoot by at most one batch (bounded here by the options above).
  EXPECT_LE(solution->stats.evaluations, 40 + 256)
      << "evaluation budget ignored";
  if (solution->stats.stop_reason != StopReason::kEvalBudget) {
    // Legitimate only when the solver finished before the cap.
    EXPECT_LT(solution->stats.evaluations, 40 + 256);
    EXPECT_NE(solution->stats.stop_reason, StopReason::kUnknown);
  }
}

TEST_P(SolverFixtureTest, TimeLimitStopsDeterministicallyUnderManualClock) {
  const SolverKind kind = GetParam();
  const SolverTraits traits = SolverTraitsFor(kind);
  if (!traits.anytime) {
    GTEST_SKIP() << "not an anytime solver; deadline truncation not promised";
  }
  const testkit::GoldenSmallUniverse& golden = Golden();
  Engine engine = MakeGoldenEngine();

  // Every elapsed-time reading costs 5 simulated ms, so a 20 ms limit
  // expires after exactly four checks — no real clock, no flakiness.
  auto run = [&] {
    ManualClock clock;
    clock.set_auto_advance_ms(5.0);
    SolverOptions options = FixtureOptions();
    options.clock = &clock;
    options.time_limit_seconds = 0.020;
    return engine.Solve(golden.spec, kind, options);
  };
  Result<Solution> first = run();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(SolutionIsFeasible(*first, engine.universe(), golden.spec));
  EXPECT_EQ(first->stats.stop_reason, StopReason::kTimeLimit);

  // The simulated deadline is part of the deterministic state, so the
  // truncated run replays bit-identically — the property a real clock can
  // never give.
  Result<Solution> second = run();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(SolutionsBitIdentical(*first, *second));
}

// The eval.* counter totals a solve left in `obs`, by name.
std::map<std::string, int64_t> EvalCounters(const obs::ObsContext& obs) {
  std::map<std::string, int64_t> totals;
  const obs::MetricsSnapshot snapshot = obs.metrics().Snapshot();
  for (const obs::CounterSnapshot& counter : snapshot.counters) {
    if (counter.name.starts_with("eval.")) totals[counter.name] = counter.value;
  }
  return totals;
}

// Cache-store axis: which store memoizes Q(S) must not change a solve. For
// every solver, on the matching-free and the default matching model, and
// both thread counts, a solve through a fresh attached SharedQualityCache
// returns a Solution byte-identical to one on the evaluator's own cache —
// evaluations and cache hits included — and leaves equal eval.* counter
// totals.
TEST_P(SolverFixtureTest, AttachedCacheMatchesOwnCacheBitIdentically) {
  const SolverKind kind = GetParam();
  const testkit::GoldenSmallUniverse& golden = Golden();
  for (bool matching : {false, true}) {
    Engine engine = matching ? MakeGoldenEngine()
                             : MakeGoldenEngine(DataOnlyModel());
    for (int threads : {1, 0}) {
      SolverOptions options = FixtureOptions();
      options.record_trace = true;
      options.num_threads = threads;
      obs::ObsContext own_obs;
      options.obs = &own_obs;
      Result<Solution> own = engine.Solve(golden.spec, kind, options);
      ASSERT_TRUE(own.ok()) << own.status();

      SharedQualityCache cache;
      obs::ObsContext attached_obs;
      options.obs = &attached_obs;
      options.shared_cache = &cache;
      Result<Solution> attached = engine.Solve(golden.spec, kind, options);
      ASSERT_TRUE(attached.ok()) << attached.status();
      EXPECT_TRUE(SolutionsBitIdentical(*own, *attached))
          << "own/attached cache divergence (matching=" << matching
          << ", threads=" << threads << ")";
      EXPECT_EQ(EvalCounters(own_obs), EvalCounters(attached_obs))
          << "matching=" << matching << ", threads=" << threads;
    }
  }
}

// Warm-start axis: every solver accepts SolverOptions::initial_incumbent.
// A feasible seed must never produce a solution worse than the seed itself;
// an infeasible seed must be discarded *before* any randomness is consumed,
// so the solve is bit-identical to a cold one.
TEST_P(SolverFixtureTest, WarmStartNeverWorseThanSeedAndFallsBackCold) {
  const SolverKind kind = GetParam();
  const testkit::GoldenSmallUniverse& golden = Golden();
  Engine engine = MakeGoldenEngine();

  SolverOptions cold_options = FixtureOptions();
  Result<Solution> cold = engine.Solve(golden.spec, kind, cold_options);
  ASSERT_TRUE(cold.ok()) << cold.status();

  // Seed with the cold solution itself — the strongest feasible seed this
  // instance offers. Warm-start promises feasible output and quality at
  // least the seed's.
  SolverOptions warm_options = cold_options;
  warm_options.initial_incumbent = cold->sources;
  Result<Solution> warm = engine.Solve(golden.spec, kind, warm_options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(SolutionIsFeasible(*warm, engine.universe(), golden.spec));
  EXPECT_GE(warm->quality, cold->quality - 1e-12)
      << "warm-started solve returned worse than its seed";

  // An out-of-range seed is rejected up front; the solve must replay the
  // cold run bit-for-bit (the rng stream was never touched).
  SolverOptions bogus_options = cold_options;
  bogus_options.initial_incumbent = {SourceId{9'999}};
  Result<Solution> fallback = engine.Solve(golden.spec, kind, bogus_options);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  EXPECT_TRUE(SolutionsBitIdentical(*cold, *fallback))
      << "infeasible seed changed the solve";

  // Same for a seed that violates the cardinality bound: every source,
  // which always exceeds max_sources on the golden instance.
  std::vector<SourceId> everything;
  for (SourceId s = 0; s < engine.universe().num_sources(); ++s) {
    everything.push_back(s);
  }
  ASSERT_GT(static_cast<int>(everything.size()), golden.spec.max_sources);
  SolverOptions oversize_options = cold_options;
  oversize_options.initial_incumbent = std::move(everything);
  Result<Solution> oversize = engine.Solve(golden.spec, kind, oversize_options);
  ASSERT_TRUE(oversize.ok()) << oversize.status();
  EXPECT_TRUE(SolutionsBitIdentical(*cold, *oversize))
      << "oversized seed changed the solve";
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SolverFixtureTest, ::testing::ValuesIn(AllSolverKinds()),
    [](const ::testing::TestParamInfo<SolverKind>& info) {
      return std::string(SolverKindName(info.param));
    });

}  // namespace
}  // namespace ube
