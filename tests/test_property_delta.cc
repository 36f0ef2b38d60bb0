// Delta-vs-full differential oracle: the DeltaEvaluator's incremental
// scoring must be bit-identical to a table-free recomputation — per QEF
// and for the composite Q(S) — after ANY seeded flip sequence, including
// add-then-remove round-trips and restart resets, across signature kinds
// (exact and PCSA), degradation policies, uncooperative sources, and
// models with and without a matching QEF. The ground truth is Match (when
// the model needs it) + QualityModel::MakeContext + Evaluate(ctx, weights),
// which recomputes every universe-wide aggregate and scores each QEF
// through Qef::Evaluate, so it shares no table with the evaluator or the
// delta path. The same ground truth checks CandidateEvaluator::Evaluate on
// the paper's default model (F1 + data QEFs). A further property pins
// cache/counter parity: an identical candidate stream scored through the
// delta path (inline and on a thread pool) and through the full path must
// leave num_evaluations / num_cache_hits identical, so eval budgets stop
// at the same point.
// Replayable via UBE_PROPERTY_SEED / UBE_PROPERTY_ITERS (see TESTING.md).
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "matching/cluster_matcher.h"
#include "matching/similarity_graph.h"
#include "optimize/delta_evaluator.h"
#include "optimize/evaluator.h"
#include "optimize/search_state.h"
#include "qef/quality_model.h"
#include "testkit/generators.h"
#include "testkit/property.h"
#include "text/similarity.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ube {
namespace {

using testkit::PropertyRunner;

// One random instance: universe (optionally with degraded statistics and
// uncooperative sources), matcher, a model (with or without the matching
// QEF) under a random degradation policy, and a valid spec. Heap-allocated
// so the reference web (evaluator → universe/matcher/model/spec) stays
// stable.
struct Instance {
  Universe universe;
  std::unique_ptr<SimilarityGraph> graph;
  std::unique_ptr<ClusterMatcher> matcher;
  QualityModel model;
  ProblemSpec spec;
  std::unique_ptr<CandidateEvaluator> evaluator;

  explicit Instance(Universe u) : universe(std::move(u)) {}
};

constexpr DegradationPolicy kPolicies[] = {
    DegradationPolicy::kPessimisticPrior, DegradationPolicy::kLastKnownGood,
    DegradationPolicy::kExcludeRenormalize};

// A random universe with some statistics degraded (stale, partial,
// missing), so PolicyFor actually has cases to decide (weights, admission,
// denominators) — fresh-only universes make every policy a no-op.
Universe DegradedUniverse(Rng& rng, bool exact_signatures,
                          double characteristic_probability = 1.0) {
  testkit::UniverseGenOptions gen;
  gen.exact_signatures = exact_signatures;
  gen.uncooperative_probability = 0.15;
  gen.characteristic_probability = characteristic_probability;
  Universe universe = testkit::GenerateUniverse(rng, gen);
  for (SourceId s = 0; s < universe.num_sources(); ++s) {
    double roll = rng.UniformDouble();
    if (roll < 0.12) {
      universe.mutable_source(s)->set_stats_state(
          StatsState::kStale, rng.UniformDouble() * 2.0);
    } else if (roll < 0.20) {
      universe.mutable_source(s)->set_stats_state(StatsState::kPartial);
    } else if (roll < 0.25) {
      universe.mutable_source(s)->set_stats_state(StatsState::kMissing);
    }
  }
  return universe;
}

std::unique_ptr<Instance> MakeInstance(Rng& rng, bool exact_signatures,
                                       bool include_matching) {
  auto inst =
      std::make_unique<Instance>(DegradedUniverse(rng, exact_signatures));
  inst->graph = std::make_unique<SimilarityGraph>(
      inst->universe, MakeDefaultSimilarity(), 0.25);
  inst->matcher =
      std::make_unique<ClusterMatcher>(inst->universe, *inst->graph);
  inst->model = testkit::GenerateModel(rng, include_matching);
  DegradationOptions degradation;
  degradation.policy = kPolicies[rng.UniformInt(3)];
  inst->model.set_degradation(degradation);
  inst->spec = testkit::GenerateSpec(rng, inst->universe);
  inst->evaluator = std::make_unique<CandidateEvaluator>(
      inst->universe, *inst->matcher, inst->model, inst->spec);
  return inst;
}

// Ground truth without any precomputed table: Match when the model needs
// it, then the public context builder and weighted sum, under the
// evaluator's effective weights.
QualityBreakdown Reference(const Instance& inst,
                           const std::vector<SourceId>& candidate) {
  std::optional<MatchResult> match;
  if (inst.model.NeedsMatching()) {
    MatchOptions options;
    options.theta = inst.spec.theta;
    options.beta = inst.spec.beta;
    Result<MatchResult> result =
        inst.matcher->Match(candidate, inst.spec.source_constraints,
                            inst.spec.ga_constraints, options);
    EXPECT_TRUE(result.ok()) << result.status();
    if (result.ok()) match = std::move(result).value();
  }
  EvalContext ctx = inst.model.MakeContext(
      inst.universe, candidate, match.has_value() ? &*match : nullptr);
  return inst.model.Evaluate(ctx, inst.evaluator->effective_weights());
}

// The inverse of `move` from the post-commit state: re-applying it lands
// back on the pre-commit candidate.
SearchState::Move Inverse(const SearchState::Move& move) {
  SearchState::Move inverse;
  switch (move.kind) {
    case SearchState::Move::Kind::kAdd:
      inverse.kind = SearchState::Move::Kind::kDrop;
      inverse.out = move.in;
      break;
    case SearchState::Move::Kind::kDrop:
      inverse.kind = SearchState::Move::Kind::kAdd;
      inverse.in = move.out;
      break;
    case SearchState::Move::Kind::kSwap:
      inverse.kind = SearchState::Move::Kind::kSwap;
      inverse.in = move.out;
      inverse.out = move.in;
      break;
  }
  return inverse;
}

// After any seeded flip sequence — with commits, add-then-remove
// round-trips and restart resets interleaved — the delta state must score
// every neighbor bit-identically to a from-scratch full evaluation, per
// QEF and composite. Odd cases use PCSA signatures (the prefix/suffix OR
// path), even cases exact signatures (the Clone+MergeFrom union); half of
// each run the matching model, whose F1 reads the per-candidate Match.
TEST(DeltaPropertyTest, FlipSequencesAreBitIdenticalToFullRecompute) {
  PropertyRunner runner("delta-flip-bit-identity", 40);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    std::unique_ptr<Instance> inst =
        MakeInstance(rng, c % 2 == 0, /*include_matching=*/c % 4 >= 2);
    DeltaEvaluator delta(*inst->evaluator, true);
    ASSERT_TRUE(delta.active());

    SearchState state(
        *inst->evaluator,
        testkit::GenerateCandidate(rng, inst->universe, inst->spec));
    const int flips = 24;
    for (int f = 0; f < flips; ++f) {
      if (f % 8 == 7) {
        // Restart semantics: a Reset (solver restart / incumbent jump)
        // must rebase cleanly.
        state.Reset(
            testkit::GenerateCandidate(rng, inst->universe, inst->spec));
      }
      SearchState::Move move;
      if (!state.RandomMove(rng, &move)) break;
      std::vector<SearchState::Move> moves = {move};
      std::vector<std::vector<SourceId>> neighbors = {state.Apply(move)};

      // Composite Q(S) through the incremental move path vs the
      // table-free ground truth.
      std::vector<double> scored =
          delta.ScoreNeighborhood(state.sources(), moves, neighbors, nullptr);
      const QualityBreakdown truth = Reference(*inst, neighbors[0]);
      EXPECT_EQ(scored[0], truth.overall) << "flip " << f;

      // Per-QEF breakdown through the uncached delta probe.
      QualityBreakdown probe = delta.Compute(neighbors[0]);
      ASSERT_EQ(probe.scores.size(), truth.scores.size());
      for (size_t i = 0; i < probe.scores.size(); ++i) {
        EXPECT_EQ(probe.scores[i], truth.scores[i])
            << "flip " << f << " QEF " << inst->model.qef(static_cast<int>(i)).name();
      }
      EXPECT_EQ(probe.overall, truth.overall) << "flip " << f;

      if (rng.UniformDouble() < 0.5) {
        // Add-then-remove round trip: commit, score the inverse move from
        // the new base, and require bit-equality with the pre-commit
        // candidate's from-scratch quality.
        std::vector<SourceId> before = state.sources();
        double before_quality = delta.Compute(before).overall;
        state.Commit(move);
        SearchState::Move inverse = Inverse(move);
        std::vector<SearchState::Move> inverse_moves = {inverse};
        std::vector<std::vector<SourceId>> back = {state.Apply(inverse)};
        ASSERT_EQ(back[0], before);
        std::vector<double> round = delta.ScoreNeighborhood(
            state.sources(), inverse_moves, back, nullptr);
        EXPECT_EQ(round[0], before_quality)
            << "add-then-remove round trip diverged at flip " << f;
        EXPECT_EQ(round[0], Reference(*inst, before).overall);
      }
    }
  }
}

// The full path's universe tables on the paper's default model (F1 + the
// four data QEFs), where Match runs per candidate:
// CandidateEvaluator::Evaluate must reproduce the table-free ground truth
// (Match + MakeContext + Evaluate) per QEF and in Q(S), bit for bit, under
// every degradation policy, with stale / partial / missing sources, and
// with and without a weight overlay.
TEST(DeltaPropertyTest, EvaluatorTablesMatchReferenceOnDefaultModel) {
  PropertyRunner runner("evaluator-tables-default-model", 20);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    // Some sources lack the characteristic, so its table has gaps too.
    Universe universe = DegradedUniverse(rng, c % 2 == 0, 0.85);
    SimilarityGraph graph(universe, MakeDefaultSimilarity(), 0.25);
    ClusterMatcher matcher(universe, graph);
    QualityModel model = QualityModel::MakeDefault();
    for (DegradationPolicy policy : kPolicies) {
      DegradationOptions degradation;
      degradation.policy = policy;
      model.set_degradation(degradation);
      ProblemSpec spec = testkit::GenerateSpec(rng, universe);
      if (rng.Bernoulli(0.5)) {
        spec.weight_overlay = testkit::GenerateWeights(rng, model.num_qefs());
      }
      CandidateEvaluator evaluator(universe, matcher, model, spec);
      MatchOptions options;
      options.theta = spec.theta;
      options.beta = spec.beta;
      for (int k = 0; k < 6; ++k) {
        const std::vector<SourceId> candidate =
            testkit::GenerateCandidate(rng, universe, spec);
        const CandidateEvaluator::Evaluation full =
            evaluator.Evaluate(candidate);
        Result<MatchResult> match = matcher.Match(
            candidate, spec.source_constraints, spec.ga_constraints, options);
        ASSERT_TRUE(match.ok()) << match.status();
        EXPECT_EQ(MatchResultFingerprint(full.match),
                  MatchResultFingerprint(match.value()));
        EvalContext ctx = model.MakeContext(universe, candidate, &*match);
        const QualityBreakdown truth =
            model.Evaluate(ctx, evaluator.effective_weights());
        EXPECT_EQ(full.breakdown.feasible, truth.feasible);
        ASSERT_EQ(full.breakdown.scores.size(), truth.scores.size());
        for (size_t i = 0; i < truth.scores.size(); ++i) {
          EXPECT_EQ(full.breakdown.scores[i], truth.scores[i])
              << DegradationPolicyName(policy) << " QEF "
              << model.qef(static_cast<int>(i)).name();
        }
        EXPECT_EQ(full.breakdown.overall, truth.overall)
            << DegradationPolicyName(policy);
        EXPECT_EQ(full.quality, truth.overall);
      }
    }
  }
}

// Cache and counter parity: the same candidate stream — neighborhoods with
// intra-batch duplicates, plus arbitrary-candidate batches — scored through
// an active delta path on one evaluator and through the plain full path on
// a second, independent evaluator over the same instance must produce
// identical score vectors AND identical num_evaluations / num_cache_hits
// at every step. This is what makes max_evaluations budgets stop at the
// same point with delta on or off. A third evaluator runs the same stream
// through a delta path on a thread pool: per the pool rule the matching
// cases (half of them) compute their misses concurrently, and must still
// match the inline path bit for bit, counters included.
TEST(DeltaPropertyTest, CacheAndCounterParityWithFullPath) {
  PropertyRunner runner("delta-counter-parity", 25);
  ThreadPool pool(3);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    std::unique_ptr<Instance> inst =
        MakeInstance(rng, c % 2 == 0, /*include_matching=*/c % 4 >= 2);
    CandidateEvaluator full_eval(inst->universe, *inst->matcher, inst->model,
                                 inst->spec);
    CandidateEvaluator pooled_eval(inst->universe, *inst->matcher,
                                   inst->model, inst->spec);
    DeltaEvaluator delta(*inst->evaluator, true);
    DeltaEvaluator pooled(pooled_eval, true);
    ASSERT_TRUE(delta.active());
    EXPECT_FALSE(DeltaEvaluator(full_eval, false).active());
    inst->evaluator->BeginRun();
    full_eval.BeginRun();
    pooled_eval.BeginRun();
    auto expect_counters_equal = [&](int round) {
      EXPECT_EQ(inst->evaluator->num_evaluations(),
                full_eval.num_evaluations())
          << "round " << round;
      EXPECT_EQ(inst->evaluator->num_cache_hits(), full_eval.num_cache_hits())
          << "round " << round;
      EXPECT_EQ(pooled_eval.num_evaluations(), full_eval.num_evaluations())
          << "round " << round;
      EXPECT_EQ(pooled_eval.num_cache_hits(), full_eval.num_cache_hits())
          << "round " << round;
    };

    SearchState state(
        *inst->evaluator,
        testkit::GenerateCandidate(rng, inst->universe, inst->spec));
    const double start_quality = full_eval.Quality(state.sources());
    EXPECT_EQ(delta.Quality(state.sources()), start_quality);
    EXPECT_EQ(pooled.Quality(state.sources()), start_quality);
    for (int round = 0; round < 12; ++round) {
      std::vector<SearchState::Move> moves;
      std::vector<std::vector<SourceId>> neighbors;
      for (int k = 0; k < 6; ++k) {
        SearchState::Move move;
        if (!state.RandomMove(rng, &move)) break;
        moves.push_back(move);
        neighbors.push_back(state.Apply(move));
        if (rng.UniformDouble() < 0.3) {
          // Duplicate entry: both paths must dedup it and count the
          // duplicate as a cache hit.
          moves.push_back(move);
          neighbors.push_back(neighbors.back());
        }
      }
      if (neighbors.empty()) break;
      std::vector<double> via_delta =
          delta.ScoreNeighborhood(state.sources(), moves, neighbors, nullptr);
      std::vector<double> via_pool =
          pooled.ScoreNeighborhood(state.sources(), moves, neighbors, &pool);
      std::vector<double> via_full = full_eval.QualityBatch(neighbors);
      ASSERT_EQ(via_delta.size(), via_full.size());
      ASSERT_EQ(via_pool.size(), via_full.size());
      for (size_t i = 0; i < via_delta.size(); ++i) {
        EXPECT_EQ(via_delta[i], via_full[i]) << "round " << round;
        EXPECT_EQ(via_pool[i], via_full[i]) << "round " << round;
      }
      expect_counters_equal(round);
      state.Commit(moves[static_cast<size_t>(
          rng.UniformInt(static_cast<uint64_t>(moves.size())))]);

      // Arbitrary-candidate batch (the PSO/greedy entry point).
      std::vector<std::vector<SourceId>> arbitrary;
      for (int k = 0; k < 4; ++k) {
        arbitrary.push_back(
            testkit::GenerateCandidate(rng, inst->universe, inst->spec));
      }
      std::vector<double> arb_delta = delta.ScoreCandidates(arbitrary, nullptr);
      std::vector<double> arb_pool = pooled.ScoreCandidates(arbitrary, &pool);
      std::vector<double> arb_full = full_eval.QualityBatch(arbitrary);
      for (size_t i = 0; i < arbitrary.size(); ++i) {
        EXPECT_EQ(arb_delta[i], arb_full[i]) << "round " << round;
        EXPECT_EQ(arb_pool[i], arb_full[i]) << "round " << round;
      }
      expect_counters_equal(round);
    }
  }
}

}  // namespace
}  // namespace ube
