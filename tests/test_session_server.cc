// Multi-tenant session server (ISSUE 10): N concurrent sessions over one
// immutable engine snapshot. The suite checks the isolation invariants the
// server is built on — per-session weight overlays and ban lists that solve
// byte-identically to single-tenant runs, a shared quality cache that can
// never cross-serve two specs (verify-on-hit), warm-start re-solve with a
// cold fallback — and replays N concurrent sessions deterministically (the
// TSan soak target in CI).
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/session_server.h"
#include "obs/obs.h"
#include "sketch/distinct_estimator.h"
#include "util/thread_pool.h"
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

Engine MakeEngine(int num_sources = 40, uint64_t seed = 17) {
  GeneratedWorkload w = GenerateWorkload(SmallConfig(num_sources, seed));
  return Engine(std::move(w.universe), QualityModel::MakeDefault());
}

SolverOptions FastSolve(uint64_t seed = 42) {
  SolverOptions options;
  options.seed = seed;
  options.max_iterations = 120;
  options.stall_iterations = 30;
  return options;
}

SessionServer::Options FastServerOptions() {
  SessionServer::Options options;
  options.solver_options = FastSolve();
  return options;
}

// Byte-level equality on everything the user sees. Solver stats are
// deliberately excluded: with a shared cache the *computed* evaluation
// count legitimately depends on what a sibling session cached first.
void ExpectSameSolution(const Solution& a, const Solution& b) {
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.quality, b.quality);  // exact bits, not NEAR
  ASSERT_EQ(a.breakdown.scores.size(), b.breakdown.scores.size());
  for (size_t i = 0; i < a.breakdown.scores.size(); ++i) {
    EXPECT_EQ(a.breakdown.scores[i], b.breakdown.scores[i]) << "QEF " << i;
  }
}

// --------------------- SharedQualityCache unit tests ---------------------

using Probe = SharedQualityCache::Probe;

TEST(SharedQualityCacheTest, HitMissAndVerifyOnHit) {
  SharedQualityCache cache;
  const std::vector<SourceId> cand = {1, 2, 3};
  double quality = 0.0;
  EXPECT_EQ(cache.Lookup(/*fingerprint=*/7, /*key=*/99, cand, &quality),
            Probe::kMiss);
  cache.Insert(7, 99, cand, 0.5);
  ASSERT_EQ(cache.Lookup(7, 99, cand, &quality), Probe::kHit);
  EXPECT_DOUBLE_EQ(quality, 0.5);
  // A different fingerprint with the same key maps to a different slot
  // (the fingerprint is mixed into the slot), so it simply misses.
  EXPECT_EQ(cache.Lookup(8, 99, cand, &quality), Probe::kMiss);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().insertions, 1);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SharedQualityCacheTest, CrossSpecCollisionIsRejectedNotServed) {
  // Identity mix: the slot is the candidate key alone, so two specs'
  // entries for the same key land on one slot — the exact collision the
  // fingerprint check must catch. A poisoned cache would return spec A's
  // quality to spec B; the contract is a reject (recompute) instead.
  SharedQualityCache cache;
  cache.SetIdentityMixForTesting();
  const std::vector<SourceId> cand = {1, 2, 3};
  cache.Insert(/*fingerprint=*/7, /*key=*/99, cand, 0.5);
  double quality = -1.0;
  EXPECT_EQ(cache.Lookup(/*fingerprint=*/8, 99, cand, &quality),
            Probe::kReject);
  EXPECT_EQ(quality, -1.0) << "poisoned value leaked across specs";
  EXPECT_EQ(cache.stats().rejects, 1);
  // Same slot, same fingerprint, different candidate (a 64-bit hash
  // collision): also rejected.
  const std::vector<SourceId> other = {4, 5};
  EXPECT_EQ(cache.Lookup(7, 99, other, &quality), Probe::kReject);
  EXPECT_EQ(cache.stats().rejects, 2);
  // The honest owner still hits.
  EXPECT_EQ(cache.Lookup(7, 99, cand, &quality), Probe::kHit);
  EXPECT_DOUBLE_EQ(quality, 0.5);
}

TEST(SharedQualityCacheTest, FullShardIsClearedOnInsert) {
  SharedQualityCache cache(/*max_entries_per_shard=*/4);
  const std::vector<SourceId> cand = {0};
  int64_t reported = 0;
  for (uint64_t k = 0; k < 256; ++k) reported += cache.Insert(1, k, cand, 0.1);
  EXPECT_GT(cache.stats().evictions, 0);
  EXPECT_EQ(reported, cache.stats().evictions);
  // Bounded: never more than shards x bound entries.
  EXPECT_LE(cache.size(), 16u * 4u);
}

// --------------------------- server lifecycle ----------------------------

TEST(SessionServerTest, OpenCloseFind) {
  obs::ObsContext obs;
  SessionServer::Options options = FastServerOptions();
  options.obs = &obs;
  SessionServer server(MakeEngine(), std::move(options));

  auto [id_a, a] = server.Open();
  auto [id_b, b] = server.Open();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(id_a, id_b);
  EXPECT_EQ(server.num_open(), 2);
  EXPECT_EQ(server.total_opened(), 2);
  EXPECT_EQ(server.Find(id_a), a);
  EXPECT_EQ(server.Find(id_b), b);

  EXPECT_TRUE(server.Close(id_a).ok());
  EXPECT_EQ(server.Find(id_a), nullptr);
  EXPECT_EQ(server.num_open(), 1);
  EXPECT_EQ(server.total_opened(), 2);
  EXPECT_FALSE(server.Close(id_a).ok()) << "double close must be NotFound";

  obs::MetricsSnapshot snapshot = obs.metrics().Snapshot();
  const obs::CounterSnapshot* opened =
      snapshot.FindCounter("server/sessions_opened");
  const obs::CounterSnapshot* closed =
      snapshot.FindCounter("server/sessions_closed");
  ASSERT_NE(opened, nullptr);
  ASSERT_NE(closed, nullptr);
  EXPECT_EQ(opened->value, 2);
  EXPECT_EQ(closed->value, 1);
}

TEST(SessionServerTest, OpenWiresWarmStartAndSharedCache) {
  SessionServer server(MakeEngine(), FastServerOptions());
  auto [id, session] = server.Open();
  (void)id;
  EXPECT_TRUE(session->warm_start());
  EXPECT_EQ(session->solver_options().shared_cache, &server.mutable_cache());
}

// ------------------------- isolation invariants --------------------------

// The acceptance bar: two sessions with different weights and bans over one
// engine produce solutions byte-identical to single-session runs of the
// same specs. This is the regression for both PR-10 bugs at once — the
// SetWeight shared-model mutation and spec-blind cache reuse would each
// break it.
TEST(SessionServerTest, DifferentWeightsAndBansMatchSingleTenantRuns) {
  SessionServer server(MakeEngine(), FastServerOptions());
  auto [id_a, a] = server.Open();
  auto [id_b, b] = server.Open();
  (void)id_a;
  (void)id_b;
  a->SetMaxSources(5);
  b->SetMaxSources(5);
  ASSERT_TRUE(a->SetWeight("cardinality", 0.7).ok());
  ASSERT_TRUE(a->BanSource(3).ok());
  ASSERT_TRUE(b->SetWeight("coverage", 0.8).ok());
  ASSERT_TRUE(b->BanSource(5).ok());

  Result<Solution> sol_a = a->Iterate();
  Result<Solution> sol_b = b->Iterate();
  ASSERT_TRUE(sol_a.ok()) << sol_a.status();
  ASSERT_TRUE(sol_b.ok()) << sol_b.status();

  // Reference: a fresh single-tenant engine (same workload seed) solving
  // the very same specs, no server, no shared cache.
  Engine solo = MakeEngine();
  Result<Solution> ref_a = solo.Solve(a->spec(), SolverKind::kTabu,
                                      FastSolve());
  Result<Solution> ref_b = solo.Solve(b->spec(), SolverKind::kTabu,
                                      FastSolve());
  ASSERT_TRUE(ref_a.ok() && ref_b.ok());
  ExpectSameSolution(sol_a.value(), ref_a.value());
  ExpectSameSolution(sol_b.value(), ref_b.value());
}

// Two sessions posing the *same* effective problem share cache hits — and
// still answer byte-identically.
TEST(SessionServerTest, EqualSpecSessionsShareCacheHitsSafely) {
  SessionServer server(MakeEngine(), FastServerOptions());
  auto [id_a, a] = server.Open();
  auto [id_b, b] = server.Open();
  (void)id_a;
  (void)id_b;
  a->SetMaxSources(5);
  b->SetMaxSources(5);

  Result<Solution> sol_a = a->Iterate();  // populates the shared cache
  const SharedQualityCache::Stats after_a = server.cache().stats();
  Result<Solution> sol_b = b->Iterate();  // same fingerprint: hits
  const SharedQualityCache::Stats after_b = server.cache().stats();
  ASSERT_TRUE(sol_a.ok() && sol_b.ok());
  ExpectSameSolution(sol_a.value(), sol_b.value());
  EXPECT_GT(after_b.hits, after_a.hits)
      << "equal-spec sessions did not share the cache";
}

// --------------------------- warm-start loop -----------------------------

TEST(SessionServerTest, FeedbackGestureWarmStartsTheReSolve) {
  SessionServer server(MakeEngine(), FastServerOptions());
  auto [id, session] = server.Open();
  (void)id;
  session->SetMaxSources(5);

  Result<Solution> first = session->Iterate();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(session->stats().cold_solves, 1);
  EXPECT_EQ(session->stats().warm_solves, 0);

  // The canonical gesture: reject one source of the proposal, re-solve.
  ASSERT_GE(first->sources.size(), 2u);
  ASSERT_TRUE(session->BanSource(first->sources.front()).ok());
  Result<Solution> second = session->Iterate();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(session->stats().warm_solves, 1)
      << "re-solve after a ban should have warm-started from the repaired "
         "incumbent";
  for (SourceId s : second->sources) {
    EXPECT_NE(s, first->sources.front()) << "banned source in solution";
  }
  EXPECT_EQ(session->stats().iterations, 2);
  EXPECT_EQ(session->stats().feedback_gestures, 1);
}

TEST(SessionServerTest, WipedOutIncumbentFallsBackCold) {
  SessionServer server(MakeEngine(), FastServerOptions());
  auto [id, session] = server.Open();
  (void)id;
  session->SetMaxSources(4);

  Result<Solution> first = session->Iterate();
  ASSERT_TRUE(first.ok()) << first.status();
  // Ban the whole incumbent: the repair seed is empty, Iterate must fall
  // back to a cold solve (and still succeed — the universe is large).
  for (SourceId s : first->sources) {
    ASSERT_TRUE(session->BanSource(s).ok());
  }
  Result<Solution> second = session->Iterate();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(session->stats().cold_solves, 2);
  EXPECT_EQ(session->stats().warm_solves, 0);
  for (SourceId banned : first->sources) {
    for (SourceId s : second->sources) EXPECT_NE(s, banned);
  }
}

// Iterate runs a gesture's repair and its seeded solve on one evaluator;
// its answers, counters and store traffic must equal the two public calls
// perfbench's traced pass re-enacts it with: Engine::RepairSeed over the
// solver's store, then Engine::Solve seeded with the result. The gestures
// cover a cold first solve, a ban and a re-weight (warm), and a ban of the
// whole incumbent (the repair wipes out and the solve runs cold).
TEST(SessionServerTest, IterateMatchesRepairSeedThenSolve) {
  SessionServer server(MakeEngine(), FastServerOptions());
  SessionServer twin_server(MakeEngine(), FastServerOptions());
  Session* session = server.Open().second;
  Session* twin = twin_server.Open().second;
  const Engine& twin_engine = twin_server.engine();
  std::optional<Solution> twin_last;
  auto reenact = [&]() -> Result<Solution> {
    SolverOptions options = twin->solver_options();
    if (twin->warm_start() && twin_last.has_value()) {
      RepairOptions repair = twin->repair_options();
      if (repair.shared_cache == nullptr) {
        repair.shared_cache = options.shared_cache;
      }
      Result<std::vector<SourceId>> seed =
          twin_engine.RepairSeed(twin->spec(), twin_last->sources, repair);
      if (seed.ok() && !seed.value().empty()) {
        options.initial_incumbent = std::move(seed.value());
      }
    }
    Result<Solution> solution =
        twin_engine.Solve(twin->spec(), SolverKind::kTabu, options);
    if (solution.ok()) twin_last = solution.value();
    return solution;
  };
  auto expect_same_gesture = [&](const char* gesture) {
    SCOPED_TRACE(gesture);
    Result<Solution> iterated = session->Iterate();
    Result<Solution> reenacted = reenact();
    ASSERT_TRUE(iterated.ok()) << iterated.status();
    ASSERT_TRUE(reenacted.ok()) << reenacted.status();
    ExpectSameSolution(iterated.value(), reenacted.value());
    EXPECT_EQ(iterated->stats.evaluations, reenacted->stats.evaluations);
    EXPECT_EQ(iterated->stats.cache_hits, reenacted->stats.cache_hits);
  };
  session->SetMaxSources(5);
  twin->SetMaxSources(5);

  expect_same_gesture("first solve");
  ASSERT_NE(session->last(), nullptr);
  const SourceId rejected = session->last()->sources.front();
  ASSERT_TRUE(session->BanSource(rejected).ok());
  ASSERT_TRUE(twin->BanSource(rejected).ok());
  expect_same_gesture("ban");
  ASSERT_TRUE(session->SetWeight("cardinality", 0.6).ok());
  ASSERT_TRUE(twin->SetWeight("cardinality", 0.6).ok());
  expect_same_gesture("re-weight");
  for (SourceId s : session->last()->sources) {
    ASSERT_TRUE(session->BanSource(s).ok());
    ASSERT_TRUE(twin->BanSource(s).ok());
  }
  expect_same_gesture("ban of the whole incumbent");

  const SharedQualityCache::Stats store = server.cache().stats();
  const SharedQualityCache::Stats twin_store = twin_server.cache().stats();
  EXPECT_EQ(store.hits, twin_store.hits);
  EXPECT_EQ(store.misses, twin_store.misses);
  EXPECT_GT(store.hits, 0);
  EXPECT_EQ(session->stats().warm_solves, 2);
  EXPECT_EQ(session->stats().cold_solves, 2);
}

TEST(SessionServerTest, FailedIterateKeepsHistoryAndCountsIt) {
  SessionServer server(MakeEngine(), FastServerOptions());
  auto [id, session] = server.Open();
  (void)id;
  session->SetMaxSources(5);
  ASSERT_TRUE(session->Iterate().ok());
  const Solution before = *session->last();

  session->SetMaxSources(1);
  ASSERT_TRUE(session->PinSource(0).ok());
  ASSERT_TRUE(session->PinSource(1).ok());
  Result<Solution> failed = session->Iterate();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(session->num_iterations(), 1);
  ExpectSameSolution(*session->last(), before);
  EXPECT_EQ(session->stats().failed_solves, 1);
}

// A non-finite weight must not reach the evaluator: SetWeight rejects it
// and leaves the session's overlay as it was, so the next Iterate scores a
// finite Q(S); a solve whose overlay carries one is rejected up front.
TEST(SessionServerTest, NonFiniteWeightIsRejectedAndOverlayUnchanged) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  SessionServer server(MakeEngine(), FastServerOptions());
  auto [id, session] = server.Open();
  (void)id;
  session->SetMaxSources(5);
  for (double bad : {nan, inf, -inf}) {
    SCOPED_TRACE(bad);
    Status status = session->SetWeight("cardinality", bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_TRUE(session->spec().weight_overlay.empty());
  }
  ASSERT_TRUE(session->SetWeight("coverage", 0.4).ok());
  const std::vector<double> overlay = session->spec().weight_overlay;
  for (double bad : {nan, inf, -inf}) {
    SCOPED_TRACE(bad);
    Status status = session->SetWeight("cardinality", bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_EQ(session->spec().weight_overlay, overlay);
  }
  EXPECT_EQ(session->stats().feedback_gestures, 1);
  Result<Solution> solved = session->Iterate();
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_TRUE(std::isfinite(solved->quality));

  ProblemSpec spec;
  spec.max_sources = 5;
  spec.weight_overlay = {nan, 0.25, 0.25, 0.25, 0.25};
  Result<Solution> rejected =
      server.engine().Solve(spec, SolverKind::kTabu, FastSolve());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

// ----------------------- concurrent determinism --------------------------

// One deterministic per-session scenario: distinct spec per session id
// (distinct fingerprint, so sessions never share cache entries and the
// replay claim is exact), two feedback rounds, warm-start on.
std::vector<Solution> DriveSession(Session* session, int session_index) {
  std::vector<Solution> produced;
  session->SetMaxSources(5);
  EXPECT_TRUE(
      session
          ->SetWeight(session_index % 2 == 0 ? "cardinality" : "coverage",
                      0.5 + 0.02 * static_cast<double>(session_index % 8))
          .ok());
  EXPECT_TRUE(session->BanSource(session_index % 16).ok());

  Result<Solution> first = session->Iterate();
  EXPECT_TRUE(first.ok()) << first.status();
  if (first.ok()) produced.push_back(first.value());

  if (first.ok() && !first->sources.empty()) {
    Status ban = session->BanSource(first->sources.back());
    EXPECT_TRUE(ban.ok()) << ban;
  }
  Result<Solution> second = session->Iterate();
  EXPECT_TRUE(second.ok()) << second.status();
  if (second.ok()) produced.push_back(second.value());
  return produced;
}

// The session-soak target: N sessions with interleaved feedback gestures
// run concurrently over one server, then the same scenarios replay
// sequentially on a fresh server — every session's whole history must come
// back byte-identical. Under TSan this also proves the engine snapshot,
// the shared cache and the metrics path are race-free.
// A server over a universe that mixes signature formats (source 3 carries
// an exact signature, or a 32-bitmap PCSA sketch, among 64-bitmap ones)
// constructs without priming the unmergeable unions, and a session's
// Iterate returns InvalidArgument instead of aborting.
TEST(SessionServerTest, MixedSignatureFormatsFailIterateCleanly) {
  for (bool exact : {true, false}) {
    SCOPED_TRACE(exact ? "exact among pcsa:64" : "pcsa:32 among pcsa:64");
    GeneratedWorkload w = GenerateWorkload(SmallConfig(20, 7));
    std::unique_ptr<DistinctSignature> odd;
    if (exact) {
      odd = std::make_unique<ExactSignature>();
    } else {
      odd = std::make_unique<PcsaSignature>(32);
    }
    odd->Add(1);
    w.universe.mutable_source(3)->set_signature(std::move(odd));
    SessionServer server(
        Engine(std::move(w.universe), QualityModel::MakeDefault()),
        FastServerOptions());
    Session* session = server.Open().second;
    session->SetMaxSources(5);
    Result<Solution> solution = session->Iterate();
    EXPECT_EQ(solution.status().code(), StatusCode::kInvalidArgument)
        << solution.status();
  }
}

TEST(SessionServerTest, ConcurrentSessionsReplayDeterministically) {
  constexpr int kSessions = 8;

  SessionServer concurrent(MakeEngine(), FastServerOptions());
  std::vector<Session*> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(concurrent.Open().second);
  }
  std::vector<std::vector<Solution>> parallel_runs(kSessions);
  ThreadPool pool(kSessions);
  pool.ParallelFor(kSessions, [&](size_t i) {
    parallel_runs[i] = DriveSession(sessions[i], static_cast<int>(i));
  });

  SessionServer sequential(MakeEngine(), FastServerOptions());
  for (int i = 0; i < kSessions; ++i) {
    std::vector<Solution> replay =
        DriveSession(sequential.Open().second, i);
    ASSERT_EQ(parallel_runs[static_cast<size_t>(i)].size(), replay.size())
        << "session " << i;
    for (size_t j = 0; j < replay.size(); ++j) {
      ExpectSameSolution(parallel_runs[static_cast<size_t>(i)][j], replay[j]);
    }
  }
  EXPECT_EQ(concurrent.num_open(), kSessions);
}

}  // namespace
}  // namespace ube
