// The schema-drift oracle.
//
// After every churn event of a drift-heavy trace (attribute renames, adds
// and drops mixed with the source-level kinds), the incrementally patched
// similarity graph must be Fingerprint()-identical to a from-scratch
// rebuild over the mutated universe, and a matcher over the patched graph
// must produce byte-identical Match output (MatchResultFingerprint) to one
// over the rebuilt graph. Exercised across >= 50 seeded traces.
//
// UBE_PROPERTY_SEED reruns a named failure (see TESTING.md).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/change_feed.h"
#include "matching/cluster_matcher.h"
#include "matching/similarity_graph.h"
#include "source/flaky.h"
#include "source/live_universe.h"
#include "testkit/generators.h"
#include "testkit/property.h"
#include "text/similarity.h"
#include "util/rng.h"

namespace ube {
namespace {

using testkit::PropertyRunner;

// A drift-heavy feed: schema events dominate, but every kind stays in play
// so drift interleaves with adds, removes and refreshes.
ChurnFeedConfig DriftHeavyFeed(uint64_t seed) {
  ChurnFeedConfig config;
  config.seed = seed;
  config.events_per_sec = 2.0;
  config.horizon_ms = 8'000.0;  // ~16 events per trace
  config.attr_rename_weight = 3.0;
  config.attr_add_weight = 2.0;
  config.attr_drop_weight = 2.0;
  return config;
}

std::vector<SourceId> AliveSources(const Universe& universe) {
  std::vector<SourceId> alive;
  for (SourceId s = 0; s < universe.num_sources(); ++s) {
    if (universe.source(s).available()) alive.push_back(s);
  }
  return alive;
}

// Match over every alive source with no user constraints; the result's
// fingerprint is the matcher-state oracle (ClusterMatcher itself is
// stateless, so equal outputs over equal graphs is the whole contract).
uint64_t MatchFingerprint(const Universe& universe,
                          const SimilarityGraph& graph) {
  ClusterMatcher matcher(universe, graph);
  Result<MatchResult> result = matcher.Match(AliveSources(universe), {}, {});
  UBE_CHECK(result.ok(), "Match over alive sources must be well-formed");
  return MatchResultFingerprint(*result);
}

// The tentpole oracle: patched graph == rebuilt graph after every event,
// and the matcher agrees, across >= 50 seeded drift-heavy traces on both
// the n-gram fast path and the generic-measure path.
TEST(DriftPropertyTest, PatchedGraphAndMatcherMatchRebuild) {
  PropertyRunner runner("drift-patch-vs-rebuild", 50);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    testkit::UniverseGenOptions gen;
    gen.min_sources = 5;
    gen.max_sources = 10;
    Universe universe = testkit::GenerateUniverse(rng, gen);
    ChurnTrace trace =
        GenerateChurnTrace(universe, DriftHeavyFeed(rng.Next64())).value();

    const bool ngram = rng.Bernoulli(0.5);
    auto make_measure = [ngram]() -> std::unique_ptr<AttributeSimilarity> {
      if (ngram) return MakeDefaultSimilarity();
      return std::make_unique<LevenshteinSimilarity>();
    };
    LiveUniverse::Options live_options;
    live_options.similarity = make_measure();
    LiveUniverse live(CloneUniverse(universe), std::move(live_options));
    int step = 0;
    int drift_seen = 0;
    for (const ChurnEvent& event : trace.events) {
      SCOPED_TRACE("event " + std::to_string(step++) + " kind " +
                   std::to_string(static_cast<int>(event.kind)) + " source " +
                   std::to_string(event.source) + " attr " +
                   std::to_string(event.attr_index) + " '" + event.attr_name +
                   "'");
      if (IsSchemaDrift(event.kind)) ++drift_seen;
      ASSERT_TRUE(live.Apply(event).ok());
      SimilarityGraph rebuilt(live.universe(), make_measure(), 0.25);
      ASSERT_EQ(live.graph().Fingerprint(), rebuilt.Fingerprint());
      // The matcher oracle is O(attributes^2); sample it rather than
      // running it on every event of every case.
      if (step % 4 == 0) {
        ASSERT_EQ(MatchFingerprint(live.universe(), live.graph()),
                  MatchFingerprint(live.universe(), rebuilt));
      }
    }
    ASSERT_EQ(MatchFingerprint(live.universe(), live.graph()),
              MatchFingerprint(
                  live.universe(),
                  SimilarityGraph(live.universe(), make_measure(), 0.25)));
    // Drift-heavy weights must actually exercise the drift kinds: across
    // the whole suite every trace carries some, and most carry several.
    if (!trace.events.empty()) {
      EXPECT_GT(drift_seen, 0) << "trace of " << trace.events.size()
                               << " events drew no schema drift";
    }
  }
}

// Seed stability: the trace (including every drift payload) is a pure
// function of (universe content, config) — same seed, same fingerprint;
// different seed, different fingerprint.
TEST(DriftPropertyTest, TraceFingerprintIsSeedStable) {
  PropertyRunner runner("drift-trace-seed-stable", 20);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    Universe universe = testkit::GenerateUniverse(rng);
    const uint64_t seed = rng.Next64();
    ChurnTrace a = GenerateChurnTrace(universe, DriftHeavyFeed(seed)).value();
    ChurnTrace b = GenerateChurnTrace(universe, DriftHeavyFeed(seed)).value();
    ASSERT_EQ(ChurnTraceFingerprint(a), ChurnTraceFingerprint(b));
    ChurnTrace other =
        GenerateChurnTrace(universe, DriftHeavyFeed(seed ^ 0x5a5a)).value();
    if (!a.events.empty() || !other.events.empty()) {
      EXPECT_NE(ChurnTraceFingerprint(a), ChurnTraceFingerprint(other));
    }
  }
}

}  // namespace
}  // namespace ube
