// The live-universe layer: deterministic churn feeds, incremental universe
// and similarity-graph maintenance, tombstone/revive semantics, and
// aggregate consistency under churn. The breadth version of the
// patched-vs-rebuilt graph check lives in test_property_similarity.cc; here
// the semantics of each event kind are pinned one by one.
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/change_feed.h"
#include "matching/similarity_graph.h"
#include "sketch/distinct_estimator.h"
#include "source/compound.h"
#include "source/flaky.h"
#include "source/live_universe.h"
#include "text/similarity.h"
#include "workload/generator.h"

namespace ube {
namespace {

Universe SmallUniverse(int num_sources = 20) {
  WorkloadConfig config;
  config.num_sources = num_sources;
  config.scale = 0.001;
  return GenerateWorkload(config).universe;
}

ChurnFeedConfig BusyFeed(uint64_t seed = 7) {
  ChurnFeedConfig config;
  config.seed = seed;
  config.events_per_sec = 3.0;
  config.horizon_ms = 10'000.0;  // ~30 events
  return config;
}

uint64_t RebuildFingerprint(const Universe& universe) {
  return SimilarityGraph(universe, MakeDefaultSimilarity(), 0.25)
      .Fingerprint();
}

TEST(ChurnFeedTest, ReplaysBitIdenticallyFromSeedRateHorizon) {
  Universe universe = SmallUniverse();
  ChurnTrace a = GenerateChurnTrace(universe, BusyFeed(123)).value();
  ChurnTrace b = GenerateChurnTrace(universe, BusyFeed(123)).value();
  ASSERT_FALSE(a.events.empty());
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(ChurnTraceFingerprint(a), ChurnTraceFingerprint(b));
  // A different seed produces a different stream.
  ChurnTrace c = GenerateChurnTrace(universe, BusyFeed(124)).value();
  EXPECT_NE(ChurnTraceFingerprint(a), ChurnTraceFingerprint(c));
}

TEST(ChurnFeedTest, EventsAreOrderedInsideHorizonAndApplyCleanly) {
  Universe universe = SmallUniverse();
  ChurnFeedConfig config = BusyFeed(99);
  ChurnTrace trace = GenerateChurnTrace(universe, config).value();
  ASSERT_FALSE(trace.events.empty());
  double last = 0.0;
  int kinds_seen[kNumChurnEventKinds] = {};
  for (const ChurnEvent& event : trace.events) {
    EXPECT_GE(event.time_ms, last);
    EXPECT_LE(event.time_ms, config.horizon_ms);
    last = event.time_ms;
    ++kinds_seen[static_cast<int>(event.kind)];
  }
  // With uniform-ish weights over ~30 events, every kind shows up.
  EXPECT_GT(kinds_seen[static_cast<int>(ChurnEventKind::kStaleRefresh)] +
                kinds_seen[static_cast<int>(ChurnEventKind::kDrift)],
            0);
  // The generator mirrors the applier's state machine: a generated trace
  // always applies without error.
  LiveUniverse live(std::move(universe));
  EXPECT_TRUE(live.ApplyAll(trace).ok());
  EXPECT_EQ(live.version(), static_cast<int64_t>(trace.events.size()));
}

TEST(ChurnFeedTest, NeverRemovesBelowMinAlive) {
  Universe universe = SmallUniverse(6);
  ChurnFeedConfig config = BusyFeed(5);
  config.remove_weight = 50.0;  // removal-hungry feed
  config.add_weight = 0.5;
  config.min_alive = 3;
  ChurnTrace trace = GenerateChurnTrace(universe, config).value();
  LiveUniverse live(std::move(universe));
  for (const ChurnEvent& event : trace.events) {
    ASSERT_TRUE(live.Apply(event).ok());
    EXPECT_GE(live.universe().num_available(), config.min_alive);
  }
}

// Declared-capacity guard: downstream structures (SearchState's
// SourceBitset, the evaluator's per-source table) size fixed-width
// state at universe build, so an add-event that would grow past the cap
// must fail with a Status — leaving universe, graph and version untouched
// — instead of minting an id those structures cannot index.
TEST(LiveUniverseTest, AddPastDeclaredCapacityFailsWithoutMutating) {
  Universe universe = SmallUniverse(8);
  LiveUniverse::Options options;
  options.max_sources = 8;
  LiveUniverse live(std::move(universe), std::move(options));
  const uint64_t graph_before = live.graph().Fingerprint();

  ChurnEvent add;
  add.time_ms = 5.0;
  add.kind = ChurnEventKind::kAdd;
  add.source = 8;  // the next dense id — valid shape, over capacity
  add.added = std::make_unique<DataSource>("overflow", SourceSchema());
  Status status = live.Apply(add);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(live.universe().num_sources(), 8);
  EXPECT_EQ(live.version(), 0);
  EXPECT_EQ(live.graph().Fingerprint(), graph_before);

  // Remove + revive churn stays within the existing id range, so it is
  // unaffected by the cap.
  ChurnEvent remove;
  remove.time_ms = 6.0;
  remove.kind = ChurnEventKind::kRemove;
  remove.source = 3;
  ASSERT_TRUE(live.Apply(remove).ok());
  ChurnEvent revive;
  revive.time_ms = 7.0;
  revive.kind = ChurnEventKind::kAdd;
  revive.source = 3;
  revive.revive = true;
  ASSERT_TRUE(live.Apply(revive).ok());
  EXPECT_EQ(live.universe().num_sources(), 8);
}

TEST(LiveUniverseTest, RemoveCollapsesToShellWithStableIds) {
  Universe universe = SmallUniverse(8);
  const int n = universe.num_sources();
  const std::string name = universe.source(3).name();
  LiveUniverse live(std::move(universe));

  ChurnEvent remove;
  remove.time_ms = 5.0;
  remove.kind = ChurnEventKind::kRemove;
  remove.source = 3;
  ASSERT_TRUE(live.Apply(remove).ok());

  EXPECT_EQ(live.universe().num_sources(), n);  // ids stable
  const DataSource& shell = live.universe().source(3);
  EXPECT_EQ(shell.name(), name);
  EXPECT_FALSE(shell.available());
  EXPECT_TRUE(shell.schema().names().empty());
  EXPECT_EQ(shell.stats_state(), StatsState::kMissing);
  EXPECT_EQ(live.universe().UnavailableIds(), std::vector<SourceId>{3});
  EXPECT_EQ(live.graph().Fingerprint(), RebuildFingerprint(live.universe()));
}

TEST(LiveUniverseTest, ReviveRestoresByteIdenticalDescription) {
  Universe universe = SmallUniverse(8);
  LiveUniverse live(std::move(universe));
  const std::string before = WriteCatalog(live.universe());
  const uint64_t graph_before = live.graph().Fingerprint();

  ChurnEvent remove;
  remove.time_ms = 5.0;
  remove.kind = ChurnEventKind::kRemove;
  remove.source = 2;
  ASSERT_TRUE(live.Apply(remove).ok());
  EXPECT_NE(WriteCatalog(live.universe()), before);

  ChurnEvent revive;
  revive.time_ms = 9.0;
  revive.kind = ChurnEventKind::kAdd;
  revive.source = 2;
  revive.revive = true;
  ASSERT_TRUE(live.Apply(revive).ok());

  // Byte-identical catalog text: schema, cardinality, characteristics,
  // signature bits and state all came back.
  EXPECT_EQ(WriteCatalog(live.universe()), before);
  EXPECT_EQ(live.graph().Fingerprint(), graph_before);
}

TEST(LiveUniverseTest, BrandNewSourceTakesNextIdAndJoinsGraph) {
  Universe universe = SmallUniverse(6);
  const int n = universe.num_sources();
  LiveUniverse live(std::move(universe));

  ChurnEvent add;
  add.time_ms = 1.0;
  add.kind = ChurnEventKind::kAdd;
  add.source = n;
  add.added =
      std::make_unique<DataSource>("newcomer", SourceSchema({"title", "price"}));
  add.added->set_cardinality(777);
  ASSERT_TRUE(live.Apply(add).ok());

  ASSERT_EQ(live.universe().num_sources(), n + 1);
  EXPECT_EQ(live.universe().source(n).name(), "newcomer");
  EXPECT_TRUE(live.universe().source(n).available());
  EXPECT_EQ(live.graph().Fingerprint(), RebuildFingerprint(live.universe()));
  EXPECT_EQ(live.health().FindBreaker(n), nullptr);
}

TEST(LiveUniverseTest, InvalidEventsFailCleanlyAndLeaveStateUntouched) {
  Universe universe = SmallUniverse(6);
  LiveUniverse live(std::move(universe));
  const std::string snapshot = WriteCatalog(live.universe());

  ChurnEvent event;
  event.time_ms = 10.0;
  event.kind = ChurnEventKind::kStaleRefresh;
  event.source = 1;
  event.staleness = 0.4;
  ASSERT_TRUE(live.Apply(event).ok());
  const int64_t version = live.version();

  // Out-of-order time.
  ChurnEvent stale;
  stale.time_ms = 5.0;
  stale.kind = ChurnEventKind::kDrift;
  stale.source = 1;
  EXPECT_FALSE(live.Apply(stale).ok());

  // Revive without a tombstone.
  ChurnEvent revive;
  revive.time_ms = 11.0;
  revive.kind = ChurnEventKind::kAdd;
  revive.source = 2;
  revive.revive = true;
  EXPECT_FALSE(live.Apply(revive).ok());

  // Brand-new add must take the next id.
  ChurnEvent add;
  add.time_ms = 11.0;
  add.kind = ChurnEventKind::kAdd;
  add.source = 99;
  add.added = std::make_unique<DataSource>("x", SourceSchema({"a"}));
  EXPECT_FALSE(live.Apply(add).ok());

  // Add with no payload.
  ChurnEvent empty_add;
  empty_add.time_ms = 11.0;
  empty_add.kind = ChurnEventKind::kAdd;
  empty_add.source = live.universe().num_sources();
  EXPECT_FALSE(live.Apply(empty_add).ok());

  // Remove of an already-removed source.
  ChurnEvent remove;
  remove.time_ms = 12.0;
  remove.kind = ChurnEventKind::kRemove;
  remove.source = 3;
  ASSERT_TRUE(live.Apply(remove).ok());
  ChurnEvent again = std::move(remove);
  again.time_ms = 13.0;
  EXPECT_FALSE(live.Apply(again).ok());

  // Drift with a non-positive factor, and on an unavailable source.
  ChurnEvent drift;
  drift.time_ms = 14.0;
  drift.kind = ChurnEventKind::kDrift;
  drift.source = 1;
  drift.cardinality_factor = 0.0;
  EXPECT_FALSE(live.Apply(drift).ok());
  drift.cardinality_factor = 1.2;
  drift.source = 3;
  EXPECT_FALSE(live.Apply(drift).ok());

  // Only the valid events advanced the version.
  EXPECT_EQ(live.version(), version + 1);
}

TEST(LiveUniverseTest, StaleRefreshAndDriftUpdateStatistics) {
  Universe universe = SmallUniverse(6);
  const int64_t cardinality = universe.source(0).cardinality();
  LiveUniverse live(std::move(universe));

  ChurnEvent stale;
  stale.time_ms = 1.0;
  stale.kind = ChurnEventKind::kStaleRefresh;
  stale.source = 0;
  stale.staleness = 0.6;
  ASSERT_TRUE(live.Apply(stale).ok());
  EXPECT_EQ(live.universe().source(0).stats_state(), StatsState::kStale);
  EXPECT_EQ(live.universe().source(0).staleness(), 0.6);

  ChurnEvent refresh;
  refresh.time_ms = 2.0;
  refresh.kind = ChurnEventKind::kStaleRefresh;
  refresh.source = 0;
  refresh.staleness = 0.0;  // successful refresh
  ASSERT_TRUE(live.Apply(refresh).ok());
  EXPECT_TRUE(live.universe().source(0).stats_fresh());

  ChurnEvent drift;
  drift.time_ms = 3.0;
  drift.kind = ChurnEventKind::kDrift;
  drift.source = 0;
  drift.cardinality_factor = 2.0;
  drift.characteristic_factor = 1.0;
  ASSERT_TRUE(live.Apply(drift).ok());
  EXPECT_EQ(live.universe().source(0).cardinality(), 2 * cardinality);
}

// A successful stale refresh (staleness 0) closes the source's breaker and
// clears its failure streak; a failed one (staleness > 0) counts as a
// failure. Default breaker: three consecutive failures trip it.
TEST(LiveUniverseTest, SuccessfulStaleRefreshResetsTheBreaker) {
  LiveUniverse live(SmallUniverse(6));
  auto refresh = [&live](double t, double staleness) {
    ChurnEvent event;
    event.time_ms = t;
    event.kind = ChurnEventKind::kStaleRefresh;
    event.source = 0;
    event.staleness = staleness;
    ASSERT_TRUE(live.Apply(event).ok());
  };
  refresh(100.0, 0.5);
  refresh(200.0, 0.5);
  refresh(300.0, 0.0);  // success: the streak of two is forgotten
  refresh(400.0, 0.5);
  EXPECT_FALSE(live.health().IsBlocked(0, 400.0));
  refresh(500.0, 0.5);
  refresh(600.0, 0.5);  // third failure in a row trips the breaker
  EXPECT_TRUE(live.health().IsBlocked(0, 600.0));
  refresh(700.0, 0.0);
  EXPECT_FALSE(live.health().IsBlocked(0, 700.0));
}

TEST(LiveUniverseTest, AggregatesStayConsistentUnderChurn) {
  Universe universe = SmallUniverse();
  LiveUniverse live(std::move(universe));

  ChurnTrace trace = GenerateChurnTrace(live.universe(), BusyFeed(31)).value();
  ASSERT_TRUE(live.ApplyAll(trace).ok());

  Universe cold = CloneUniverse(live.universe());
  EXPECT_EQ(live.universe().TotalCardinality(), cold.TotalCardinality());
  EXPECT_EQ(live.universe().FreshCardinality(), cold.FreshCardinality());
  EXPECT_EQ(live.universe().UnionCardinalityEstimate(),
            cold.UnionCardinalityEstimate());
  EXPECT_EQ(live.universe().FreshUnionCardinalityEstimate(),
            cold.FreshUnionCardinalityEstimate());
  EXPECT_EQ(live.universe().num_available(), cold.num_available());
}

TEST(LiveUniverseTest, ApplyAllIsDeterministicAcrossInstances) {
  Universe universe = SmallUniverse();
  ChurnTrace trace = GenerateChurnTrace(universe, BusyFeed(77)).value();
  LiveUniverse a(CloneUniverse(universe));
  LiveUniverse b(std::move(universe));
  ASSERT_TRUE(a.ApplyAll(trace).ok());
  ASSERT_TRUE(b.ApplyAll(trace).ok());
  EXPECT_EQ(a.graph().Fingerprint(), b.graph().Fingerprint());
  EXPECT_EQ(WriteCatalog(a.universe()), WriteCatalog(b.universe()));
}

TEST(ChurnFeedTest, MalformedConfigsAreRejectedNotClamped) {
  Universe universe = SmallUniverse(6);
  auto expect_invalid = [&universe](ChurnFeedConfig config) {
    Result<ChurnTrace> trace = GenerateChurnTrace(universe, config);
    ASSERT_FALSE(trace.ok());
    EXPECT_EQ(trace.status().code(), StatusCode::kInvalidArgument);
  };
  ChurnFeedConfig negative_weight = BusyFeed();
  negative_weight.attr_drop_weight = -0.5;
  expect_invalid(negative_weight);
  ChurnFeedConfig nan_weight = BusyFeed();
  nan_weight.stale_weight = std::numeric_limits<double>::quiet_NaN();
  expect_invalid(nan_weight);
  ChurnFeedConfig inf_rate = BusyFeed();
  inf_rate.events_per_sec = std::numeric_limits<double>::infinity();
  expect_invalid(inf_rate);
  ChurnFeedConfig bad_fraction = BusyFeed();
  bad_fraction.revive_fraction = 1.5;
  expect_invalid(bad_fraction);
  ChurnFeedConfig negative_min_alive = BusyFeed();
  negative_min_alive.min_alive = -1;
  expect_invalid(negative_min_alive);
  // min_alive above the universe's current alive count: the feed could
  // never honor the floor.
  ChurnFeedConfig unreachable_floor = BusyFeed();
  unreachable_floor.min_alive = 7;
  expect_invalid(unreachable_floor);
}

TEST(ChurnFeedTest, DriftEventsAppearAndApplyCleanly) {
  Universe universe = SmallUniverse();
  ChurnFeedConfig config = BusyFeed(17);
  config.events_per_sec = 6.0;  // ~60 events
  config.attr_rename_weight = 4.0;
  config.attr_add_weight = 2.0;
  config.attr_drop_weight = 2.0;
  ChurnTrace trace = GenerateChurnTrace(universe, config).value();
  int renames = 0, adds = 0, drops = 0;
  for (const ChurnEvent& event : trace.events) {
    if (event.kind == ChurnEventKind::kAttrRename) ++renames;
    if (event.kind == ChurnEventKind::kAttrAdd) ++adds;
    if (event.kind == ChurnEventKind::kAttrDrop) ++drops;
    if (IsSchemaDrift(event.kind)) {
      EXPECT_GE(event.attr_index, 0);
      if (event.kind != ChurnEventKind::kAttrDrop) {
        EXPECT_FALSE(event.attr_name.empty());
      }
    }
  }
  EXPECT_GT(renames, 0);
  EXPECT_GT(adds, 0);
  EXPECT_GT(drops, 0);
  LiveUniverse live(std::move(universe));
  ASSERT_TRUE(live.ApplyAll(trace).ok());
  EXPECT_EQ(live.graph().Fingerprint(), RebuildFingerprint(live.universe()));
}

TEST(LiveUniverseTest, AttrRenameUpdatesSchemaAndGraph) {
  Universe universe = SmallUniverse(6);
  LiveUniverse live(std::move(universe));
  const int width = live.universe().source(2).schema().num_attributes();
  ASSERT_GE(width, 1);

  ChurnEvent rename;
  rename.time_ms = 1.0;
  rename.kind = ChurnEventKind::kAttrRename;
  rename.source = 2;
  rename.attr_index = 0;
  rename.attr_name = "renamed_attr";
  ASSERT_TRUE(live.Apply(rename).ok());
  EXPECT_EQ(live.universe().source(2).schema().attribute_name(0),
            "renamed_attr");
  EXPECT_EQ(live.universe().source(2).schema().num_attributes(), width);
  EXPECT_EQ(live.graph().Fingerprint(), RebuildFingerprint(live.universe()));
}

TEST(LiveUniverseTest, AttrAddAppendsAndAttrDropShifts) {
  Universe universe = SmallUniverse(6);
  LiveUniverse live(std::move(universe));
  const int width = live.universe().source(1).schema().num_attributes();

  ChurnEvent add;
  add.time_ms = 1.0;
  add.kind = ChurnEventKind::kAttrAdd;
  add.source = 1;
  add.attr_index = width;  // must equal the schema width at apply time
  add.attr_name = "brand_new";
  ASSERT_TRUE(live.Apply(add).ok());
  EXPECT_EQ(live.universe().source(1).schema().num_attributes(), width + 1);
  EXPECT_EQ(live.universe().source(1).schema().attribute_name(width),
            "brand_new");
  EXPECT_EQ(live.graph().Fingerprint(), RebuildFingerprint(live.universe()));

  const std::string last =
      live.universe().source(1).schema().attribute_name(width);
  ChurnEvent drop;
  drop.time_ms = 2.0;
  drop.kind = ChurnEventKind::kAttrDrop;
  drop.source = 1;
  drop.attr_index = 0;
  ASSERT_TRUE(live.Apply(drop).ok());
  EXPECT_EQ(live.universe().source(1).schema().num_attributes(), width);
  // Later attributes shifted down by one.
  EXPECT_EQ(live.universe().source(1).schema().attribute_name(width - 1), last);
  EXPECT_EQ(live.graph().Fingerprint(), RebuildFingerprint(live.universe()));
}

TEST(LiveUniverseTest, MalformedDriftEventsFailCleanly) {
  Universe universe = SmallUniverse(6);
  LiveUniverse live(std::move(universe));
  const uint64_t graph_before = live.graph().Fingerprint();
  const int width = live.universe().source(0).schema().num_attributes();

  // Rename out of range / empty name.
  ChurnEvent rename;
  rename.time_ms = 1.0;
  rename.kind = ChurnEventKind::kAttrRename;
  rename.source = 0;
  rename.attr_index = width;
  rename.attr_name = "x";
  EXPECT_FALSE(live.Apply(rename).ok());
  rename.attr_index = 0;
  rename.attr_name = "";
  EXPECT_FALSE(live.Apply(rename).ok());

  // Add at the wrong index (the analogue of the dense-id rule).
  ChurnEvent add;
  add.time_ms = 1.0;
  add.kind = ChurnEventKind::kAttrAdd;
  add.source = 0;
  add.attr_index = 0;
  add.attr_name = "x";
  if (width != 0) {
    EXPECT_FALSE(live.Apply(add).ok());
  }

  // Drop out of range, and on an unavailable source.
  ChurnEvent drop;
  drop.time_ms = 1.0;
  drop.kind = ChurnEventKind::kAttrDrop;
  drop.source = 0;
  drop.attr_index = width;
  EXPECT_FALSE(live.Apply(drop).ok());

  ChurnEvent remove;
  remove.time_ms = 2.0;
  remove.kind = ChurnEventKind::kRemove;
  remove.source = 3;
  ASSERT_TRUE(live.Apply(remove).ok());
  ChurnEvent drift_dead;
  drift_dead.time_ms = 3.0;
  drift_dead.kind = ChurnEventKind::kAttrRename;
  drift_dead.source = 3;
  drift_dead.attr_index = 0;
  drift_dead.attr_name = "x";
  EXPECT_FALSE(live.Apply(drift_dead).ok());

  EXPECT_EQ(live.universe().source(0).schema().num_attributes(), width);
  // The one successful event was the remove.
  EXPECT_EQ(live.version(), 1);
  EXPECT_NE(live.graph().Fingerprint(), graph_before);
  EXPECT_EQ(live.graph().Fingerprint(), RebuildFingerprint(live.universe()));
}

// --- live events are validated before anything is mutated ---------------
//
// Each malformed input below must be rejected: once applied, it hangs
// RunContinuous, aborts a later solve, or makes Q(S) NaN. Apply returns
// InvalidArgument and leaves the universe, its version and its graph as
// they were.

void ExpectRejected(LiveUniverse& live, const ChurnEvent& event) {
  const std::string catalog = WriteCatalog(live.universe());
  const int64_t version = live.version();
  const uint64_t graph = live.graph().Fingerprint();
  Status status = live.Apply(event);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_EQ(WriteCatalog(live.universe()), catalog);
  EXPECT_EQ(live.version(), version);
  EXPECT_EQ(live.graph().Fingerprint(), graph);
}

// A universe whose signed sources all carry 64-bitmap PCSA signatures.
LiveUniverse SignedLiveUniverse() {
  Universe universe = SmallUniverse(6);
  bool signed_source = false;
  for (SourceId s = 0; s < universe.num_sources(); ++s) {
    signed_source |= universe.source(s).has_signature();
  }
  EXPECT_TRUE(signed_source);
  return LiveUniverse(std::move(universe));
}

ChurnEvent AddEvent(const LiveUniverse& live, double time_ms = 1.0) {
  ChurnEvent add;
  add.time_ms = time_ms;
  add.kind = ChurnEventKind::kAdd;
  add.source = live.universe().num_sources();
  add.added = std::make_unique<DataSource>("newcomer", SourceSchema({"title"}));
  add.added->set_cardinality(10);
  return add;
}

TEST(LiveEventValidationTest, NonFiniteTimeIsRejected) {
  LiveUniverse live = SignedLiveUniverse();
  for (double time_ms : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    ChurnEvent refresh;
    refresh.time_ms = time_ms;
    refresh.kind = ChurnEventKind::kStaleRefresh;
    refresh.source = 0;
    ExpectRejected(live, refresh);
  }
}

TEST(LiveEventValidationTest, AddWithExactSignatureAmongPcsaIsRejected) {
  LiveUniverse live = SignedLiveUniverse();
  ChurnEvent add = AddEvent(live);
  auto exact = std::make_unique<ExactSignature>();
  exact->Add(17);
  add.added->set_signature(std::move(exact));
  ExpectRejected(live, add);
}

TEST(LiveEventValidationTest, AddWithOtherPcsaWidthIsRejected) {
  LiveUniverse live = SignedLiveUniverse();
  ChurnEvent add = AddEvent(live);
  auto narrow = std::make_unique<PcsaSignature>(32);
  narrow->Add(17);
  add.added->set_signature(std::move(narrow));
  ExpectRejected(live, add);

  // The universe's own format is accepted.
  auto matching = std::make_unique<PcsaSignature>(64);
  matching->Add(17);
  add.added->set_signature(std::move(matching));
  EXPECT_TRUE(live.Apply(add).ok());
}

TEST(LiveEventValidationTest, AddWithNonFiniteCharacteristicIsRejected) {
  LiveUniverse live = SignedLiveUniverse();
  for (double mttf : {std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::quiet_NaN()}) {
    ChurnEvent add = AddEvent(live);
    add.added->SetCharacteristic("mttf", mttf);
    ExpectRejected(live, add);
  }
}

TEST(LiveEventValidationTest, AddWithNegativeCardinalityIsRejected) {
  LiveUniverse live = SignedLiveUniverse();
  ChurnEvent add = AddEvent(live);
  add.added->set_cardinality(-5);
  ExpectRejected(live, add);
}

TEST(LiveEventValidationTest,
     DriftWithNonFiniteCharacteristicFactorIsRejected) {
  LiveUniverse live = SignedLiveUniverse();
  for (double factor : {std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()}) {
    ChurnEvent drift;
    drift.time_ms = 1.0;
    drift.kind = ChurnEventKind::kDrift;
    drift.source = 0;
    drift.characteristic_factor = factor;
    ExpectRejected(live, drift);
  }
}

TEST(LiveEventValidationTest, DriftWithNonFiniteCardinalityFactorIsRejected) {
  LiveUniverse live = SignedLiveUniverse();
  for (double factor : {std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN(), 1e300}) {
    ChurnEvent drift;
    drift.time_ms = 1.0;
    drift.kind = ChurnEventKind::kDrift;
    drift.source = 0;
    drift.cardinality_factor = factor;
    ExpectRejected(live, drift);
  }
}

TEST(LiveEventValidationTest, NonFiniteStalenessIsRejected) {
  LiveUniverse live = SignedLiveUniverse();
  for (double staleness : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    ChurnEvent refresh;
    refresh.time_ms = 1.0;
    refresh.kind = ChurnEventKind::kStaleRefresh;
    refresh.source = 0;
    refresh.staleness = staleness;
    ExpectRejected(live, refresh);
  }
}

TEST(LiveUniverseTest, AttrDropNeverStripsLastAttribute) {
  Universe universe;
  DataSource one("solo", SourceSchema({"only"}));
  one.set_cardinality(10);
  universe.AddSource(std::move(one));
  DataSource two("pair", SourceSchema({"a", "b"}));
  two.set_cardinality(10);
  universe.AddSource(std::move(two));
  LiveUniverse live(std::move(universe));

  ChurnEvent drop;
  drop.time_ms = 1.0;
  drop.kind = ChurnEventKind::kAttrDrop;
  drop.source = 0;
  drop.attr_index = 0;
  EXPECT_FALSE(live.Apply(drop).ok());
  EXPECT_EQ(live.universe().source(0).schema().num_attributes(), 1);

  drop.source = 1;
  ASSERT_TRUE(live.Apply(drop).ok());
  EXPECT_EQ(live.universe().source(1).schema().num_attributes(), 1);
}

TEST(LiveUniverseTest, CompoundUniverseBuildsOverChurnedUniverse) {
  Universe universe = SmallUniverse();
  LiveUniverse live(std::move(universe));
  ChurnTrace trace = GenerateChurnTrace(live.universe(), BusyFeed(13)).value();
  ASSERT_TRUE(live.ApplyAll(trace).ok());

  // Fuse the first two attributes of the first available source with a
  // schema of >= 2 attributes.
  SourceId target = -1;
  for (SourceId s = 0; s < live.universe().num_sources(); ++s) {
    const DataSource& source = live.universe().source(s);
    if (source.available() && source.schema().num_attributes() >= 2) {
      target = s;
      break;
    }
  }
  ASSERT_GE(target, 0);
  CompoundGroup group;
  group.source = target;
  group.attr_indices = {0, 1};
  Result<std::pair<Universe, CompoundMapping>> compound =
      BuildCompoundUniverse(live.universe(), {group});
  ASSERT_TRUE(compound.ok()) << compound.status();
  EXPECT_EQ(compound->first.num_sources(), live.universe().num_sources());
  EXPECT_EQ(compound->first.source(target).schema().num_attributes(),
            live.universe().source(target).schema().num_attributes() - 1);
}

}  // namespace
}  // namespace ube
