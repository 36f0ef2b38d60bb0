#ifndef UBE_CATALOG_CHANGE_FEED_H_
#define UBE_CATALOG_CHANGE_FEED_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "source/data_source.h"
#include "source/universe.h"
#include "util/result.h"
#include "util/rng.h"

namespace ube {

/// What happened to the catalog at one instant of simulated time.
enum class ChurnEventKind {
  kAdd,           ///< a source appeared (brand new, or a dead one revived)
  kRemove,        ///< a source died (becomes an unavailable shell)
  kStaleRefresh,  ///< a statistics re-probe completed (fresh or aged)
  kDrift,         ///< data characteristics drifted (cardinality, char.*)
  kAttrRename,    ///< schema drift: one attribute was renamed in place
  kAttrAdd,       ///< schema drift: a new attribute appeared (appended)
  kAttrDrop,      ///< schema drift: one attribute disappeared
};

inline constexpr int kNumChurnEventKinds = 7;

std::string_view ChurnEventKindName(ChurnEventKind kind);

/// True for the three schema-drift kinds (attribute rename/add/drop).
bool IsSchemaDrift(ChurnEventKind kind);

/// One catalog change on the simulated-ms clock. Events carry their full
/// payload, so applying a trace needs no randomness: the generator draws
/// everything up front and replay is bit-identical from the config alone.
/// Move-only (a brand-new source owns its description).
struct ChurnEvent {
  double time_ms = 0.0;
  ChurnEventKind kind = ChurnEventKind::kAdd;
  /// Target id. For kRemove / kStaleRefresh / kDrift / the attribute kinds
  /// and a revive-kAdd this names an existing source; for a brand-new kAdd
  /// it is the id the source will receive (always one past the current
  /// maximum, so ids stay dense and a patched similarity graph matches a
  /// rebuild's layout).
  SourceId source = -1;
  /// Description of a brand-new source (kAdd with revive == false).
  std::unique_ptr<DataSource> added;
  /// kAdd: true = restore the tombstoned description of `source` instead
  /// of adding a new one.
  bool revive = false;
  /// kStaleRefresh: 0 = the re-probe succeeded (statistics fresh again);
  /// > 0 = it failed and the last-known-good snapshot aged to this value.
  double staleness = 0.0;
  /// kDrift: the source's cardinality is scaled by this factor.
  double cardinality_factor = 1.0;
  /// kDrift: every named characteristic is scaled by this factor.
  double characteristic_factor = 1.0;
  /// kAttrRename / kAttrDrop: index of the affected attribute. For
  /// kAttrAdd, the index the new attribute will occupy — must equal the
  /// schema's width at apply time (the attribute-level analogue of the
  /// dense-id rule for kAdd).
  int32_t attr_index = -1;
  /// kAttrRename: the attribute's new name. kAttrAdd: the new attribute's
  /// name. Empty otherwise.
  std::string attr_name;

  ChurnEvent() = default;
  ChurnEvent(ChurnEvent&&) = default;
  ChurnEvent& operator=(ChurnEvent&&) = default;
  ChurnEvent(const ChurnEvent&) = delete;
  ChurnEvent& operator=(const ChurnEvent&) = delete;
};

/// Knobs of the deterministic feed. The replay contract mirrors PR-4's
/// FaultPlan: the same (seed, events_per_sec, horizon_ms) over the same
/// universe always yields the same trace, checkable via
/// ChurnTraceFingerprint.
struct ChurnFeedConfig {
  uint64_t seed = 7;
  /// Mean event rate; inter-arrival gaps are exponential with mean
  /// 1000 / events_per_sec milliseconds. <= 0 yields an empty trace.
  double events_per_sec = 1.0;
  /// Events are scheduled in (0, horizon_ms].
  double horizon_ms = 10'000.0;
  /// Relative weights of the event kinds. Kinds with no valid target at
  /// draw time (e.g. kRemove at the alive floor, kAttrDrop when no alive
  /// source has two attributes) drop out of the draw. Negative or
  /// nonfinite weights are rejected by GenerateChurnTrace.
  double add_weight = 1.0;
  double remove_weight = 1.0;
  double stale_weight = 2.0;
  double drift_weight = 2.0;
  /// Schema-drift weights: rename an attribute in place, append a new
  /// attribute, drop an existing one. Zero all three for the pre-drift
  /// source-level-only feed.
  double attr_rename_weight = 1.0;
  double attr_add_weight = 0.5;
  double attr_drop_weight = 0.5;
  /// Fraction of kAdd events that revive the oldest dead source when one
  /// exists; the rest synthesize brand-new sources ("feed-<n>").
  double revive_fraction = 0.5;
  /// Probability that a kStaleRefresh re-probe succeeds (staleness 0).
  double refresh_success = 0.5;
  /// kRemove never shrinks the alive set below this.
  int min_alive = 2;
};

/// A complete, replayable schedule of catalog churn: events in
/// nondecreasing time order, all payloads materialized.
struct ChurnTrace {
  ChurnFeedConfig config;
  std::vector<ChurnEvent> events;
};

/// The evolving-catalog state machine behind GenerateChurnTrace: alive/dead
/// sets, per-source schemas (drift-adjusted), tombstone ordering and the
/// synthesized-source counter stay consistent, so every event it emits is
/// valid to LiveUniverse::Apply in trace order.
///
/// Deterministic: one Rng seeded from the config.
class ChurnFeedDriver {
 public:
  /// Validates `config` against the universe's current state (see
  /// GenerateChurnTrace for the rejection rules) and snapshots the evolving
  /// state from it. The universe is not retained.
  static Result<ChurnFeedDriver> Make(const Universe& universe,
                                      const ChurnFeedConfig& config);

  /// Absolute simulated time of the next event; consumes the exponential
  /// gap draw. Times grow past the config's horizon_ms, where the caller
  /// stops; +infinity when the rate or the horizon is <= 0.
  double NextEventTime();

  /// Draws one churn event at time `t`, updating the evolving state.
  /// nullopt when every kind's weight is gated out at this instant.
  std::optional<ChurnEvent> DrawBase(double t);

 private:
  ChurnFeedDriver(const Universe& universe, const ChurnFeedConfig& config);

  std::unique_ptr<DataSource> SynthesizeSource(int ordinal);
  std::string MutateName(const std::string& base);

  ChurnFeedConfig config_;
  Rng rng_;
  double mean_gap_ms_ = 0.0;
  double t_ = 0.0;
  std::vector<SourceId> alive_;
  std::vector<SourceId> dead_;  // oldest first; base revives pop the front
  /// Evolving per-source schemas (drift-adjusted; frozen while dead, which
  /// mirrors the applier's tombstone-restore semantics).
  std::vector<std::vector<std::string>> schemas_;
  /// Immutable clone templates from the initial universe (schema +
  /// cardinality + characteristics of every initially-alive source).
  struct Template {
    std::vector<std::string> attributes;
    int64_t cardinality = 0;
    std::vector<std::pair<std::string, double>> characteristics;
  };
  std::vector<Template> templates_;
  /// Flat pool of initial attribute names (kAttrAdd draws from it).
  std::vector<std::string> attribute_pool_;
  SourceId next_new_ = 0;
  int synthesized_ = 0;
};

/// Generates the full schedule for `config` against the current state of
/// `universe` (alive/dead sets and new-source templates are derived from
/// it; the universe itself is not modified). Deterministic: a pure function
/// of the universe's content and the config.
///
/// Rejects malformed configs with InvalidArgument instead of clamping:
/// negative or nonfinite kind weights, nonfinite events_per_sec or
/// horizon_ms, revive_fraction / refresh_success outside [0, 1], negative
/// min_alive, and min_alive above the universe's current alive count.
Result<ChurnTrace> GenerateChurnTrace(const Universe& universe,
                                      const ChurnFeedConfig& config);

/// Order-sensitive structural hash over the whole trace — times, kinds,
/// targets and full payloads (drift attribute indices and names included).
/// The bit-identity oracle for replay tests.
uint64_t ChurnTraceFingerprint(const ChurnTrace& trace);

}  // namespace ube

#endif  // UBE_CATALOG_CHANGE_FEED_H_
