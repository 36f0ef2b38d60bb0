#ifndef UBE_SOURCE_LIVE_UNIVERSE_H_
#define UBE_SOURCE_LIVE_UNIVERSE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/change_feed.h"
#include "matching/cluster_matcher.h"
#include "matching/similarity_graph.h"
#include "source/prober.h"
#include "source/universe.h"
#include "text/similarity.h"
#include "util/result.h"

namespace ube {

/// A universe that survives catalog churn: applies ChurnEvents to a
/// versioned Universe with stable SourceIds and incrementally maintains the
/// attribute-similarity graph alongside it.
///
/// Invariants, all checked by tests:
///  - SourceIds never move. A removed source becomes the prober's
///    unavailable-shell (name kept, empty schema, no statistics,
///    available() == false), so every downstream index — acquisition
///    reports, constraints, incumbents — stays valid.
///  - After every Apply, graph() is byte-identical (Fingerprint()) to a
///    SimilarityGraph built from scratch over universe(): source removal /
///    addition only recomputes edges incident to the changed source, and
///    schema drift (attribute rename/add/drop) only recomputes edges
///    incident to the changed attribute.
///  - Fresh*/union aggregates and the compound-universe builder see the
///    mutated universe consistently (Universe's lazy caches are dirtied by
///    every mutation path used here).
///  - A re-added source (revive or brand-new id reuse) starts with clean
///    acquisition health: health().Reset(id) on every add, so it never
///    inherits the previous occupant's breaker state or backoff budget.
///
/// The matcher holds references to the owned universe and graph (stable
/// addresses behind unique_ptrs), so LiveUniverse is movable and Engine
/// stays movable holding one.
class LiveUniverse {
 public:
  struct Options {
    /// Similarity-graph floor (must match any θ used later, see Engine).
    double similarity_floor = 0.25;
    /// Attribute similarity measure (null = the paper's 3-gram Jaccard).
    std::unique_ptr<AttributeSimilarity> similarity;
    /// Breaker policy for the per-source health registry.
    CircuitBreaker::Options breaker;
    /// Simulated backoff milliseconds charged to a source per failed
    /// stale-refresh (budget accounting in the health registry).
    double refresh_retry_cost_ms = 50.0;
    /// Hard capacity in source ids (0 = unbounded). Add-events that would
    /// grow the universe past this many sources fail with
    /// FailedPrecondition instead of being applied. Set it when downstream
    /// structures size fixed-width state at universe build (SearchState's
    /// SourceBitset, the evaluator's per-source table) so an
    /// oversized id surfaces as a Status, never as out-of-range indexing.
    int max_sources = 0;
  };

  LiveUniverse(Universe universe, Options options);
  explicit LiveUniverse(Universe universe);

  LiveUniverse(LiveUniverse&&) = default;
  LiveUniverse& operator=(LiveUniverse&&) = default;
  LiveUniverse(const LiveUniverse&) = delete;
  LiveUniverse& operator=(const LiveUniverse&) = delete;

  const Universe& universe() const { return *universe_; }
  const SimilarityGraph& graph() const { return *graph_; }
  const ClusterMatcher& matcher() const { return *matcher_; }
  SourceHealthRegistry& health() { return health_; }
  const SourceHealthRegistry& health() const { return health_; }

  /// OK unless the universe given to the constructor mixes signature
  /// formats (signed sources of more than one SignatureFormat, a universe
  /// no union estimate can merge); then an InvalidArgument naming the first
  /// offending source, which every Engine call that evaluates returns.
  const Status& status() const { return status_; }

  /// Bumped by every successfully applied event.
  int64_t version() const { return version_; }
  /// Simulated time of the last applied event.
  double last_event_ms() const { return last_event_ms_; }

  /// Applies one event. Events must arrive at finite, nondecreasing times.
  /// Every event is validated before anything is mutated, and an error
  /// (wrong target state, out-of-order or non-finite time, malformed
  /// payload) leaves the universe unchanged. A malformed payload is a
  /// non-finite or non-positive drift factor, a drift that overflows a
  /// statistic, a non-finite staleness, or a new source that breaks the
  /// catalog's rules (negative cardinality, non-finite characteristic or
  /// staleness, a signature whose SignatureFormat differs from the
  /// universe's signed sources).
  Status Apply(const ChurnEvent& event);

  /// Applies every event of `trace` in order, stopping at the first error.
  Status ApplyAll(const ChurnTrace& trace);

 private:
  Status ApplyAdd(const ChurnEvent& event);
  Status ApplyRemove(const ChurnEvent& event);
  Status ApplyStaleRefresh(const ChurnEvent& event);
  Status ApplyDrift(const ChurnEvent& event);
  Status ApplyAttrRename(const ChurnEvent& event);
  Status ApplyAttrAdd(const ChurnEvent& event);
  Status ApplyAttrDrop(const ChurnEvent& event);

  std::unique_ptr<Universe> universe_;
  std::unique_ptr<SimilarityGraph> graph_;
  std::unique_ptr<ClusterMatcher> matcher_;
  SourceHealthRegistry health_;
  /// Full descriptions of removed sources, stashed for revival.
  std::map<SourceId, DataSource> tombstones_;
  double refresh_retry_cost_ms_;
  int max_sources_ = 0;
  /// SignatureFormat shared by every signed source; empty until one exists.
  std::string signature_format_;
  Status status_;
  int64_t version_ = 0;
  double last_event_ms_ = 0.0;
};

}  // namespace ube

#endif  // UBE_SOURCE_LIVE_UNIVERSE_H_
