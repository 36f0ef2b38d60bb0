#ifndef UBE_SOURCE_UNIVERSE_H_
#define UBE_SOURCE_UNIVERSE_H_

#include <string>
#include <string_view>
#include <vector>

#include "source/data_source.h"
#include "util/result.h"

namespace ube {

/// The universe U = {s_1, ..., s_N}: all data sources µBE may choose from
/// (Section 2.1; "hundreds to a few thousands of sources").
///
/// Owns the sources; SourceId is the index into this container. A plain
/// container: it keeps no derived state, so every aggregate over U (the
/// Card and Coverage denominators below) is computed from the sources on
/// each call. An evaluator computes the ones it needs once, when it is
/// built.
class Universe {
 public:
  Universe() = default;

  Universe(Universe&&) = default;
  Universe& operator=(Universe&&) = default;
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;

  /// Adds a source and returns its id. Names need not be unique, but
  /// FindByName returns the first match.
  SourceId AddSource(DataSource source);

  int num_sources() const { return static_cast<int>(sources_.size()); }
  bool empty() const { return sources_.empty(); }

  /// Precondition-checked access (aborts on an out-of-range id); use only
  /// with ids already validated — externally supplied ids go through
  /// ValidateId / TryGetSource instead.
  const DataSource& source(SourceId id) const;
  DataSource* mutable_source(SourceId id);

  /// OK iff `id` names a source of this universe. The graceful counterpart
  /// of the UBE_CHECK in source() for externally-reachable paths.
  Status ValidateId(SourceId id) const;

  /// The source behind `id`, or InvalidArgument for out-of-range ids.
  Result<const DataSource*> TryGetSource(SourceId id) const;

  /// First source with the given name, or NotFound.
  Result<SourceId> FindByName(std::string_view name) const;

  /// Σ_{t∈U} |t| — denominator of the Card QEF.
  int64_t TotalCardinality() const;

  /// Σ |t| over available sources with fresh statistics — the Card
  /// denominator under the exclude-and-renormalize degradation policy.
  int64_t FreshCardinality() const;

  /// Estimated |∪U| over every cooperating source — the Coverage
  /// denominator (0 when no source cooperates).
  double UnionCardinalityEstimate() const;

  /// Same, restricted to available sources with fresh statistics — the
  /// Coverage denominator under exclude-and-renormalize.
  double FreshUnionCardinalityEstimate() const;

  /// Sources acquisition did not drop (all of them for a universe that
  /// never went through the prober).
  int num_available() const;

  /// All ids, 0..N-1 (convenience for "validate on all of U" call sites).
  std::vector<SourceId> AllIds() const;

  /// Ids of sources acquisition dropped (available() == false), ascending.
  std::vector<SourceId> UnavailableIds() const;

 private:
  std::vector<DataSource> sources_;
};

}  // namespace ube

#endif  // UBE_SOURCE_UNIVERSE_H_
