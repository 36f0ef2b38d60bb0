#include "source/live_universe.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sketch/distinct_estimator.h"
#include "source/flaky.h"
#include "util/check.h"

namespace ube {

namespace {

// Simulated backoff milliseconds charged to a source per failed
// stale-refresh (budget accounting in the health registry).
constexpr double kRefreshRetryCostMs = 50.0;

}  // namespace

LiveUniverse::LiveUniverse(Universe universe)
    : LiveUniverse(std::move(universe), Options{}) {}

LiveUniverse::LiveUniverse(Universe universe, Options options)
    : universe_(std::make_unique<Universe>(std::move(universe))),
      health_(options.breaker),
      max_sources_(options.max_sources) {
  // A floor outside [0, 1] is reported, not aborted on; the graph is then
  // built at floor 1, the sparsest graph (only pairs that score 1).
  // Negated, so that a NaN fails.
  double floor = options.similarity_floor;
  if (!(floor >= 0.0 && floor <= 1.0)) {
    status_ = Status::InvalidArgument("similarity floor must be in [0, 1]");
    floor = 1.0;
  }
  // Every source must pass the rules Apply enforces on new sources; the
  // first that does not is reported.
  for (SourceId s = 0; s < universe_->num_sources() && status_.ok(); ++s) {
    status_ = AdmitSource(universe_->source(s), "source");
  }
  std::unique_ptr<AttributeSimilarity> measure =
      options.similarity != nullptr ? std::move(options.similarity)
                                    : MakeDefaultSimilarity();
  graph_ = std::make_unique<SimilarityGraph>(*universe_, std::move(measure),
                                             floor);
  matcher_ = std::make_unique<ClusterMatcher>(*universe_, *graph_);
}

Status LiveUniverse::Apply(const ChurnEvent& event) {
  if (!std::isfinite(event.time_ms)) {
    return Status::InvalidArgument("churn event time must be finite");
  }
  if (event.time_ms + 1e-9 < last_event_ms_) {
    return Status::InvalidArgument(
        "churn event at " + std::to_string(event.time_ms) +
        "ms arrived after " + std::to_string(last_event_ms_) +
        "ms (events must be nondecreasing in time)");
  }
  Status status;
  switch (event.kind) {
    case ChurnEventKind::kAdd:
      status = ApplyAdd(event);
      break;
    case ChurnEventKind::kRemove:
      status = ApplyRemove(event);
      break;
    case ChurnEventKind::kStaleRefresh:
      status = ApplyStaleRefresh(event);
      break;
    case ChurnEventKind::kDrift:
      status = ApplyDrift(event);
      break;
    case ChurnEventKind::kAttrRename:
      status = ApplyAttrRename(event);
      break;
    case ChurnEventKind::kAttrAdd:
      status = ApplyAttrAdd(event);
      break;
    case ChurnEventKind::kAttrDrop:
      status = ApplyAttrDrop(event);
      break;
  }
  if (!status.ok()) return status;
  last_event_ms_ = event.time_ms;
  ++version_;
  return Status::Ok();
}

Status LiveUniverse::ApplyAll(const ChurnTrace& trace) {
  for (const ChurnEvent& event : trace.events) {
    UBE_RETURN_IF_ERROR(Apply(event));
  }
  return Status::Ok();
}

Status LiveUniverse::ApplyAdd(const ChurnEvent& event) {
  if (event.revive) {
    auto it = tombstones_.find(event.source);
    if (it == tombstones_.end()) {
      return Status::InvalidArgument(
          "revive of source " + std::to_string(event.source) +
          " which has no tombstone");
    }
    *universe_->mutable_source(event.source) = std::move(it->second);
    tombstones_.erase(it);
    graph_->PatchSourceAdded(*universe_, event.source);
    // A revived source is a fresh occupant of its id slot: it must not
    // inherit the breaker state or backoff budget its previous life
    // accumulated (tests/test_acquisition.cc pins this).
    health_.Reset(event.source);
    return Status::Ok();
  }
  if (event.added == nullptr) {
    return Status::InvalidArgument("add event carries no source description");
  }
  if (event.source != universe_->num_sources()) {
    return Status::InvalidArgument(
        "new source must take the next id " +
        std::to_string(universe_->num_sources()) + ", got " +
        std::to_string(event.source));
  }
  if (max_sources_ > 0 && universe_->num_sources() >= max_sources_) {
    // Reject before mutating anything: fixed-width downstream state
    // (SourceBitset, delta tables) is sized for max_sources ids, and an id
    // past that must never exist.
    return Status::FailedPrecondition(
        "add of source " + std::to_string(event.source) +
        " exceeds the declared capacity of " + std::to_string(max_sources_) +
        " sources");
  }
  UBE_RETURN_IF_ERROR(AdmitSource(*event.added, "new source"));
  universe_->AddSource(CloneSource(*event.added));
  graph_->PatchSourceAdded(*universe_, event.source);
  health_.Reset(event.source);
  return Status::Ok();
}

Status LiveUniverse::AdmitSource(const DataSource& source,
                                 std::string_view role) {
  // The catalog's rules (ParseCatalog): a solve would otherwise abort on a
  // signature it cannot merge, or score NaN.
  auto reject = [&](const std::string& what) {
    return Status::InvalidArgument(std::string(role) + " '" + source.name() +
                                   "' " + what);
  };
  if (source.cardinality() < 0) return reject("has a negative cardinality");
  for (const auto& [name, value] : source.characteristics()) {
    if (!std::isfinite(value)) {
      return reject("has a non-finite characteristic '" + name + "'");
    }
  }
  if (!std::isfinite(source.staleness())) {
    return reject("has a non-finite staleness");
  }
  if (source.has_signature()) {
    std::string format = SignatureFormat(source.signature());
    if (!signature_format_.empty() && format != signature_format_) {
      return reject("has a signature of format " + format +
                    " but the universe's signatures have " +
                    signature_format_);
    }
    signature_format_ = std::move(format);
  }
  return Status::Ok();
}

Status LiveUniverse::ApplyRemove(const ChurnEvent& event) {
  UBE_RETURN_IF_ERROR(universe_->ValidateId(event.source));
  DataSource* victim = universe_->mutable_source(event.source);
  if (!victim->available()) {
    return Status::InvalidArgument("remove of source " +
                                   std::to_string(event.source) +
                                   " which is already unavailable");
  }
  // Stash the full description for a later revive, then collapse the slot
  // to the prober's unavailable-shell convention: name kept, empty schema,
  // no statistics, unavailable — SourceIds stay stable.
  tombstones_.insert_or_assign(event.source, CloneSource(*victim));
  DataSource shell(victim->name(), SourceSchema());
  shell.set_available(false);
  shell.set_stats_state(StatsState::kMissing);
  *victim = std::move(shell);
  graph_->PatchSourceRemoved(event.source);
  health_.RecordFailure(event.source, event.time_ms);
  return Status::Ok();
}

Status LiveUniverse::ApplyStaleRefresh(const ChurnEvent& event) {
  UBE_RETURN_IF_ERROR(universe_->ValidateId(event.source));
  DataSource* source = universe_->mutable_source(event.source);
  if (!source->available()) {
    return Status::InvalidArgument("stale-refresh of unavailable source " +
                                   std::to_string(event.source));
  }
  if (!std::isfinite(event.staleness)) {
    return Status::InvalidArgument("stale-refresh staleness must be finite");
  }
  if (event.staleness <= 0.0) {
    source->set_stats_state(StatsState::kFresh);
    health_.RecordSuccess(event.source);
  } else {
    source->set_stats_state(StatsState::kStale, event.staleness);
    health_.RecordFailure(event.source, event.time_ms);
    health_.AddBackoffSpent(event.source, kRefreshRetryCostMs);
  }
  return Status::Ok();
}

Status LiveUniverse::ApplyDrift(const ChurnEvent& event) {
  UBE_RETURN_IF_ERROR(universe_->ValidateId(event.source));
  DataSource* source = universe_->mutable_source(event.source);
  if (!source->available()) {
    return Status::InvalidArgument("drift of unavailable source " +
                                   std::to_string(event.source));
  }
  if (!std::isfinite(event.cardinality_factor) ||
      !std::isfinite(event.characteristic_factor) ||
      event.cardinality_factor <= 0.0 || event.characteristic_factor <= 0.0) {
    return Status::InvalidArgument("drift factors must be finite and positive");
  }
  const double cardinality =
      static_cast<double>(source->cardinality()) * event.cardinality_factor;
  // 2^63: the first double past int64, where the conversion is undefined.
  if (!(cardinality < 0x1p63)) {
    return Status::InvalidArgument("drift overflows the source's cardinality");
  }
  std::vector<std::pair<std::string, double>> scaled(
      source->characteristics().begin(), source->characteristics().end());
  for (auto& [name, value] : scaled) {
    value *= event.characteristic_factor;
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("drift overflows characteristic '" +
                                     name + "'");
    }
  }
  source->set_cardinality(
      std::max<int64_t>(1, static_cast<int64_t>(cardinality)));
  for (const auto& [name, value] : scaled) {
    source->SetCharacteristic(name, value);
  }
  return Status::Ok();
}

Status LiveUniverse::ApplyAttrRename(const ChurnEvent& event) {
  UBE_RETURN_IF_ERROR(universe_->ValidateId(event.source));
  DataSource* source = universe_->mutable_source(event.source);
  if (!source->available()) {
    return Status::InvalidArgument("attr-rename of unavailable source " +
                                   std::to_string(event.source));
  }
  if (event.attr_index < 0 ||
      event.attr_index >= source->schema().num_attributes()) {
    return Status::InvalidArgument(
        "attr-rename of source " + std::to_string(event.source) +
        ": attribute " + std::to_string(event.attr_index) +
        " out of range (width " +
        std::to_string(source->schema().num_attributes()) + ")");
  }
  if (event.attr_name.empty()) {
    return Status::InvalidArgument("attr-rename carries an empty name");
  }
  source->mutable_schema()->RenameAttribute(event.attr_index, event.attr_name);
  graph_->PatchAttributeRenamed(*universe_, event.source, event.attr_index);
  return Status::Ok();
}

Status LiveUniverse::ApplyAttrAdd(const ChurnEvent& event) {
  UBE_RETURN_IF_ERROR(universe_->ValidateId(event.source));
  DataSource* source = universe_->mutable_source(event.source);
  if (!source->available()) {
    return Status::InvalidArgument("attr-add of unavailable source " +
                                   std::to_string(event.source));
  }
  // The attribute-level analogue of the dense-id rule for kAdd: new
  // attributes always append, so the patched graph's layout matches a
  // rebuild's.
  if (event.attr_index != source->schema().num_attributes()) {
    return Status::InvalidArgument(
        "attr-add of source " + std::to_string(event.source) +
        " must take the next index " +
        std::to_string(source->schema().num_attributes()) + ", got " +
        std::to_string(event.attr_index));
  }
  if (event.attr_name.empty()) {
    return Status::InvalidArgument("attr-add carries an empty name");
  }
  source->mutable_schema()->AddAttribute(event.attr_name);
  graph_->PatchAttributeAdded(*universe_, event.source);
  return Status::Ok();
}

Status LiveUniverse::ApplyAttrDrop(const ChurnEvent& event) {
  UBE_RETURN_IF_ERROR(universe_->ValidateId(event.source));
  DataSource* source = universe_->mutable_source(event.source);
  if (!source->available()) {
    return Status::InvalidArgument("attr-drop of unavailable source " +
                                   std::to_string(event.source));
  }
  if (event.attr_index < 0 ||
      event.attr_index >= source->schema().num_attributes()) {
    return Status::InvalidArgument(
        "attr-drop of source " + std::to_string(event.source) + ": attribute " +
        std::to_string(event.attr_index) + " out of range (width " +
        std::to_string(source->schema().num_attributes()) + ")");
  }
  if (source->schema().num_attributes() < 2) {
    // Drift never strips a live source bare — that is what kRemove is for
    // (and an alive zero-width source would be indistinguishable from a
    // removed shell to every downstream consumer).
    return Status::InvalidArgument(
        "attr-drop would leave source " + std::to_string(event.source) +
        " with no attributes; remove the source instead");
  }
  source->mutable_schema()->RemoveAttribute(event.attr_index);
  graph_->PatchAttributeDropped(event.source, event.attr_index);
  return Status::Ok();
}

}  // namespace ube
