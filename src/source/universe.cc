#include "source/universe.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "util/check.h"

namespace ube {

namespace {

/// Estimated |∪| over the cooperating sources (only the fresh ones when
/// `fresh_only`): the first signature cloned, the rest merged in id order.
double UnionEstimate(const std::vector<DataSource>& sources, bool fresh_only) {
  std::unique_ptr<DistinctSignature> union_sig;
  for (const DataSource& s : sources) {
    if (!s.has_signature() || (fresh_only && !s.stats_fresh())) continue;
    if (union_sig == nullptr) {
      union_sig = s.signature().Clone();
    } else {
      union_sig->MergeFrom(s.signature());
    }
  }
  return union_sig == nullptr ? 0.0 : union_sig->Estimate();
}

}  // namespace

std::string_view StatsStateName(StatsState state) {
  switch (state) {
    case StatsState::kFresh:
      return "fresh";
    case StatsState::kStale:
      return "stale";
    case StatsState::kPartial:
      return "partial";
    case StatsState::kMissing:
      return "missing";
  }
  return "unknown";
}

const DistinctSignature& DataSource::signature() const {
  UBE_CHECK(signature_ != nullptr,
            "signature() called on a non-cooperating source");
  return *signature_;
}

void DataSource::set_stats_state(StatsState state, double staleness) {
  stats_state_ = state;
  staleness_ = state == StatsState::kStale
                   ? std::clamp(staleness, 0.0, 1.0)
                   : 0.0;
}

void DataSource::SetCharacteristic(std::string_view name, double value) {
  characteristics_.insert_or_assign(std::string(name), value);
}

std::optional<double> DataSource::GetCharacteristic(
    std::string_view name) const {
  auto it = characteristics_.find(name);
  if (it == characteristics_.end()) return std::nullopt;
  return it->second;
}

SourceId Universe::AddSource(DataSource source) {
  sources_.push_back(std::move(source));
  return static_cast<SourceId>(sources_.size() - 1);
}

const DataSource& Universe::source(SourceId id) const {
  UBE_CHECK(id >= 0 && id < num_sources(), "SourceId out of range");
  return sources_[static_cast<size_t>(id)];
}

DataSource* Universe::mutable_source(SourceId id) {
  UBE_CHECK(id >= 0 && id < num_sources(), "SourceId out of range");
  return &sources_[static_cast<size_t>(id)];
}

Status Universe::ValidateId(SourceId id) const {
  if (id < 0 || id >= num_sources()) {
    return Status::InvalidArgument("SourceId " + std::to_string(id) +
                                   " out of range [0, " +
                                   std::to_string(num_sources()) + ")");
  }
  return Status::Ok();
}

Result<const DataSource*> Universe::TryGetSource(SourceId id) const {
  UBE_RETURN_IF_ERROR(ValidateId(id));
  return &sources_[static_cast<size_t>(id)];
}

Result<SourceId> Universe::FindByName(std::string_view name) const {
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i].name() == name) return static_cast<SourceId>(i);
  }
  return Status::NotFound("no source named '" + std::string(name) + "'");
}

int64_t Universe::TotalCardinality() const {
  int64_t total = 0;
  for (const DataSource& s : sources_) total += s.cardinality();
  return total;
}

int64_t Universe::FreshCardinality() const {
  int64_t total = 0;
  for (const DataSource& s : sources_) {
    if (s.stats_fresh()) total += s.cardinality();
  }
  return total;
}

double Universe::UnionCardinalityEstimate() const {
  return UnionEstimate(sources_, /*fresh_only=*/false);
}

double Universe::FreshUnionCardinalityEstimate() const {
  return UnionEstimate(sources_, /*fresh_only=*/true);
}

int Universe::num_available() const {
  int count = 0;
  for (const DataSource& s : sources_) count += s.available() ? 1 : 0;
  return count;
}

std::vector<SourceId> Universe::AllIds() const {
  std::vector<SourceId> ids(sources_.size());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

std::vector<SourceId> Universe::UnavailableIds() const {
  std::vector<SourceId> ids;
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (!sources_[i].available()) ids.push_back(static_cast<SourceId>(i));
  }
  return ids;
}

}  // namespace ube
