#include "qef/quality_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ube {

QualityModel QualityModel::MakeDefault(std::string mttf_characteristic) {
  QualityModel model;
  model.AddQef(std::make_unique<MatchingQualityQef>(), 0.25);
  model.AddQef(std::make_unique<CardinalityQef>(), 0.25);
  model.AddQef(std::make_unique<CoverageQef>(), 0.20);
  model.AddQef(std::make_unique<RedundancyQef>(), 0.15);
  model.AddQef(std::make_unique<CharacteristicQef>(
                   std::move(mttf_characteristic), Aggregation::kWeightedSum),
               0.15);
  return model;
}

void QualityModel::AddQef(std::unique_ptr<Qef> qef, double weight) {
  UBE_CHECK(qef != nullptr, "AddQef requires a QEF");
  qefs_.push_back(std::move(qef));
  weights_.push_back(weight);
}

const Qef& QualityModel::qef(int index) const {
  UBE_CHECK(index >= 0 && index < num_qefs(), "QEF index out of range");
  return *qefs_[static_cast<size_t>(index)];
}

double QualityModel::weight(int index) const {
  UBE_CHECK(index >= 0 && index < num_qefs(), "QEF index out of range");
  return weights_[static_cast<size_t>(index)];
}

int QualityModel::FindQef(std::string_view name) const {
  for (size_t i = 0; i < qefs_.size(); ++i) {
    if (qefs_[i]->name() == name) return static_cast<int>(i);
  }
  return -1;
}

Status QualityModel::RescaleWeight(std::vector<double>* weights, int index,
                                   double weight) {
  UBE_CHECK(weights != nullptr, "RescaleWeight requires a weight vector");
  std::vector<double>& w = *weights;
  if (index < 0 || index >= static_cast<int>(w.size())) {
    return Status::InvalidArgument("weight index out of range");
  }
  if (!std::isfinite(weight) || weight < 0.0 || weight > 1.0) {
    return Status::InvalidArgument("weight must be a finite number in [0, 1]");
  }
  double others = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    if (static_cast<int>(i) != index) others += w[i];
  }
  double remaining = 1.0 - weight;
  if (others <= 0.0) {
    // All other weights are zero: distribute `remaining` uniformly.
    double share =
        w.size() > 1 ? remaining / static_cast<double>(w.size() - 1) : 0.0;
    for (size_t i = 0; i < w.size(); ++i) {
      w[i] = static_cast<int>(i) == index ? weight : share;
    }
  } else {
    double scale = remaining / others;
    for (size_t i = 0; i < w.size(); ++i) {
      if (static_cast<int>(i) == index) {
        w[i] = weight;
      } else {
        w[i] *= scale;
      }
    }
  }
  return Status::Ok();
}

Status QualityModel::ValidateWeightVector(
    const std::vector<double>& weights) const {
  if (qefs_.empty()) {
    return Status::FailedPrecondition("quality model has no QEFs");
  }
  if (weights.size() != qefs_.size()) {
    return Status::InvalidArgument("weight count does not match QEF count");
  }
  double sum = 0.0;
  for (double w : weights) {
    if (!std::isfinite(w) || w < 0.0 || w > 1.0) {
      return Status::InvalidArgument(
          "each weight must be a finite number in [0, 1]");
    }
    sum += w;
  }
  if (std::fabs(sum - 1.0) > 1e-6) {
    return Status::InvalidArgument("weights must sum to 1");
  }
  return Status::Ok();
}

bool QualityModel::NeedsMatching() const {
  for (const auto& qef : qefs_) {
    if (dynamic_cast<const MatchingQualityQef*>(qef.get()) != nullptr ||
        dynamic_cast<const SchemaCoverageQef*>(qef.get()) != nullptr) {
      return true;
    }
  }
  return false;
}

QualityModel::SourcePolicy QualityModel::PolicyFor(
    const DataSource& source) const {
  const DegradationPolicy policy = degradation_.policy;
  SourcePolicy out;
  switch (source.stats_state()) {
    case StatsState::kFresh:
      break;
    case StatsState::kStale:
      out.degraded = true;
      if (policy == DegradationPolicy::kLastKnownGood) {
        out.weight = std::max(
            0.0, 1.0 - degradation_.stale_discount * source.staleness());
      } else {
        out.weight = 0.0;
        out.admit_signature = false;
      }
      break;
    case StatsState::kPartial:
      // Cardinality arrived fresh; only the signature was lost. The
      // exclude policy drops the source from the renormalized picture
      // entirely; the others trust what did arrive.
      out.degraded = true;
      out.admit_signature = false;
      if (policy == DegradationPolicy::kExcludeRenormalize) out.weight = 0.0;
      break;
    case StatsState::kMissing:
      out.degraded = true;
      out.weight = 0.0;
      out.admit_signature = false;
      break;
  }
  return out;
}

EvalContext QualityModel::MakeContext(const Universe& universe,
                                      const std::vector<SourceId>& sources,
                                      const MatchResult* match) const {
  EvalContext ctx;
  ctx.universe = &universe;
  ctx.sources = &sources;
  ctx.match = match;

  std::unique_ptr<DistinctSignature> union_sig;
  for (SourceId s : sources) {
    const DataSource& source = universe.source(s);
    ctx.total_cardinality += source.cardinality();

    // Weight of this source's cardinality contributions and whether its
    // signature is admitted, per the degradation policy (shared with the
    // evaluator's per-source table through PolicyFor). Fresh sources are
    // weight 1 / admitted under every policy.
    const SourcePolicy policy = PolicyFor(source);
    if (policy.degraded) ++ctx.degraded_count;
    ctx.effective_cardinality +=
        policy.weight * static_cast<double>(source.cardinality());
    if (!policy.admit_signature || !source.has_signature()) continue;
    ++ctx.cooperating_count;
    ctx.cooperating_cardinality +=
        policy.weight * static_cast<double>(source.cardinality());
    if (union_sig == nullptr) {
      union_sig = source.signature().Clone();
    } else {
      union_sig->MergeFrom(source.signature());
    }
  }
  ctx.union_estimate = union_sig == nullptr ? 0.0 : union_sig->Estimate();
  if (degradation_.policy == DegradationPolicy::kExcludeRenormalize) {
    ctx.universe_cardinality = universe.FreshCardinality();
    ctx.universe_union_estimate = universe.FreshUnionCardinalityEstimate();
  } else {
    ctx.universe_cardinality = universe.TotalCardinality();
    ctx.universe_union_estimate = universe.UnionCardinalityEstimate();
  }
  return ctx;
}

QualityBreakdown QualityModel::Evaluate(const EvalContext& ctx) const {
  return Evaluate(ctx, weights_);
}

QualityBreakdown QualityModel::Evaluate(
    const EvalContext& ctx, const std::vector<double>& weights) const {
  UBE_CHECK(ValidateWeightVector(weights).ok(),
            "QualityModel weights are invalid: " +
                ValidateWeightVector(weights).ToString());
  UBE_CHECK(!NeedsMatching() || ctx.match != nullptr,
            "model has a matching QEF but the context has no Match result");
  return Evaluate(ctx, weights, {});
}

QualityBreakdown QualityModel::Evaluate(
    const EvalContext& ctx, const std::vector<double>& weights,
    std::span<const std::unique_ptr<QefDeltaScorer>> scorers) const {
  UBE_DCHECK(weights.size() == qefs_.size(), "one weight per QEF");
  UBE_DCHECK(scorers.empty() || scorers.size() == qefs_.size(),
             "scorers must be empty or parallel to the QEFs");
  QualityBreakdown out;
  out.scores.resize(qefs_.size(), 0.0);
  if (ctx.match != nullptr && !ctx.match->valid) {
    out.feasible = false;
    out.overall = 0.0;
    return out;
  }
  for (size_t i = 0; i < qefs_.size(); ++i) {
    const QefDeltaScorer* scorer =
        scorers.empty() ? nullptr : scorers[i].get();
    out.scores[i] =
        scorer != nullptr ? scorer->Score(ctx) : qefs_[i]->Evaluate(ctx);
    out.overall += weights[i] * out.scores[i];
  }
  return out;
}

}  // namespace ube
