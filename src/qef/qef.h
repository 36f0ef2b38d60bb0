#ifndef UBE_QEF_QEF_H_
#define UBE_QEF_QEF_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "matching/cluster_matcher.h"
#include "source/universe.h"

namespace ube {

/// How the data QEFs treat sources whose statistics came back degraded from
/// acquisition (stale snapshot, truncated signature, nothing at all — see
/// StatsState in source/data_source.h and the prober in source/prober.h).
enum class DegradationPolicy {
  /// Degraded statistics are not trusted: the source contributes nothing to
  /// Card / Coverage / Redundancy (a worst-case prior of 0, the same
  /// treatment Section 4 gives uncooperative sources); denominators stay
  /// universe-wide, so degradation strictly lowers quality.
  kPessimisticPrior,
  /// Use the last-known-good snapshot, discounted: a stale source's
  /// cardinality contributions are scaled by
  /// (1 − stale_discount · staleness) and its signature still joins the
  /// union-of-S estimate. The default — degraded data beats no data.
  kLastKnownGood,
  /// Degraded sources are excluded from numerators AND denominators: the
  /// data QEFs renormalize over the fresh part of the universe, measuring
  /// "quality relative to what we can actually see".
  kExcludeRenormalize,
};

std::string_view DegradationPolicyName(DegradationPolicy policy);

/// Degradation knobs, held by the QualityModel.
struct DegradationOptions {
  DegradationPolicy policy = DegradationPolicy::kLastKnownGood;
  /// Cardinality weight lost per unit staleness under kLastKnownGood,
  /// in [0, 1]: weight = 1 − stale_discount · staleness.
  double stale_discount = 0.5;
};

/// Everything a QEF may look at when scoring a candidate source set S.
///
/// Built once per candidate by QualityModel::MakeContext, which precomputes
/// the aggregates shared by several QEFs (total cardinality, union-of-S
/// distinct estimate over cooperating sources, the Match(S) result) and
/// applies the model's degradation policy to sources with stale / partial /
/// missing statistics. On a fully fresh universe every policy yields the
/// same numbers, bit-identical to the pre-acquisition behavior.
struct EvalContext {
  const Universe* universe = nullptr;
  /// The candidate S (each id valid for *universe).
  const std::vector<SourceId>* sources = nullptr;
  /// Result of Match(S) for this candidate; may be null when the model has
  /// no matching QEF. When present and !valid, the candidate is infeasible
  /// and QualityModel::Evaluate returns 0 overall.
  const MatchResult* match = nullptr;

  /// Σ_{s∈S} |s| over all sources of S (raw, policy-independent).
  int64_t total_cardinality = 0;
  /// Policy-adjusted Σ over S — the Card numerator (equals
  /// total_cardinality when every source is fresh).
  double effective_cardinality = 0.0;
  /// Number of sources in S whose signature the policy admits.
  int cooperating_count = 0;
  /// Policy-adjusted Σ |s| over those cooperating sources.
  double cooperating_cardinality = 0.0;
  /// Estimated |∪S| over admitted signatures (0 if none cooperate).
  double union_estimate = 0.0;
  /// Sources in S with degraded (non-fresh) statistics.
  int degraded_count = 0;

  /// Card denominator under the active policy: Σ_{t∈U}|t|, or the fresh
  /// subset under kExcludeRenormalize.
  int64_t universe_cardinality = 0;
  /// Coverage denominator under the active policy: estimated |∪U| (or
  /// |∪ fresh U|).
  double universe_union_estimate = 0.0;
};

/// Incremental scorer for one QEF: scores a prepared EvalContext without
/// any of the per-candidate universe-wide work Evaluate may redo on each
/// call (min/max scans, characteristic lookups). Built once per
/// CandidateEvaluator by Qef::MakeDeltaScorer against an immutable
/// universe; every Q(S) the evaluator computes, on the full path and on
/// the delta path (src/optimize/delta_evaluator.h), scores through it.
///
/// Contract: Score(ctx) must return a double bit-identical to the owning
/// Qef's Evaluate(ctx) for every context the quality model can build over
/// that universe — the delta-vs-full oracle suite enforces this per QEF.
class QefDeltaScorer {
 public:
  virtual ~QefDeltaScorer() = default;
  virtual double Score(const EvalContext& ctx) const = 0;
};

/// A quality evaluation function F_k(S) ∈ [0, 1]; higher is better
/// (Section 2.3). Implementations must be stateless w.r.t. candidates so a
/// single instance can score many candidates during one search.
class Qef {
 public:
  virtual ~Qef() = default;

  /// Aggregate quality of the candidate described by `ctx`, in [0, 1].
  virtual double Evaluate(const EvalContext& ctx) const = 0;

  /// Stable identifier used in weight maps and reports.
  virtual std::string_view name() const = 0;

  /// Factory for this QEF's incremental scorer over `universe` (which must
  /// outlive the scorer and stay immutable while it is used). The default
  /// returns null, meaning the QEF has no table to read — true for the
  /// matching-based QEFs (they read the Match(S) result, which the evaluator
  /// computes per candidate) and user lambdas (opaque) — and the evaluator
  /// then scores it through Evaluate, on the delta path too.
  virtual std::unique_ptr<QefDeltaScorer> MakeDeltaScorer(
      const Universe& universe) const {
    (void)universe;
    return nullptr;
  }
};

/// F1: matching quality — how well the schemas of S match each other
/// (the average GA quality of the generated mediated schema, Section 3).
class MatchingQualityQef final : public Qef {
 public:
  double Evaluate(const EvalContext& ctx) const override;
  std::string_view name() const override { return "matching"; }
};

/// F2: Card(S) = Σ_{s∈S}|s| / Σ_{t∈U}|t| — the amount of data in S
/// relative to the whole universe (Section 4).
class CardinalityQef final : public Qef {
 public:
  double Evaluate(const EvalContext& ctx) const override;
  std::string_view name() const override { return "cardinality"; }
  std::unique_ptr<QefDeltaScorer> MakeDeltaScorer(
      const Universe& universe) const override;
};

/// F3: Coverage(S) = |∪S| / |∪U| — how much of the universe's distinct
/// data S can deliver (Section 4). Uses the PCSA union estimates;
/// non-cooperating sources contribute nothing (Section 4 fallback).
class CoverageQef final : public Qef {
 public:
  double Evaluate(const EvalContext& ctx) const override;
  std::string_view name() const override { return "coverage"; }
  std::unique_ptr<QefDeltaScorer> MakeDeltaScorer(
      const Universe& universe) const override;
};

/// F4: Redundancy(S) — degree of overlap among the sources of S, oriented
/// so 0 is the worst (all sources identical) and 1 the best (pairwise
/// disjoint), as Section 4 requires.
class RedundancyQef final : public Qef {
 public:
  enum class Mode {
    /// (|S'| − o) / (|S'| − 1) with overlap factor o = Σ|s| / |∪S'| over the
    /// cooperating subset S'. Attains exactly 0 and 1 at the stated
    /// extremes (DESIGN.md §2 reconstruction; default).
    kOverlapFactor,
    /// |∪S'| / Σ_{s∈S'}|s| — simpler ratio, used by the design ablation.
    kUnionRatio,
  };

  explicit RedundancyQef(Mode mode = Mode::kOverlapFactor) : mode_(mode) {}
  double Evaluate(const EvalContext& ctx) const override;
  std::string_view name() const override { return "redundancy"; }
  std::unique_ptr<QefDeltaScorer> MakeDeltaScorer(
      const Universe& universe) const override;
  Mode mode() const { return mode_; }

 private:
  Mode mode_;
};

/// Schema coherence: the fraction of the selected sources' attributes
/// that the generated mediated schema covers (i.e. that matched *some*
/// other attribute). F1 scores how well the formed GAs match internally
/// but is blind to attributes that matched nothing; this QEF is the
/// complementary signal — it is what drops a source that "expresses the
/// concepts it contains in a way that is different from other data
/// sources" (Section 1's semantic-coherence argument). Built as one of the
/// user-defined QEFs Section 2.3 allows.
class SchemaCoverageQef final : public Qef {
 public:
  double Evaluate(const EvalContext& ctx) const override;
  std::string_view name() const override { return "schema-coverage"; }
};

/// How a CharacteristicQef folds per-source values into [0, 1] (Section 5).
enum class Aggregation {
  /// The paper's wsum: cardinality-weighted mean of min-max-normalized
  /// values — a high-MTTF source with many tuples counts more than a
  /// high-MTTF source with few.
  kWeightedSum,
  kMean,  ///< unweighted mean of normalized values
  kMin,   ///< worst normalized value in S
  kMax,   ///< best normalized value in S
};

/// QEF over a named per-source characteristic (latency, availability, fees,
/// reputation, MTTF, ...). Values are positive reals of any magnitude;
/// normalization is min-max over the sources of U that define the
/// characteristic. Sources lacking the characteristic contribute the worst
/// normalized value (0).
class CharacteristicQef final : public Qef {
 public:
  /// `invert` flips the normalization for smaller-is-better characteristics
  /// (latency, fees): normalized = (max − q) / (max − min).
  CharacteristicQef(std::string characteristic, Aggregation aggregation,
                    bool invert = false);

  double Evaluate(const EvalContext& ctx) const override;
  std::string_view name() const override { return display_name_; }
  /// Table-based scorer: the universe-wide min/max scan and every
  /// per-source Normalized() value are computed once instead of per
  /// candidate — the largest single saving of the delta path.
  std::unique_ptr<QefDeltaScorer> MakeDeltaScorer(
      const Universe& universe) const override;

  const std::string& characteristic() const { return characteristic_; }
  Aggregation aggregation() const { return aggregation_; }
  bool invert() const { return invert_; }

 private:
  /// Normalized value of one source, or 0 if it lacks the characteristic or
  /// the universe-wide range is degenerate (then every source scores 1).
  double Normalized(const Universe& universe, SourceId s, double min_u,
                    double max_u) const;

  std::string characteristic_;
  std::string display_name_;
  Aggregation aggregation_;
  bool invert_;
};

/// User-defined QEF from a callable — "the user can also define other QEFs"
/// (Section 2.3).
class LambdaQef final : public Qef {
 public:
  LambdaQef(std::string name,
            std::function<double(const EvalContext&)> function)
      : name_(std::move(name)), function_(std::move(function)) {}

  double Evaluate(const EvalContext& ctx) const override {
    return function_(ctx);
  }
  std::string_view name() const override { return name_; }

 private:
  std::string name_;
  std::function<double(const EvalContext&)> function_;
};

}  // namespace ube

#endif  // UBE_QEF_QEF_H_
