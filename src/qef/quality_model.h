#ifndef UBE_QEF_QUALITY_MODEL_H_
#define UBE_QEF_QUALITY_MODEL_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "qef/qef.h"
#include "util/result.h"

namespace ube {

/// Per-QEF scores plus the weighted overall quality of one candidate.
struct QualityBreakdown {
  /// Q(S) = Σ_k w_k F_k(S); 0 when the candidate is infeasible.
  double overall = 0.0;
  /// True iff the Match(S) result (when a matching QEF is present) is valid
  /// on the source constraints.
  bool feasible = true;
  /// F_k(S), parallel to the model's QEF list.
  std::vector<double> scores;
};

/// The set of QEFs F and weights W defining the overall quality
/// Q(S) = Σ w_i F_i(S) with 0 <= w_i <= 1 and Σ w_i = 1 (Section 2.3).
///
/// The user adjusts weights between µBE iterations "to guide the search for
/// a solution towards different parts of the search space"; SetWeights and
/// SetWeight support that feedback loop.
class QualityModel {
 public:
  QualityModel() = default;

  QualityModel(QualityModel&&) = default;
  QualityModel& operator=(QualityModel&&) = default;
  QualityModel(const QualityModel&) = delete;
  QualityModel& operator=(const QualityModel&) = delete;

  /// The paper's default model (Section 7.1): matching 0.25, cardinality
  /// 0.25, coverage 0.2, redundancy 0.15, wsum(MTTF) 0.15.
  static QualityModel MakeDefault(std::string mttf_characteristic = "mttf");

  /// Adds a QEF with the given weight. Weights are validated by
  /// ValidateWeights / at Evaluate time via UBE_CHECK in debug use.
  void AddQef(std::unique_ptr<Qef> qef, double weight);

  int num_qefs() const { return static_cast<int>(qefs_.size()); }
  const Qef& qef(int index) const;
  double weight(int index) const;
  /// Index of the QEF with this name, or -1.
  int FindQef(std::string_view name) const;

  /// All weights, parallel to the QEF list (the vector a per-spec overlay
  /// starts from — see ProblemSpec::weight_overlay).
  const std::vector<double>& weights() const { return weights_; }

  /// Replaces all weights (size must match; each in [0,1]; sum within 1e-6
  /// of 1).
  Status SetWeights(const std::vector<double>& weights);
  /// Sets one weight by QEF name and rescales the others proportionally so
  /// the sum stays 1 — the natural "turn this knob" user feedback.
  Status SetWeightRescaling(std::string_view name, double weight);

  /// The rescaling rule behind SetWeightRescaling on a free-standing weight
  /// vector: sets (*weights)[index] = weight and scales the others so the
  /// sum stays 1. Sessions apply it to their per-spec overlay so the
  /// engine's shared model is never touched.
  static Status RescaleWeight(std::vector<double>* weights, int index,
                              double weight);

  /// OK iff every weight is in [0,1] and they sum to 1 (±1e-6).
  Status ValidateWeights() const;
  /// Same conditions on a free-standing vector, plus size == num_qefs()
  /// (validates a ProblemSpec::weight_overlay against this model).
  Status ValidateWeightVector(const std::vector<double>& weights) const;

  /// True if any registered QEF is a MatchingQualityQef (i.e. evaluation
  /// requires running Match(S)).
  bool NeedsMatching() const;

  /// How MakeContext treats sources with degraded statistics (stale /
  /// partial / missing after acquisition). Irrelevant — all policies
  /// identical — when every source is fresh.
  const DegradationOptions& degradation() const { return degradation_; }
  void set_degradation(const DegradationOptions& options) {
    degradation_ = options;
  }

  /// How the active degradation policy treats one source: the weight of its
  /// cardinality contributions, whether its signature joins the union-of-S
  /// estimate, and whether it counts as degraded. Pure function of the
  /// source's stats. MakeContext and CandidateEvaluator's per-source table
  /// both derive their per-source treatment from this, so the evaluator and
  /// its ground truth cannot drift apart.
  struct SourcePolicy {
    double weight = 1.0;
    bool admit_signature = true;
    bool degraded = false;
  };
  SourcePolicy PolicyFor(const DataSource& source) const;

  /// The universe-wide denominators of the data QEFs under the active
  /// degradation policy: Card's Σ_{t∈U}|t| and Coverage's estimated |∪U|
  /// (both restricted to fresh sources under kExcludeRenormalize). They
  /// depend only on the universe, so an evaluator computes them once.
  struct Denominators {
    int64_t cardinality = 0;
    double union_estimate = 0.0;
  };
  Denominators UniverseDenominators(const Universe& universe) const;

  /// Builds the evaluation context for candidate `sources` (precomputes the
  /// shared aggregates). `match` may be null iff !NeedsMatching(). Reads
  /// no precomputed table, so it is the ground truth the evaluator's tables
  /// are checked against.
  EvalContext MakeContext(const Universe& universe,
                          const std::vector<SourceId>& sources,
                          const MatchResult* match) const;

  /// Scores a prepared context. If the context carries an invalid Match
  /// result the candidate is infeasible: overall = 0, feasible = false
  /// (the paper's Match returns NULL and the optimizer treats Q as 0).
  QualityBreakdown Evaluate(const EvalContext& ctx) const;

  /// Same, but accumulates under `weights` instead of the model's own
  /// (size must equal num_qefs(); see ProblemSpec::weight_overlay). The
  /// per-QEF scores are identical either way; only the weighted sum moves.
  QualityBreakdown Evaluate(const EvalContext& ctx,
                            const std::vector<double>& weights) const;

  /// The weighted sum behind both overloads above, scoring QEF i through
  /// `scorers[i]` when that entry is non-null (bit-identical to
  /// qef(i).Evaluate by the QefDeltaScorer contract, without its
  /// per-candidate universe-wide work) and through Qef::Evaluate otherwise.
  /// `scorers` is empty or parallel to the QEF list. The weights are not
  /// re-validated: callers check them once (ValidateWeightVector) before
  /// scoring many candidates.
  QualityBreakdown Evaluate(
      const EvalContext& ctx, const std::vector<double>& weights,
      std::span<const std::unique_ptr<QefDeltaScorer>> scorers) const;

 private:
  std::vector<std::unique_ptr<Qef>> qefs_;
  std::vector<double> weights_;
  DegradationOptions degradation_;
};

}  // namespace ube

#endif  // UBE_QEF_QUALITY_MODEL_H_
