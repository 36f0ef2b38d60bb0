#ifndef UBE_CORE_ENGINE_H_
#define UBE_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "catalog/change_feed.h"
#include "matching/cluster_matcher.h"
#include "matching/similarity_graph.h"
#include "optimize/evaluator.h"
#include "optimize/problem.h"
#include "optimize/repair.h"
#include "optimize/solver.h"
#include "qef/quality_model.h"
#include "source/live_universe.h"
#include "source/prober.h"
#include "source/universe.h"
#include "text/similarity.h"
#include "util/result.h"

namespace ube {

/// Knobs of Engine::RunContinuous — the continuous solver mode over a
/// churning catalog. Policy: repair first, escalate to a full re-solve only
/// when the repaired incumbent's quality falls below a configurable
/// fraction of the last full solve's quality.
struct ContinuousOptions {
  /// Solver for the initial solve and every escalation.
  SolverKind solver = SolverKind::kTabu;
  /// Options of those full solves (seed, budgets, num_threads, obs).
  SolverOptions solver_options;
  /// The bounded repair search (seed is re-derived per batch; num_threads
  /// and clock are overridden from solver_options so one knob steers the
  /// whole run).
  RepairOptions repair;
  /// The adaptive budget controller sizing repair.eval_budget per batch
  /// from recent repair telemetry (optimize/repair.h). Enabled by default;
  /// disable to run with the fixed repair.eval_budget (the configuration
  /// bench/churn_sweep compares against).
  AdaptiveRepairOptions adaptive;
  /// Events within this window of simulated time are applied together and
  /// answered with one repair.
  double batch_ms = 1'000.0;
  /// Escalate when repaired quality < fraction × last full-solve quality.
  double escalation_fraction = 0.85;
  /// kRepair is the live mode; kFullEverytime re-solves from scratch on
  /// every batch (the baseline bench/churn_sweep compares against).
  enum class Mode { kRepair, kFullEverytime };
  Mode mode = Mode::kRepair;
};

/// Why a batch escalated to a full re-solve (ContinuousStep).
enum class EscalationReason {
  kNone,              ///< the repaired incumbent was kept
  kQualityFraction,   ///< repaired quality < fraction x last full quality
  kIncumbentWipeout,  ///< sanitizing evicted the whole incumbent
  kBaseline,          ///< kFullEverytime mode re-solves unconditionally
};

std::string_view EscalationReasonName(EscalationReason reason);

/// One event batch answered by RunContinuous.
struct ContinuousStep {
  /// Simulated time of the batch's last event.
  double time_ms = 0.0;
  int events_applied = 0;
  /// Incumbent members evicted as dead/banned by this batch.
  int evicted = 0;
  /// Schema-drift events (attribute rename/add/drop) among them.
  int drift_events = 0;
  /// Whether a full re-solve ran (repair insufficient, or baseline mode).
  bool escalated = false;
  /// Why (kNone when the repaired incumbent was kept).
  EscalationReason escalation_reason = EscalationReason::kNone;
  /// The evaluation budget the repair ran with (the adaptive controller's
  /// choice, or the fixed RepairOptions::eval_budget; 0 in baseline mode).
  int64_t repair_budget = 0;
  /// Q of the surviving incumbent seed before any search (0 when the whole
  /// incumbent was evicted; not filled in baseline mode).
  double quality_before = 0.0;
  /// Q of the incumbent after repair/re-solve.
  double quality_after = 0.0;
  /// Candidate evaluations this batch actually computed.
  int64_t evaluations = 0;
  /// Wall-clock of the batch's repair + solve work (not deterministic).
  double elapsed_ms = 0.0;
  /// The incumbent after this batch, sorted (deterministic; the churn-trace
  /// replay tests compare these across thread counts).
  std::vector<SourceId> incumbent;
};

/// Everything RunContinuous did: per-batch steps plus aggregates.
struct ContinuousReport {
  std::vector<ContinuousStep> steps;
  /// The incumbent after the last batch (== the initial solve's Solution
  /// when the trace is empty — byte-identical, the zero-churn contract).
  Solution final_solution;
  int events_applied = 0;
  /// Schema-drift events among them.
  int drift_events = 0;
  /// Evaluations spent inside repairs (escalation re-solves excluded).
  int64_t repair_evaluations = 0;
  /// Full solves run (always >= 1: the initial solve).
  int full_solves = 0;
  int repairs = 0;
  int escalations = 0;
  /// Quality of the most recent full solve (the escalation reference).
  double last_full_quality = 0.0;
};

/// The µBE engine (Figure 2): owns the universe of source descriptions, the
/// precomputed attribute-similarity graph, the schema-matching operator and
/// the quality model, and solves the constrained optimization problems the
/// user poses iteratively.
///
/// Typical use:
///
///   Engine engine(std::move(universe), QualityModel::MakeDefault());
///   ProblemSpec spec;
///   spec.max_sources = 20;
///   Result<Solution> solution = engine.Solve(spec);
///
/// For the interactive feedback loop, wrap the engine in a Session. For a
/// churning catalog, feed a ChurnTrace to RunContinuous.
class Engine {
 public:
  struct Options {
    /// Similarity graph floor: edges below this are discarded. Must not
    /// exceed any θ used later; 0.25 comfortably under-runs practical
    /// thresholds while keeping the graph sparse.
    double similarity_floor = 0.25;
    /// Attribute similarity measure (null = the paper's 3-gram Jaccard).
    std::unique_ptr<AttributeSimilarity> similarity;
    /// Optional observability context. Not owned; must outlive the engine.
    /// The engine records phase spans (phase/match at construction,
    /// phase/evaluate and phase/solve inside Solve) and forwards the
    /// context to each Solve's SolverOptions unless the caller attached
    /// their own there. Null (default) disables instrumentation.
    obs::ObsContext* obs = nullptr;
  };

  /// Takes ownership of the universe (only RunContinuous may change it
  /// afterwards — the similarity graph is precomputed here and maintained
  /// incrementally under churn) and of the quality model.
  Engine(Universe universe, QualityModel model, Options options);
  /// Same, with default Options.
  Engine(Universe universe, QualityModel model);

  /// From a prober acquisition (source/prober.h): the universe may contain
  /// dropped (unavailable) and degraded sources. Dropped sources are
  /// auto-banned in every Solve; degraded statistics are handled by the
  /// model's degradation policy; the acquisition report is kept for
  /// Report's DegradedSources section.
  Engine(Acquisition acquisition, QualityModel model, Options options);
  Engine(Acquisition acquisition, QualityModel model);

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const Universe& universe() const { return live_.universe(); }
  const QualityModel& quality_model() const { return model_; }

  /// The per-source acquisition report, or null when the engine was built
  /// from a plain universe (no prober involved).
  const AcquisitionReport* acquisition_report() const {
    return acquisition_report_.has_value() ? &*acquisition_report_ : nullptr;
  }
  const SimilarityGraph& similarity_graph() const { return live_.graph(); }
  const ClusterMatcher& matcher() const { return live_.matcher(); }
  /// The live universe behind the engine (version, health registry).
  const LiveUniverse& live() const { return live_; }
  /// The attached observability context (null = disabled).
  obs::ObsContext* obs() const { return obs_; }

  /// Solves one µBE optimization problem. Validates the spec; infeasible
  /// constraint sets return kInfeasible.
  Result<Solution> Solve(const ProblemSpec& spec,
                         SolverKind solver = SolverKind::kTabu,
                         const SolverOptions& options = SolverOptions()) const;

  /// Continuous mode: solves once, then applies `trace` batch by batch,
  /// keeping the incumbent alive — evicting dead/banned sources, running a
  /// bounded repair seeded from what survived, and escalating to a full
  /// re-solve per ContinuousOptions. Sources whose health breaker is open
  /// at batch time are excluded from repair/re-solve (unless required by
  /// the spec's constraints).
  ///
  /// Deterministic contract: with an empty trace the returned
  /// final_solution is byte-identical to Solve(spec, solver, options) —
  /// for any thread count; with a non-empty trace every step's incumbent
  /// replays bit-identically from the trace and the options (wall-clock
  /// fields excepted).
  ///
  /// Mutates the engine (this is the point); Solve/EvaluateCandidate keep
  /// working against the evolved universe afterwards.
  Result<ContinuousReport> RunContinuous(const ProblemSpec& spec,
                                         const ChurnTrace& trace,
                                         const ContinuousOptions& options);

  /// Scores a user-chosen source set under a spec (the "what if I just use
  /// these" probe in the UI). `sources` need not be sorted.
  Result<CandidateEvaluator::Evaluation> EvaluateCandidate(
      const ProblemSpec& spec, std::vector<SourceId> sources) const;

  /// Repairs `incumbent` against `spec` (optimize/repair: evict banned /
  /// out-of-range members, re-add required sources, bounded steepest
  /// ascent) and returns the repaired source set — the warm-start seed
  /// Session/SessionServer feed into SolverOptions::initial_incumbent for
  /// the next Solve. Empty when nothing of the incumbent survives
  /// sanitizing (callers then cold-start); a Status only for an invalid
  /// spec. RepairOptions::shared_cache, when set, routes the repair's
  /// evaluations through the shared cache so they pre-warm the solve.
  Result<std::vector<SourceId>> RepairSeed(const ProblemSpec& spec,
                                           const std::vector<SourceId>& incumbent,
                                           const RepairOptions& options) const;

  /// Runs only the Match operator over a source set (no data QEFs).
  Result<MatchResult> MatchSources(
      const ProblemSpec& spec, std::vector<SourceId> sources) const;

 private:
  /// Spec with every unavailable (dropped) source appended to the ban list;
  /// Unavailable when a constraint requires a dropped source. Returns
  /// `spec` untouched when nothing was dropped.
  Result<ProblemSpec> EffectiveSpec(const ProblemSpec& spec) const;

  /// The validation Solve, RepairSeed and EvaluateCandidate share: the
  /// live universe's status (mixed signature formats), EffectiveSpec, then
  /// ValidateSpec, ValidateOverlay and θ against the similarity graph's
  /// floor (every Match would fail below it). Returns the effective spec.
  Result<ProblemSpec> ValidatedSpec(const ProblemSpec& spec) const;

  QualityModel model_;
  obs::ObsContext* obs_ = nullptr;
  LiveUniverse live_;
  std::optional<AcquisitionReport> acquisition_report_;
  std::vector<SourceId> unavailable_;  // sorted ids of dropped sources
};

}  // namespace ube

#endif  // UBE_CORE_ENGINE_H_
