#ifndef UBE_CORE_SESSION_H_
#define UBE_CORE_SESSION_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"

namespace ube {

/// The iterative user-feedback loop of Section 6: the user runs µBE, looks
/// at the proposed sources and mediated schema, edits the problem (pins
/// sources, promotes output GAs into GA constraints, re-weights QEFs,
/// changes m/θ/β), and re-solves — "the input has the same structure and
/// format as the output", which is what makes this loop cheap for the user.
///
/// Session keeps the evolving ProblemSpec and the solution history. All
/// feedback — including SetWeight, which edits a per-session weight overlay
/// in the spec — lives in per-session state; the engine is only ever read,
/// so any number of sessions can share one engine without corrupting each
/// other (SessionServer builds on exactly this).
class Session {
 public:
  /// Per-session effort/outcome counters, all deterministic (callers time
  /// Iterate themselves).
  struct Stats {
    int64_t iterations = 0;     ///< successful solves appended to history
    int64_t failed_solves = 0;  ///< Iterate calls that returned non-OK
    /// Solves seeded from a repaired previous incumbent / started cold.
    int64_t warm_solves = 0;
    int64_t cold_solves = 0;
    /// Feedback gestures accepted (pin/ban/unpin/unban/promote/add-GA/
    /// reweight) since the session opened.
    int64_t feedback_gestures = 0;
  };

  /// The engine must outlive the session. Sessions never mutate the engine
  /// (note the const — the type-level isolation guarantee); do not run
  /// Engine::RunContinuous while sessions are iterating.
  explicit Session(const Engine* engine);

  const ProblemSpec& spec() const { return spec_; }
  ProblemSpec& mutable_spec() { return spec_; }

  /// Solver knobs used by Iterate() when no explicit options are passed —
  /// set once per session (e.g. num_threads, budgets) and every iteration
  /// of the feedback loop inherits them.
  const SolverOptions& solver_options() const { return solver_options_; }
  SolverOptions& mutable_solver_options() { return solver_options_; }

  /// Warm-start re-solve: when enabled and a previous solution exists,
  /// Iterate repairs the last incumbent against the current spec
  /// (bounded by repair_options()) and seeds the solver with the result
  /// via SolverOptions::initial_incumbent — so a feedback gesture
  /// re-solves from where the user already was. Both phases run on one
  /// Engine::Scope over SolverOptions::shared_cache, answering as
  /// Engine::RepairSeed then Engine::Solve would. When the whole incumbent
  /// is evicted the solve falls back cold, bit-identical to warm start
  /// off. Off by default: a plain Session keeps Iterate == Engine::Solve.
  void set_warm_start(bool on) { warm_start_ = on; }
  bool warm_start() const { return warm_start_; }

  /// Budget/seed of the warm-start repair (used only when warm_start();
  /// its shared_cache is ignored).
  const RepairOptions& repair_options() const { return repair_options_; }
  RepairOptions& mutable_repair_options() { return repair_options_; }

  /// Solves the current problem with the session's solver options and
  /// appends the solution to the history.
  Result<Solution> Iterate(SolverKind solver = SolverKind::kTabu);
  /// Same, with explicit one-off options. On failure (infeasible spec,
  /// solver error) the history is left untouched — last()/ReportLast()
  /// keep answering from the previous solution, never a half-appended one.
  Result<Solution> Iterate(SolverKind solver, const SolverOptions& options);

  /// Per-session counters (see Stats).
  const Stats& stats() const { return stats_; }

  int num_iterations() const { return static_cast<int>(history_.size()); }
  const std::vector<Solution>& history() const { return history_; }
  /// Last solution, or null before the first Iterate.
  const Solution* last() const;

  /// Renders the last solution (FormatSolution with the acquisition report
  /// and, when the engine has an ObsContext, the observability section).
  /// Empty string before the first Iterate.
  std::string ReportLast() const;

  /// The engine's acquisition report (null when the engine was built from a
  /// plain universe). Lets UI code render the DegradedSources section next
  /// to any solution in the history.
  const AcquisitionReport* acquisition_report() const {
    return engine_->acquisition_report();
  }

  // --- feedback operations (all take effect at the next Iterate) --------

  /// Requires `source` to be part of the solution (a source constraint).
  Status PinSource(SourceId source);
  /// Same, resolving the source by name.
  Status PinSourceByName(std::string_view name);
  /// Removes a source constraint.
  Status UnpinSource(SourceId source);

  /// Excludes `source` from all future solutions (the "reject this source"
  /// gesture). Fails if the source is currently pinned or referenced by a
  /// GA constraint.
  Status BanSource(SourceId source);
  /// Same, resolving the source by name.
  Status BanSourceByName(std::string_view name);
  /// Removes a ban.
  Status UnbanSource(SourceId source);

  /// Promotes GA `ga_index` of the last solution into a GA constraint —
  /// the core "Matching By Example" gesture. Existing GA constraints fully
  /// contained in the promoted GA are absorbed; a partial overlap with an
  /// unrelated constraint is an error.
  Status PromoteGa(int ga_index);
  /// Adds an explicit GA constraint (validated against the universe and
  /// existing constraints).
  Status AddGaConstraint(GlobalAttribute ga);
  /// Convenience: builds a GA from (source name, attribute name) pairs and
  /// adds it.
  Status AddGaConstraintByNames(
      const std::vector<std::pair<std::string, std::string>>& attributes);

  /// Sets the weight of QEF `qef_name`, rescaling the others so the weights
  /// keep summing to 1. Edits this session's weight overlay
  /// (ProblemSpec::weight_overlay, initialized from the engine's model on
  /// first use) — the engine's shared QualityModel is never touched, so
  /// concurrent sessions each solve under their own weights.
  Status SetWeight(std::string_view qef_name, double weight);

  /// This session's effective weights: the overlay when SetWeight has been
  /// called, the engine model's weights otherwise.
  const std::vector<double>& effective_weights() const;

  void SetMaxSources(int m) { spec_.max_sources = m; }
  void SetTheta(double theta) { spec_.theta = theta; }
  void SetBeta(int beta) { spec_.beta = beta; }
  void ClearConstraints();

 private:
  const Engine* engine_;
  ProblemSpec spec_;
  SolverOptions solver_options_;
  std::vector<Solution> history_;
  bool warm_start_ = false;
  RepairOptions repair_options_;
  Stats stats_;
};

}  // namespace ube

#endif  // UBE_CORE_SESSION_H_
