#ifndef UBE_OPTIMIZE_SOLVER_INTERNAL_H_
#define UBE_OPTIMIZE_SOLVER_INTERNAL_H_

#include <memory>
#include <string_view>
#include <vector>

#include "obs/obs.h"
#include "optimize/delta_evaluator.h"
#include "optimize/evaluator.h"
#include "optimize/problem.h"
#include "optimize/search_state.h"
#include "optimize/solver.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ube::internal {

/// The scaffolding of one search run, shared by every solver and the
/// repair so each of them writes only its move rule. Solvers score single
/// candidates and arbitrary batches through evaluator().Quality and
/// QualityBatch, and single-move neighborhoods through delta(), the run's
/// DeltaEvaluator, which is always enabled. Construction starts the run:
/// it reads the clock, builds that DeltaEvaluator, calls BeginRun (cold
/// cache, zeroed counters) and attaches SolverOptions::obs
/// (a "solve/<name>" span and the telemetry ring); destruction detaches.
/// When options.obs is null (the default) the observability members are
/// cheap no-ops, so solvers use them unconditionally — gate only
/// per-iteration sample *assembly* on observed() when it costs anything
/// (e.g. counting the tabu list). `options` must outlive the run.
class SolveScope {
 public:
  SolveScope(const CandidateEvaluator& evaluator, const SolverOptions& options,
             std::string_view solver_name);
  ~SolveScope();
  SolveScope(const SolveScope&) = delete;
  SolveScope& operator=(const SolveScope&) = delete;

  const CandidateEvaluator& evaluator() const { return evaluator_; }
  const SolverOptions& options() const { return options_; }
  DeltaEvaluator& delta() { return delta_; }

  /// Thread pool for batch misses per SolverOptions::num_threads, built on
  /// first use; null when the resolved count is 1 (batches run inline).
  ThreadPool* pool();

  /// True when the wall-clock or evaluation budget is set and spent,
  /// setting `*stop` to the matching reason (time wins when both expired,
  /// so tiny time-limit tests keep seeing kTimeLimit). Solvers must consult
  /// this both before dispatching a batch and right after it returns:
  /// checking only at the top of the outer loop lets one large batch
  /// overshoot either budget by an unbounded amount.
  bool Expired(StopReason* stop) const;

  /// Appends a trace point at the current evaluation count when
  /// SolverOptions::record_trace is set. Call on every incumbent
  /// improvement.
  void Improved(double best_quality);

  bool observed() const { return obs_ != nullptr; }

  /// Records one outer-iteration telemetry sample (ring-bounded), stamping
  /// its evaluation count.
  void Record(obs::IterationSample sample);

  /// Fully evaluates `best` and packages it, the effort counters, the stop
  /// reason, the trace and (when observed) the telemetry and a metrics
  /// snapshot into a Solution; bumps the solver.stop.<reason> counter.
  Solution Finish(std::vector<SourceId> best, int64_t iterations,
                  StopReason stop);

 private:
  WallTimer timer_;
  const CandidateEvaluator& evaluator_;
  const SolverOptions& options_;
  std::string_view name_;
  obs::ObsContext* obs_;
  std::unique_ptr<obs::TelemetryRing> ring_;
  obs::Tracer::Span span_;
  DeltaEvaluator delta_;
  bool pool_built_ = false;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<TracePoint> trace_;
};

/// Moves sampled per iteration by the local-move searches:
/// SolverOptions::candidate_moves, or by default a sample that grows with
/// |U| within [24, 64].
int MovesPerIteration(const SolverOptions& options, int num_sources);

/// Best-of-sample ascent from `state`, whose quality is `quality`: each
/// iteration samples MovesPerIteration moves, scores them as one batch and
/// commits the best one that beats the current quality by more than 1e-12,
/// raising `*best`/`*best_quality` (and the trace) whenever the climb
/// passes them. Runs at most max(1, max_iterations) iterations, counted in
/// `*iterations`. Returns kConverged when a batch holds no improving move,
/// kExhausted when no legal move exists, kMaxIterations when the iterations
/// run out, or the budget's reason from run->Expired, checked before and
/// after every batch.
StopReason Climb(SolveScope* run, Rng& rng, int max_iterations,
                 SearchState* state, double quality,
                 std::vector<SourceId>* best, double* best_quality,
                 int64_t* iterations);

/// Common entry checks: non-empty universe. Returns OK or kInfeasible.
Status CheckSolvable(const CandidateEvaluator& evaluator);

/// The sanitized warm-start seed from SolverOptions::initial_incumbent, or
/// an empty vector when there is none or it is infeasible under the
/// evaluator's spec (out-of-range/banned member, missing required source,
/// size outside [1, m] after dedup). Solvers treat empty as "cold start" —
/// and MUST NOT have consumed any randomness before calling this, so the
/// infeasible-seed path stays bit-identical to a cold solve.
std::vector<SourceId> ValidWarmStart(const CandidateEvaluator& evaluator,
                                     const SolverOptions& options);

}  // namespace ube::internal

#endif  // UBE_OPTIMIZE_SOLVER_INTERNAL_H_
