#include <algorithm>
#include <vector>

#include "optimize/search_state.h"
#include "optimize/solver_internal.h"
#include "optimize/solvers.h"
#include "util/rng.h"

namespace ube {

Result<Solution> LocalSearchSolver::Solve(const CandidateEvaluator& evaluator,
                                          const SolverOptions& options) const {
  UBE_RETURN_IF_ERROR(internal::CheckSolvable(evaluator));
  internal::SolveScope run(evaluator, options, name());
  Rng rng(options.seed);

  const int restarts = std::max(1, options.restarts);
  const int iters_per_restart =
      std::max(1, options.max_iterations / restarts);

  // Warm start: the first restart climbs from the seed; later restarts
  // stay random. Checked before any rng use (cold fallback bit-identity).
  std::vector<SourceId> warm = internal::ValidWarmStart(evaluator, options);

  std::vector<SourceId> best;
  double best_quality = -1.0;
  int64_t iterations = 0;
  StopReason stop = StopReason::kMaxIterations;

  for (int restart = 0; restart < restarts; ++restart) {
    // The deadline may only end the run once an incumbent exists: the first
    // restart must initialize and take its inner-loop checks, or a tiny
    // time limit would return an empty (infeasible) solution.
    if (!best.empty() && run.Expired(&stop)) {
      break;
    }
    SearchState state = (restart == 0 && !warm.empty())
                            ? SearchState(evaluator, warm)
                            : SearchState(evaluator, rng);
    double current = run.evaluator().Quality(state.sources());
    if (current > best_quality) {
      best_quality = current;
      best = state.sources();
      run.Improved(best_quality);
    }
    // A climb ends the run only on a spent budget; converging, running out
    // of iterations or of legal moves just starts the next restart.
    StopReason climbed =
        internal::Climb(&run, rng, iters_per_restart, &state, current, &best,
                        &best_quality, &iterations);
    if (climbed == StopReason::kTimeLimit ||
        climbed == StopReason::kEvalBudget) {
      stop = climbed;
    }
  }

  return run.Finish(std::move(best), iterations, stop);
}

Result<Solution> RandomSolver::Solve(const CandidateEvaluator& evaluator,
                                     const SolverOptions& options) const {
  UBE_RETURN_IF_ERROR(internal::CheckSolvable(evaluator));
  internal::SolveScope run(evaluator, options, name());
  Rng rng(options.seed);

  std::vector<SourceId> best;
  double best_quality = -1.0;
  int64_t iterations = 0;
  StopReason stop = StopReason::kMaxIterations;
  // Warm start: the seed becomes the incumbent every sample must beat.
  std::vector<SourceId> warm = internal::ValidWarmStart(evaluator, options);
  if (!warm.empty()) {
    best_quality = run.evaluator().Quality(warm);
    best = std::move(warm);
    run.Improved(best_quality);
  }
  for (int i = 0; i < std::max(1, options.random_samples); ++i) {
    // First sample always runs so a tiny time limit still yields a feasible
    // (nonempty) incumbent.
    if (!best.empty() && run.Expired(&stop)) {
      break;
    }
    ++iterations;
    std::vector<SourceId> candidate = RandomFeasibleCandidate(evaluator, rng);
    double quality = run.evaluator().Quality(candidate);
    if (quality > best_quality) {
      best_quality = quality;
      best = std::move(candidate);
      run.Improved(best_quality);
    }
    if (run.observed()) {
      obs::IterationSample sample;
      sample.iteration = iterations;
      sample.incumbent_quality = best_quality;
      sample.neighborhood = 1;
      run.Record(sample);
    }
  }

  return run.Finish(std::move(best), iterations, stop);
}

}  // namespace ube
