#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "optimize/search_state.h"
#include "optimize/solver_internal.h"
#include "optimize/solvers.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ube {

namespace {

// Annealing proposes one move at a time, which starves a parallel
// evaluator; instead each round drafts a block of moves from the current
// state, scores them in one batch, and then walks the block sequentially
// under the Metropolis rule. The first accepted move invalidates the rest
// of the block (they were proposed from the pre-move state), so the walk
// commits it and discards the remainder. Block size is a constant — it must
// not depend on num_threads, or different thread counts would take
// different walks.
constexpr int kProposalBlock = 8;

}  // namespace

Result<Solution> AnnealingSolver::Solve(const CandidateEvaluator& evaluator,
                                        const SolverOptions& options) const {
  UBE_RETURN_IF_ERROR(internal::CheckSolvable(evaluator));
  WallTimer timer(options.clock);
  evaluator.BeginRun();
  internal::SolveScope scope(evaluator, options, name());
  Rng rng(options.seed);
  std::unique_ptr<ThreadPool> pool = internal::MakeEvalPool(options);
  DeltaEvaluator scorer(evaluator, options.delta_eval);

  // Warm start: anneal from the (sanitized) seed instead of a random draw.
  // Checked before any rng use (cold fallback bit-identity).
  std::vector<SourceId> warm = internal::ValidWarmStart(evaluator, options);
  SearchState state = warm.empty() ? SearchState(evaluator, rng)
                                   : SearchState(evaluator, std::move(warm));
  double current = scorer.Quality(state.sources());
  std::vector<SourceId> best = state.sources();
  double best_quality = current;
  std::vector<TracePoint> trace;
  internal::MaybeTrace(options.record_trace, evaluator, best_quality, &trace);

  double temperature = std::max(1e-9, options.initial_temperature);
  const double cooling = std::clamp(options.cooling_rate, 0.5, 0.999999);

  int64_t iterations = 0;
  int64_t stall = 0;
  // Annealing needs more, cheaper steps than tabu: each considered move
  // evaluates one neighbour instead of a whole candidate list, so scale the
  // budget by a nominal sample size to keep the evaluation effort
  // comparable.
  const int64_t budget = static_cast<int64_t>(options.max_iterations) * 32;
  const int64_t stall_budget =
      options.stall_iterations > 0
          ? static_cast<int64_t>(options.stall_iterations) * 32
          : 0;
  std::vector<SearchState::Move> moves;
  std::vector<std::vector<SourceId>> candidates;
  bool exhausted = false;
  StopReason stop = StopReason::kMaxIterations;
  while (iterations < budget && !exhausted) {
    // Pre-dispatch deadline check (post-batch check at the bottom).
    if (internal::BudgetExpired(timer, evaluator, options, &stop)) {
      break;
    }
    if (stall_budget > 0 && stall >= stall_budget) {
      stop = StopReason::kStalled;
      break;
    }

    moves.clear();
    candidates.clear();
    const int64_t block =
        std::min<int64_t>(kProposalBlock, budget - iterations);
    for (int64_t k = 0; k < block; ++k) {
      SearchState::Move move;
      if (!state.RandomMove(rng, &move)) {
        exhausted = moves.empty();
        break;
      }
      moves.push_back(move);
      candidates.push_back(state.Apply(move));
    }
    if (moves.empty()) {
      stop = StopReason::kExhausted;
      break;
    }
    std::vector<double> qualities = scorer.ScoreNeighborhood(
        state.sources(), moves, candidates, pool.get());

    for (size_t k = 0; k < moves.size(); ++k) {
      ++iterations;
      double quality = qualities[k];
      double delta = quality - current;
      // Constrained annealing: only feasibility-preserving moves are ever
      // generated, so the Metropolis rule acts on quality alone.
      bool accept =
          delta >= 0.0 || rng.UniformDouble() < std::exp(delta / temperature);
      temperature *= cooling;
      if (!accept) {
        ++stall;
        if (stall_budget > 0 && stall >= stall_budget) break;
        continue;
      }
      state.Commit(moves[k]);
      current = quality;
      if (current > best_quality) {
        best_quality = current;
        best = state.sources();
        internal::MaybeTrace(options.record_trace, evaluator, best_quality,
                             &trace);
        stall = 0;
      } else {
        ++stall;
      }
      // The remaining proposals were drafted from the pre-move state;
      // drop them and draft a fresh block from the new state.
      break;
    }
    if (scope.enabled()) {
      obs::IterationSample sample;
      sample.iteration = iterations;
      sample.evaluations = evaluator.num_evaluations();
      sample.incumbent_quality = best_quality;
      sample.neighborhood = static_cast<int32_t>(candidates.size());
      sample.temperature = temperature;
      sample.stall = static_cast<int32_t>(
          std::min<int64_t>(stall, std::numeric_limits<int32_t>::max()));
      scope.RecordIteration(sample);
    }
    // Post-batch deadline check: the block already ran and its accepted
    // move is committed; stop before drafting another one.
    if (internal::BudgetExpired(timer, evaluator, options, &stop)) {
      break;
    }
  }
  // A drafting failure means no feasible move exists at all — terminal,
  // regardless of which budget also happened to run out.
  if (exhausted) stop = StopReason::kExhausted;

  return internal::FinalizeSolution(evaluator, std::move(best),
                                    std::string(name()), iterations, timer,
                                    stop, std::move(trace), &scope);
}

}  // namespace ube
