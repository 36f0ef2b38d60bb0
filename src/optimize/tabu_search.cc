#include <algorithm>
#include <vector>

#include "optimize/search_state.h"
#include "optimize/solver_internal.h"
#include "optimize/solvers.h"
#include "util/rng.h"

namespace ube {

namespace {

constexpr double kEps = 1e-12;

// Consecutive intensification restarts that fail to improve the incumbent
// before the search gives up. Each restart gets a full `restart_after`
// window, so with stall_iterations = s this terminates after roughly
// kMaxUnproductiveRestarts * s/3 ≈ s non-improving iterations — the
// patience the option asks for, now spent on restarts that actually
// explore instead of being cut short by a stall counter that survived the
// restart (the pre-fix behavior).
constexpr int kMaxUnproductiveRestarts = 3;

}  // namespace

Result<Solution> TabuSearchSolver::Solve(const CandidateEvaluator& evaluator,
                                         const SolverOptions& options) const {
  UBE_RETURN_IF_ERROR(internal::CheckSolvable(evaluator));
  internal::SolveScope run(evaluator, options, name());
  Rng rng(options.seed);

  const int n = evaluator.universe().num_sources();
  // Tabu tenure in iterations, growing slowly with |U|.
  const int tenure = 7 + n / 50;
  const int sample = internal::MovesPerIteration(options, n);

  // Warm start: begin from the (sanitized) seed instead of a random draw.
  // Checked before any rng use, so a rejected seed leaves the run
  // bit-identical to a cold solve.
  std::vector<SourceId> warm = internal::ValidWarmStart(evaluator, options);
  SearchState state = warm.empty() ? SearchState(evaluator, rng)
                                   : SearchState(evaluator, std::move(warm));
  double current_quality = run.evaluator().Quality(state.sources());
  std::vector<SourceId> best = state.sources();
  double best_quality = current_quality;
  run.Improved(best_quality);

  // tabu_add_until[s]: iterations before which re-adding s is tabu
  // (set when s is dropped); tabu_drop_until[s]: before which dropping s
  // is tabu (set when s is added).
  std::vector<int> tabu_add_until(static_cast<size_t>(n), -1);
  std::vector<int> tabu_drop_until(static_cast<size_t>(n), -1);

  int64_t iterations = 0;
  int stall = 0;
  // Intensification: after `restart_after` non-improving iterations the
  // search jumps back to the incumbent with fresh tabu memory and explores
  // its neighborhood again from scratch. Both `stall` and `since_restart`
  // reset on restart so every restart gets its own exploration budget;
  // overall patience is bounded by kMaxUnproductiveRestarts instead.
  const int restart_after =
      options.stall_iterations > 0
          ? std::max(8, options.stall_iterations / 3)
          : options.max_iterations;
  int since_restart = 0;
  int unproductive_restarts = 0;
  bool improved_since_restart = false;
  StopReason stop = StopReason::kMaxIterations;
  std::vector<SearchState::Move> moves;
  std::vector<std::vector<SourceId>> candidates;
  // Telemetry is assembled only when observability is attached: counting
  // the tabu lists is O(n) per iteration.
  auto record_iteration = [&](int iter, size_t neighborhood) {
    if (!run.observed()) return;
    obs::IterationSample sample;
    sample.iteration = iterations;
    sample.incumbent_quality = best_quality;
    sample.neighborhood = static_cast<int32_t>(neighborhood);
    int occupancy = 0;
    for (int until : tabu_add_until) occupancy += iter < until ? 1 : 0;
    for (int until : tabu_drop_until) occupancy += iter < until ? 1 : 0;
    sample.tabu_occupancy = occupancy;
    sample.stall = stall;
    run.Record(sample);
  };
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Pre-dispatch deadline check (see also the post-batch check below).
    if (run.Expired(&stop)) {
      break;
    }
    if (options.stall_iterations > 0 && stall >= options.stall_iterations) {
      stop = StopReason::kStalled;
      break;
    }
    if (since_restart >= restart_after) {
      if (improved_since_restart) {
        unproductive_restarts = 0;
      } else if (++unproductive_restarts >= kMaxUnproductiveRestarts) {
        stop = StopReason::kStalled;
        break;
      }
      state.Reset(best);
      current_quality = best_quality;
      std::fill(tabu_add_until.begin(), tabu_add_until.end(), -1);
      std::fill(tabu_drop_until.begin(), tabu_drop_until.end(), -1);
      since_restart = 0;
      stall = 0;
      improved_since_restart = false;
    }
    ++iterations;

    // Sample the whole candidate list up front, score it in one batch
    // (concurrently when a pool is configured), then pick the winner with
    // the same first-best-in-index-order rule the sequential loop used —
    // the result is bit-identical for any thread count.
    moves.clear();
    candidates.clear();
    for (int k = 0; k < sample; ++k) {
      SearchState::Move move;
      if (!state.RandomMove(rng, &move)) break;
      moves.push_back(move);
      candidates.push_back(state.Apply(move));
    }
    std::vector<double> qualities = run.delta().ScoreNeighborhood(
        state.sources(), moves, candidates, run.pool());

    bool have_move = false;
    SearchState::Move chosen;
    double chosen_quality = 0.0;
    for (size_t k = 0; k < moves.size(); ++k) {
      const SearchState::Move& move = moves[k];
      bool tabu = false;
      if (move.kind != SearchState::Move::Kind::kDrop &&
          iter < tabu_add_until[static_cast<size_t>(move.in)]) {
        tabu = true;
      }
      if (move.kind != SearchState::Move::Kind::kAdd &&
          iter < tabu_drop_until[static_cast<size_t>(move.out)]) {
        tabu = true;
      }
      double quality = qualities[k];
      // Aspiration: a tabu move that beats the incumbent is admissible.
      if (tabu && quality <= best_quality + kEps) continue;
      if (!have_move || quality > chosen_quality) {
        have_move = true;
        chosen = move;
        chosen_quality = quality;
      }
    }

    if (!have_move) {
      ++stall;
      ++since_restart;
      record_iteration(iter, candidates.size());
      // Post-batch deadline check: the batch we just paid for may have
      // overshot the budget; stop now instead of sampling another one.
      if (run.Expired(&stop)) {
        break;
      }
      continue;
    }

    // Commit the best admissible move even when it worsens the current
    // solution — that is what lets tabu search climb out of local optima.
    state.Commit(chosen);
    current_quality = chosen_quality;
    if (chosen.kind != SearchState::Move::Kind::kDrop) {
      tabu_drop_until[static_cast<size_t>(chosen.in)] = iter + tenure;
    }
    if (chosen.kind != SearchState::Move::Kind::kAdd) {
      tabu_add_until[static_cast<size_t>(chosen.out)] = iter + tenure;
    }

    if (current_quality > best_quality + kEps) {
      best_quality = current_quality;
      best = state.sources();
      run.Improved(best_quality);
      stall = 0;
      since_restart = 0;
      improved_since_restart = true;
      unproductive_restarts = 0;
    } else {
      ++stall;
      ++since_restart;
    }
    record_iteration(iter, candidates.size());
    // Post-batch deadline check: fold the batch's result (above), then stop
    // before dispatching another batch past the budget.
    if (run.Expired(&stop)) {
      break;
    }
  }

  return run.Finish(std::move(best), iterations, stop);
}

}  // namespace ube
