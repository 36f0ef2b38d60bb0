#include "optimize/repair.h"

#include <algorithm>
#include <utility>

#include "optimize/search_state.h"
#include "optimize/solver.h"
#include "optimize/solver_internal.h"
#include "util/rng.h"

namespace ube {

namespace {

/// SolverOptions view of the repair knobs, so the run's budgets, pool and
/// observability behave exactly as they do for full solvers.
SolverOptions AsSolverOptions(const RepairOptions& options) {
  SolverOptions solver;
  solver.seed = options.seed;
  solver.max_iterations = options.max_iterations;
  solver.max_evaluations = options.eval_budget;
  solver.candidate_moves = options.candidate_moves;
  solver.num_threads = options.num_threads;
  solver.clock = options.clock;
  solver.obs = options.obs;
  solver.stall_iterations = 0;  // convergence is the natural stop
  return solver;
}

}  // namespace

RepairBudgetController::RepairBudgetController(
    int64_t base_budget, const AdaptiveRepairOptions& options)
    : options_(options),
      budget_(std::clamp(base_budget, options.min_eval_budget,
                         options.max_eval_budget)),
      ring_(std::max(1, options.window)) {}

void RepairBudgetController::Record(int64_t evaluations_used, bool repaired,
                                    bool quality_escalated, bool wipeout) {
  obs::IterationSample sample;
  sample.iteration = ++batches_;
  sample.evaluations = evaluations_used;
  sample.stall = quality_escalated ? 1 : 0;
  ring_.Record(sample);

  if (wipeout) {
    // The whole incumbent was evicted — no repair budget would have saved
    // it, so the outcome says nothing about the budget's size.
    cheap_streak_ = 0;
    return;
  }
  if (quality_escalated) {
    cheap_streak_ = 0;
    budget_ = std::min(options_.max_eval_budget, budget_ * 2);
  } else if (repaired && evaluations_used * 2 <= budget_) {
    if (++cheap_streak_ >= std::max(1, options_.shrink_after)) {
      cheap_streak_ = 0;
      budget_ = std::max(options_.min_eval_budget, budget_ * 3 / 4);
    }
  } else {
    cheap_streak_ = 0;
  }

  // Sustained escalation pressure overrides the gradual policy: when at
  // least half the trailing window escalated, run repairs wide open.
  const std::vector<obs::IterationSample> recent = ring_.Samples();
  int escalations = 0;
  for (const obs::IterationSample& s : recent) escalations += s.stall;
  if (static_cast<int64_t>(recent.size()) >= options_.window &&
      escalations * 2 >= static_cast<int>(recent.size())) {
    budget_ = options_.max_eval_budget;
  }
}

RepairResult RepairIncumbent(const CandidateEvaluator& evaluator,
                             const std::vector<SourceId>& incumbent,
                             const RepairOptions& options) {
  RepairResult result;
  const int n = evaluator.universe().num_sources();
  const int m = evaluator.spec().max_sources;

  // Sanitize: drop everything the current spec evicts, dedup, then re-add
  // newly required sources and clamp back to m (dropping non-required
  // members from the high end — deterministic and order-free).
  std::vector<SourceId> damaged;
  for (SourceId s : incumbent) {
    if (s >= 0 && s < n && !evaluator.IsBanned(s)) damaged.push_back(s);
  }
  std::sort(damaged.begin(), damaged.end());
  damaged.erase(std::unique(damaged.begin(), damaged.end()), damaged.end());
  result.evicted =
      static_cast<int>(incumbent.size()) - static_cast<int>(damaged.size());
  const std::vector<SourceId>& required = evaluator.required_sources();
  for (SourceId s : required) {
    auto it = std::lower_bound(damaged.begin(), damaged.end(), s);
    if (it == damaged.end() || *it != s) damaged.insert(it, s);
  }
  if (static_cast<int>(damaged.size()) > m) {
    std::vector<SourceId> clamped;
    int excess = static_cast<int>(damaged.size()) - m;
    for (auto it = damaged.rbegin(); it != damaged.rend(); ++it) {
      if (excess > 0 &&
          !std::binary_search(required.begin(), required.end(), *it)) {
        --excess;
        continue;
      }
      clamped.push_back(*it);
    }
    std::reverse(clamped.begin(), clamped.end());
    damaged = std::move(clamped);
  }
  if (damaged.empty() || static_cast<int>(damaged.size()) > m) {
    return result;  // seeded == false: nothing (feasible) to repair from
  }
  result.seeded = true;

  const SolverOptions solver_options = AsSolverOptions(options);
  internal::SolveScope run(evaluator, solver_options, "repair");
  Rng rng(solver_options.seed);
  SearchState state(evaluator, damaged);
  result.seed_quality = run.evaluator().Quality(state.sources());
  std::vector<SourceId> best = state.sources();
  double best_quality = result.seed_quality;
  int64_t iterations = 0;
  // The seed is already an incumbent, so unlike a full solver the climb
  // needs no first-pass guard against an early budget stop.
  StopReason stop =
      internal::Climb(&run, rng, solver_options.max_iterations, &state,
                      result.seed_quality, &best, &best_quality, &iterations);
  result.solution = run.Finish(std::move(best), iterations, stop);
  return result;
}

}  // namespace ube
