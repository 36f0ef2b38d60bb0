#include <algorithm>
#include <vector>

#include "optimize/solver_internal.h"
#include "optimize/solvers.h"
#include "util/timer.h"

namespace ube {

namespace {

// Number of candidates: sum over k = 0..slots of C(pool, k). Saturates at
// kLimit + 1.
constexpr int64_t kLimit = 2'000'000;

int64_t CountCandidates(int pool, int slots) {
  int64_t total = 0;
  // C(pool, k) computed incrementally.
  double binom = 1.0;
  for (int k = 0; k <= slots && k <= pool; ++k) {
    if (k > 0) binom = binom * (pool - k + 1) / k;
    if (binom > static_cast<double>(kLimit)) return kLimit + 1;
    total += static_cast<int64_t>(binom);
    if (total > kLimit) return kLimit + 1;
  }
  return total;
}

}  // namespace

Result<Solution> ExhaustiveSolver::Solve(const CandidateEvaluator& evaluator,
                                         const SolverOptions& options) const {
  UBE_RETURN_IF_ERROR(internal::CheckSolvable(evaluator));
  WallTimer timer(options.clock);
  evaluator.BeginRun();
  internal::SolveScope scope(evaluator, options, name());
  DeltaEvaluator delta(evaluator, options.delta_eval);

  const int n = evaluator.universe().num_sources();
  const int m = evaluator.spec().max_sources;
  const std::vector<SourceId>& required = evaluator.required_sources();
  std::vector<char> is_required(static_cast<size_t>(n), 0);
  for (SourceId s : required) is_required[static_cast<size_t>(s)] = 1;

  std::vector<SourceId> pool;
  for (SourceId s = 0; s < n; ++s) {
    if (!is_required[static_cast<size_t>(s)] && !evaluator.IsBanned(s)) {
      pool.push_back(s);
    }
  }
  const int slots = m - static_cast<int>(required.size());
  if (CountCandidates(static_cast<int>(pool.size()), slots) > kLimit) {
    return Status::FailedPrecondition(
        "instance too large for exhaustive enumeration (> 2M candidates)");
  }

  std::vector<SourceId> best;
  double best_quality = -1.0;
  int64_t iterations = 0;

  // Warm start: a complete enumeration dominates any seed, but a
  // budget-truncated one must still never return worse than the seed — so
  // the seed initializes the incumbent.
  std::vector<SourceId> warm = internal::ValidWarmStart(evaluator, options);
  if (!warm.empty()) {
    best_quality = delta.Quality(warm);
    best = std::move(warm);
  }

  std::vector<SourceId> chosen;  // indices into pool, as source ids
  // Depth-first enumeration of all subsets of `pool` of size <= slots.
  auto evaluate_current = [&]() {
    std::vector<SourceId> candidate = required;
    candidate.insert(candidate.end(), chosen.begin(), chosen.end());
    std::sort(candidate.begin(), candidate.end());
    if (candidate.empty()) return;  // |S| >= 1 required
    ++iterations;
    double quality = delta.Quality(candidate);
    if (quality > best_quality) {
      best_quality = quality;
      best = std::move(candidate);
    }
    if (scope.enabled()) {
      obs::IterationSample sample;
      sample.iteration = iterations;
      sample.evaluations = evaluator.num_evaluations();
      sample.incumbent_quality = best_quality;
      sample.neighborhood = 1;
      scope.RecordIteration(sample);
    }
  };

  // Iterative stack-based subset enumeration for determinism and to avoid
  // deep recursion.
  StopReason stop = StopReason::kExhausted;
  evaluate_current();
  std::vector<size_t> stack;  // stack of pool indices forming `chosen`
  size_t next = 0;
  while (true) {
    // Exact enumeration is the slowest solver per instance, so it honors
    // the wall-clock budget too (it used to ignore it entirely); a cut
    // enumeration returns the best candidate seen so far.
    if (internal::BudgetExpired(timer, evaluator, options, &stop)) {
      break;
    }
    if (static_cast<int>(stack.size()) < slots && next < pool.size()) {
      stack.push_back(next);
      chosen.push_back(pool[next]);
      evaluate_current();
      ++next;
    } else if (!stack.empty()) {
      next = stack.back() + 1;
      stack.pop_back();
      chosen.pop_back();
      if (next >= pool.size()) {
        // Exhausted this branch; backtrack further.
        continue;
      }
    } else {
      break;
    }
    if (stack.empty() && next >= pool.size()) break;
  }

  if (best.empty()) {
    return Status::Infeasible("no feasible candidate exists");
  }
  return internal::FinalizeSolution(evaluator, std::move(best),
                                    std::string(name()), iterations, timer,
                                    stop, {}, &scope);
}

}  // namespace ube
