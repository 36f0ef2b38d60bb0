#include <algorithm>
#include <memory>
#include <vector>

#include "optimize/search_state.h"
#include "optimize/solver_internal.h"
#include "optimize/solvers.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ube {

namespace {

constexpr double kEps = 1e-12;

}  // namespace

Result<Solution> GreedySolver::Solve(const CandidateEvaluator& evaluator,
                                     const SolverOptions& options) const {
  UBE_RETURN_IF_ERROR(internal::CheckSolvable(evaluator));
  WallTimer timer(options.clock);
  evaluator.BeginRun();
  internal::SolveScope scope(evaluator, options, name());
  std::unique_ptr<ThreadPool> pool = internal::MakeEvalPool(options);
  DeltaEvaluator delta(evaluator, options.delta_eval);

  const int n = evaluator.universe().num_sources();
  const int m = evaluator.spec().max_sources;

  std::vector<SourceId> current = evaluator.required_sources();
  // Treating banned sources as permanent members of nothing: mark them
  // "used" so the augmentation loop never considers them.
  std::vector<char> member(static_cast<size_t>(n), 0);
  for (SourceId s : current) member[static_cast<size_t>(s)] = 1;
  std::vector<char> excluded(static_cast<size_t>(n), 0);
  for (SourceId s : evaluator.banned_sources()) {
    excluded[static_cast<size_t>(s)] = 1;
  }

  int64_t iterations = 0;
  std::vector<TracePoint> trace;

  // Warm start: greedy construction is deterministic and can land below a
  // good incumbent, so score the seed up front and return whichever of
  // (seed, constructed) is better — never worse than the seed.
  std::vector<SourceId> warm = internal::ValidWarmStart(evaluator, options);
  double warm_quality = -1.0;
  if (!warm.empty()) warm_quality = delta.Quality(warm);

  // Seed: if no constraints, start from the best single source. All the
  // singletons are scored as one batch; ties keep the lowest id, as the
  // sequential scan did.
  if (current.empty()) {
    std::vector<SourceId> seeds;
    std::vector<std::vector<SourceId>> candidates;
    for (SourceId s = 0; s < n; ++s) {
      if (excluded[static_cast<size_t>(s)]) continue;
      seeds.push_back(s);
      candidates.push_back({s});
    }
    std::vector<double> qualities =
        delta.ScoreCandidates(candidates, pool.get());
    SourceId best_seed = -1;
    double best_quality = -1.0;
    for (size_t i = 0; i < seeds.size(); ++i) {
      if (qualities[i] > best_quality) {
        best_quality = qualities[i];
        best_seed = seeds[i];
      }
    }
    UBE_CHECK(best_seed >= 0, "no unbanned source available");
    current.push_back(best_seed);
    member[static_cast<size_t>(best_seed)] = 1;
  }
  double current_quality = delta.Quality(current);

  // Greedy augmentation: always add the best marginal source. Additions are
  // accepted even when the marginal gain is non-positive as long as *some*
  // source improves over the rest — Q is typically monotone in |S| through
  // the Card/Coverage terms, but an invalid Match can make all extensions
  // score 0; in that case we keep the incumbent and stop.
  // Construction that runs to completion (reaches m, or no extension
  // improves) converged; only the wall clock can cut it short.
  StopReason stop = StopReason::kConverged;
  while (static_cast<int>(current.size()) < m) {
    ++iterations;
    // Pre-dispatch deadline check (post-batch check at the bottom).
    if (internal::BudgetExpired(timer, evaluator, options, &stop)) {
      break;
    }
    // Score every feasible one-source extension as a single batch, then
    // replay the sequential lowest-id-first selection over the results.
    std::vector<SourceId> adds;
    std::vector<SearchState::Move> moves;
    std::vector<std::vector<SourceId>> candidates;
    for (SourceId s = 0; s < n; ++s) {
      if (member[static_cast<size_t>(s)] || excluded[static_cast<size_t>(s)]) {
        continue;
      }
      std::vector<SourceId> candidate = current;
      candidate.insert(
          std::lower_bound(candidate.begin(), candidate.end(), s), s);
      adds.push_back(s);
      moves.push_back(
          SearchState::Move{SearchState::Move::Kind::kAdd, s, -1});
      candidates.push_back(std::move(candidate));
    }
    std::vector<double> qualities =
        delta.ScoreNeighborhood(current, moves, candidates, pool.get());
    bool found = false;
    SourceId best_add = -1;
    double best_quality = current_quality;
    for (size_t i = 0; i < adds.size(); ++i) {
      if (qualities[i] > best_quality + kEps) {
        best_quality = qualities[i];
        best_add = adds[i];
        found = true;
      }
    }
    if (found) {
      current.insert(
          std::lower_bound(current.begin(), current.end(), best_add),
          best_add);
      member[static_cast<size_t>(best_add)] = 1;
      current_quality = best_quality;
      internal::MaybeTrace(options.record_trace, evaluator, current_quality,
                           &trace);
    }
    if (scope.enabled()) {
      obs::IterationSample sample;
      sample.iteration = iterations;
      sample.evaluations = evaluator.num_evaluations();
      sample.incumbent_quality = current_quality;
      sample.neighborhood = static_cast<int32_t>(candidates.size());
      scope.RecordIteration(sample);
    }
    if (!found) break;  // construction converged — the true stop cause even
                        // if the clock also just ran out
    // Post-batch deadline check: fold the extension we just paid for, then
    // stop before scoring another round.
    if (internal::BudgetExpired(timer, evaluator, options, &stop)) {
      break;
    }
  }

  if (!warm.empty() && warm_quality > current_quality) {
    current = std::move(warm);
  }
  return internal::FinalizeSolution(evaluator, std::move(current),
                                    std::string(name()), iterations, timer,
                                    stop, std::move(trace), &scope);
}

}  // namespace ube
