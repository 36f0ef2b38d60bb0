#include "optimize/solver_internal.h"

#include <algorithm>
#include <string>
#include <utility>

namespace ube::internal {

namespace {

constexpr double kEps = 1e-12;

// Per-iteration samples an observed run keeps; older ones are overwritten
// and counted in SolverStats::telemetry_dropped.
constexpr int kTelemetryCapacity = 4096;

}  // namespace

SolveScope::SolveScope(const CandidateEvaluator& evaluator,
                       const SolverOptions& options,
                       std::string_view solver_name)
    : timer_(options.clock),
      evaluator_(evaluator),
      options_(options),
      name_(solver_name),
      obs_(options.obs),
      delta_(evaluator, /*enable=*/true) {
  evaluator_.BeginRun();
  if (obs_ == nullptr) return;
  evaluator_.AttachObs(obs_);
  ring_ = std::make_unique<obs::TelemetryRing>(kTelemetryCapacity);
  span_ = obs_->tracer().StartSpan(std::string("solve/") +
                                   std::string(solver_name));
}

SolveScope::~SolveScope() {
  if (obs_ == nullptr) return;
  span_.End();
  evaluator_.DetachObs();
}

ThreadPool* SolveScope::pool() {
  if (!pool_built_) {
    pool_built_ = true;
    int threads = options_.num_threads == 0
                      ? ThreadPool::HardwareConcurrency()
                      : options_.num_threads;
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  }
  return pool_.get();
}

bool SolveScope::Expired(StopReason* stop) const {
  if (options_.time_limit_seconds > 0.0 &&
      timer_.ElapsedSeconds() >= options_.time_limit_seconds) {
    *stop = StopReason::kTimeLimit;
    return true;
  }
  if (options_.max_evaluations > 0 &&
      evaluator_.num_evaluations() >= options_.max_evaluations) {
    *stop = StopReason::kEvalBudget;
    return true;
  }
  return false;
}

void SolveScope::Improved(double best_quality) {
  if (!options_.record_trace) return;
  trace_.push_back(TracePoint{evaluator_.num_evaluations(), best_quality});
}

void SolveScope::Record(obs::IterationSample sample) {
  if (ring_ == nullptr) return;
  sample.evaluations = evaluator_.num_evaluations();
  ring_->Record(sample);
}

Solution SolveScope::Finish(std::vector<SourceId> best, int64_t iterations,
                            StopReason stop) {
  CandidateEvaluator::Evaluation eval = evaluator_.Evaluate(best);
  Solution solution;
  solution.sources = std::move(best);
  solution.mediated_schema = std::move(eval.match.schema);
  solution.ga_qualities = std::move(eval.match.ga_qualities);
  solution.ga_from_constraint = std::move(eval.match.ga_from_constraint);
  solution.quality = eval.quality;
  solution.breakdown = std::move(eval.breakdown);
  SolverStats& stats = solution.stats;
  stats.solver_name = std::string(name_);
  stats.iterations = iterations;
  stats.evaluations = evaluator_.num_evaluations();
  stats.cache_hits = evaluator_.num_cache_hits();
  stats.elapsed_seconds = timer_.ElapsedSeconds();
  stats.stop_reason = stop;
  stats.trace = std::move(trace_);
  if (obs_ == nullptr) return solution;
  stats.telemetry = ring_->Samples();
  stats.telemetry_dropped = ring_->dropped();
  obs_->metrics().Add(obs_->metrics().Counter(
      std::string("solver.stop.") + std::string(StopReasonName(stop))));
  stats.metrics = std::make_shared<const obs::MetricsSnapshot>(
      obs_->metrics().Snapshot());
  return solution;
}

int MovesPerIteration(const SolverOptions& options, int num_sources) {
  return options.candidate_moves > 0
             ? options.candidate_moves
             : std::min(64, std::max(24, num_sources / 8));
}

StopReason Climb(SolveScope* run, Rng& rng, int max_iterations,
                 SearchState* state, double quality,
                 std::vector<SourceId>* best, double* best_quality,
                 int64_t* iterations) {
  const int sample = MovesPerIteration(
      run->options(), run->evaluator().universe().num_sources());
  StopReason stop = StopReason::kMaxIterations;
  std::vector<SearchState::Move> moves;
  std::vector<std::vector<SourceId>> candidates;
  for (int iter = 0; iter < std::max(1, max_iterations); ++iter) {
    // Pre-dispatch budget check (post-batch check below).
    if (run->Expired(&stop)) return stop;
    ++*iterations;
    // Sample the neighborhood up front and score it as one batch; the
    // selection below takes the best improving move in index order over
    // the precomputed qualities, so any thread count gives the same walk.
    moves.clear();
    candidates.clear();
    for (int k = 0; k < sample; ++k) {
      SearchState::Move move;
      if (!state->RandomMove(rng, &move)) break;
      moves.push_back(move);
      candidates.push_back(state->Apply(move));
    }
    if (moves.empty()) return StopReason::kExhausted;
    std::vector<double> qualities = run->delta().ScoreNeighborhood(
        state->sources(), moves, candidates, run->pool());
    bool improved = false;
    SearchState::Move chosen;
    double chosen_quality = quality;
    for (size_t k = 0; k < moves.size(); ++k) {
      if (qualities[k] > chosen_quality + kEps) {
        improved = true;
        chosen = moves[k];
        chosen_quality = qualities[k];
      }
    }
    if (improved) {
      state->Commit(chosen);
      quality = chosen_quality;
      if (quality > *best_quality) {
        *best_quality = quality;
        *best = state->sources();
        run->Improved(quality);
      }
    }
    if (run->observed()) {
      obs::IterationSample point;
      point.iteration = *iterations;
      point.incumbent_quality = *best_quality;
      point.neighborhood = static_cast<int32_t>(candidates.size());
      run->Record(point);
    }
    // Post-batch budget check: the batch already ran, so fold its result
    // (above) but do not dispatch another one past the budget.
    if (run->Expired(&stop)) return stop;
    if (!improved) return StopReason::kConverged;
  }
  return stop;
}

Status CheckSolvable(const CandidateEvaluator& evaluator) {
  if (evaluator.universe().empty()) {
    return Status::Infeasible("the universe contains no sources");
  }
  return Status::Ok();
}

std::vector<SourceId> ValidWarmStart(const CandidateEvaluator& evaluator,
                                     const SolverOptions& options) {
  if (options.initial_incumbent.empty()) return {};
  std::vector<SourceId> seed = options.initial_incumbent;
  std::sort(seed.begin(), seed.end());
  seed.erase(std::unique(seed.begin(), seed.end()), seed.end());
  const int num_sources = evaluator.universe().num_sources();
  for (SourceId s : seed) {
    if (s < 0 || s >= num_sources || evaluator.IsBanned(s)) return {};
  }
  const std::vector<SourceId>& required = evaluator.required_sources();
  if (!std::includes(seed.begin(), seed.end(), required.begin(),
                     required.end())) {
    return {};
  }
  if (static_cast<int>(seed.size()) > evaluator.spec().max_sources) return {};
  return seed;
}

}  // namespace ube::internal
