#include <algorithm>
#include <cmath>
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

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// Projects a bit vector onto the feasible region: required sources forced
// in, banned sources forced out; if more than m bits are set, the
// lowest-velocity optional bits are cleared; if nothing is set, the
// highest-velocity feasible bit is turned on.
std::vector<SourceId> Repair(const std::vector<char>& bits,
                             const std::vector<double>& velocity,
                             const std::vector<char>& required,
                             const std::vector<char>& banned, int m) {
  const int n = static_cast<int>(bits.size());
  std::vector<SourceId> chosen;
  std::vector<SourceId> optional;
  for (SourceId s = 0; s < n; ++s) {
    if (required[static_cast<size_t>(s)]) {
      chosen.push_back(s);
    } else if (bits[static_cast<size_t>(s)] &&
               !banned[static_cast<size_t>(s)]) {
      optional.push_back(s);
    }
  }
  int room = m - static_cast<int>(chosen.size());
  if (static_cast<int>(optional.size()) > room) {
    std::sort(optional.begin(), optional.end(),
              [&](SourceId a, SourceId b) {
                double va = velocity[static_cast<size_t>(a)];
                double vb = velocity[static_cast<size_t>(b)];
                if (va != vb) return va > vb;
                return a < b;
              });
    optional.resize(static_cast<size_t>(std::max(0, room)));
  }
  chosen.insert(chosen.end(), optional.begin(), optional.end());
  if (chosen.empty()) {
    SourceId best = -1;
    for (SourceId s = 0; s < n; ++s) {
      if (banned[static_cast<size_t>(s)]) continue;
      if (best < 0 || velocity[static_cast<size_t>(s)] >
                          velocity[static_cast<size_t>(best)]) {
        best = s;
      }
    }
    if (best >= 0) chosen.push_back(best);
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

struct Particle {
  std::vector<double> velocity;
  std::vector<char> bits;
  std::vector<SourceId> position;      // repaired candidate
  std::vector<char> best_bits;         // personal best as bit vector
  std::vector<SourceId> best_position;
  double best_quality = -1.0;
};

}  // namespace

Result<Solution> PsoSolver::Solve(const CandidateEvaluator& evaluator,
                                  const SolverOptions& options) const {
  UBE_RETURN_IF_ERROR(internal::CheckSolvable(evaluator));
  WallTimer timer(options.clock);
  evaluator.BeginRun();
  internal::SolveScope scope(evaluator, options, name());
  Rng rng(options.seed);
  std::unique_ptr<ThreadPool> pool = internal::MakeEvalPool(options);
  DeltaEvaluator delta(evaluator, options.delta_eval);

  const int n = evaluator.universe().num_sources();
  const int m = evaluator.spec().max_sources;
  std::vector<char> required(static_cast<size_t>(n), 0);
  for (SourceId s : evaluator.required_sources()) {
    required[static_cast<size_t>(s)] = 1;
  }
  std::vector<char> banned(static_cast<size_t>(n), 0);
  for (SourceId s : evaluator.banned_sources()) {
    banned[static_cast<size_t>(s)] = 1;
  }

  const int swarm_size = std::max(2, options.swarm_size);
  std::vector<Particle> swarm(static_cast<size_t>(swarm_size));
  std::vector<char> global_best_bits(static_cast<size_t>(n), 0);
  std::vector<SourceId> global_best;
  double global_best_quality = -1.0;
  std::vector<TracePoint> trace;

  // Draft the whole swarm first (all rng draws happen here, in particle
  // order), score every position in one batch, then fold the personal and
  // global bests in particle order — deterministic for any thread count.
  std::vector<std::vector<SourceId>> positions;
  positions.reserve(swarm.size());
  for (Particle& p : swarm) {
    p.velocity.resize(static_cast<size_t>(n));
    for (double& v : p.velocity) v = rng.UniformDouble(-1.0, 1.0);
    p.bits.assign(static_cast<size_t>(n), 0);
    for (SourceId s : RandomFeasibleCandidate(evaluator, rng)) {
      p.bits[static_cast<size_t>(s)] = 1;
    }
    p.position = Repair(p.bits, p.velocity, required, banned, m);
    positions.push_back(p.position);
  }
  // Warm start: particle 0 takes the seed as its position, *after* the
  // drafting loop so the rng stream is untouched — a rejected (empty) seed
  // leaves the run bit-identical to a cold solve, and the seed's quality
  // enters the global-best fold below, guaranteeing never-worse-than-seed.
  std::vector<SourceId> warm = internal::ValidWarmStart(evaluator, options);
  if (!warm.empty()) {
    Particle& p = swarm.front();
    std::fill(p.bits.begin(), p.bits.end(), 0);
    for (SourceId s : warm) p.bits[static_cast<size_t>(s)] = 1;
    p.position = warm;
    positions.front() = std::move(warm);
  }
  std::vector<double> qualities = delta.ScoreCandidates(positions, pool.get());
  for (size_t i = 0; i < swarm.size(); ++i) {
    Particle& p = swarm[i];
    double quality = qualities[i];
    p.best_bits = p.bits;
    p.best_position = p.position;
    p.best_quality = quality;
    if (quality > global_best_quality) {
      global_best_quality = quality;
      global_best = p.position;
      global_best_bits = p.bits;
      internal::MaybeTrace(options.record_trace, evaluator,
                           global_best_quality, &trace);
    }
  }

  int64_t iterations = 0;
  int stall = 0;
  // One PSO iteration evaluates the whole swarm; scale the iteration budget
  // so the total evaluation effort matches the other solvers.
  const int pso_iterations =
      std::max(1, options.max_iterations * 32 / swarm_size);
  const int pso_stall =
      options.stall_iterations > 0
          ? std::max(1, options.stall_iterations * 32 / swarm_size)
          : 0;
  constexpr double kVelocityClamp = 6.0;
  StopReason stop = StopReason::kMaxIterations;

  for (int iter = 0; iter < pso_iterations; ++iter) {
    // Pre-dispatch deadline check (post-batch check at the bottom).
    if (internal::BudgetExpired(timer, evaluator, options, &stop)) {
      break;
    }
    if (pso_stall > 0 && stall >= pso_stall) {
      stop = StopReason::kStalled;
      break;
    }
    ++iterations;

    // Synchronous PSO step: every particle moves against the global best of
    // the previous iteration, the whole swarm is scored as one batch, and
    // bests update in particle order afterwards.
    bool improved = false;
    positions.clear();
    for (Particle& p : swarm) {
      for (int d = 0; d < n; ++d) {
        auto i = static_cast<size_t>(d);
        double r1 = rng.UniformDouble();
        double r2 = rng.UniformDouble();
        p.velocity[i] =
            options.inertia * p.velocity[i] +
            options.cognitive * r1 *
                (static_cast<double>(p.best_bits[i]) - p.bits[i]) +
            options.social * r2 *
                (static_cast<double>(global_best_bits[i]) - p.bits[i]);
        p.velocity[i] =
            std::clamp(p.velocity[i], -kVelocityClamp, kVelocityClamp);
        p.bits[i] = rng.UniformDouble() < Sigmoid(p.velocity[i]) ? 1 : 0;
      }
      p.position = Repair(p.bits, p.velocity, required, banned, m);
      positions.push_back(p.position);
    }
    qualities = delta.ScoreCandidates(positions, pool.get());
    for (size_t i = 0; i < swarm.size(); ++i) {
      Particle& p = swarm[i];
      double quality = qualities[i];
      if (quality > p.best_quality) {
        p.best_quality = quality;
        p.best_position = p.position;
        p.best_bits = p.bits;
      }
      if (quality > global_best_quality) {
        global_best_quality = quality;
        global_best = p.position;
        global_best_bits = p.bits;
        internal::MaybeTrace(options.record_trace, evaluator,
                             global_best_quality, &trace);
        improved = true;
      }
    }
    if (improved) {
      stall = 0;
    } else {
      ++stall;
    }
    if (scope.enabled()) {
      obs::IterationSample sample;
      sample.iteration = iterations;
      sample.evaluations = evaluator.num_evaluations();
      sample.incumbent_quality = global_best_quality;
      sample.neighborhood = static_cast<int32_t>(positions.size());
      sample.stall = stall;
      scope.RecordIteration(sample);
    }
    // Post-batch deadline check: this swarm step already ran and its bests
    // are folded in; stop before scoring another one.
    if (internal::BudgetExpired(timer, evaluator, options, &stop)) {
      break;
    }
  }

  return internal::FinalizeSolution(evaluator, std::move(global_best),
                                    std::string(name()), iterations, timer,
                                    stop, std::move(trace), &scope);
}

}  // namespace ube
