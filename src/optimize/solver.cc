#include "optimize/solver.h"

#include "optimize/solvers.h"
#include "util/check.h"

namespace ube {

std::unique_ptr<Solver> MakeSolver(SolverKind kind) {
  switch (kind) {
    case SolverKind::kTabu:
      return std::make_unique<TabuSearchSolver>();
    case SolverKind::kLocalSearch:
      return std::make_unique<LocalSearchSolver>();
    case SolverKind::kAnnealing:
      return std::make_unique<AnnealingSolver>();
    case SolverKind::kPso:
      return std::make_unique<PsoSolver>();
    case SolverKind::kGreedy:
      return std::make_unique<GreedySolver>();
    case SolverKind::kRandom:
      return std::make_unique<RandomSolver>();
    case SolverKind::kExhaustive:
      return std::make_unique<ExhaustiveSolver>();
  }
  UBE_CHECK(false, "unknown SolverKind");
  return nullptr;
}

std::string_view StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kUnknown:
      return "unknown";
    case StopReason::kMaxIterations:
      return "max-iterations";
    case StopReason::kStalled:
      return "stalled";
    case StopReason::kTimeLimit:
      return "time-limit";
    case StopReason::kEvalBudget:
      return "eval-budget";
    case StopReason::kConverged:
      return "converged";
    case StopReason::kExhausted:
      return "exhausted";
  }
  return "unknown";
}

std::string_view SolverKindName(SolverKind kind) {
  switch (kind) {
    case SolverKind::kTabu:
      return "tabu";
    case SolverKind::kLocalSearch:
      return "sls";
    case SolverKind::kAnnealing:
      return "annealing";
    case SolverKind::kPso:
      return "pso";
    case SolverKind::kGreedy:
      return "greedy";
    case SolverKind::kRandom:
      return "random";
    case SolverKind::kExhaustive:
      return "exhaustive";
  }
  return "unknown";
}

SolverTraits SolverTraitsFor(SolverKind kind) {
  SolverTraits traits;
  traits.kind = kind;
  switch (kind) {
    case SolverKind::kTabu:
      traits.quality_epsilon = 0.02;
      break;
    case SolverKind::kLocalSearch:
      traits.quality_epsilon = 0.05;
      break;
    case SolverKind::kAnnealing:
      traits.quality_epsilon = 0.10;
      break;
    case SolverKind::kPso:
      traits.quality_epsilon = 0.10;
      break;
    case SolverKind::kGreedy:
      // Deterministic single construction pass; cheap but can lock into a
      // local optimum, hence the loose epsilon.
      traits.randomized = false;
      traits.anytime = false;
      traits.default_eval_budget = 2'000;
      traits.quality_epsilon = 0.15;
      break;
    case SolverKind::kRandom:
      traits.quality_epsilon = 0.30;
      break;
    case SolverKind::kExhaustive:
      traits.randomized = false;
      traits.exact = true;
      traits.monotonic_trace = true;
      traits.quality_epsilon = 0.0;
      break;
  }
  return traits;
}

const std::vector<SolverKind>& AllSolverKinds() {
  static const std::vector<SolverKind> kinds = {
      SolverKind::kTabu,   SolverKind::kLocalSearch, SolverKind::kAnnealing,
      SolverKind::kPso,    SolverKind::kGreedy,      SolverKind::kRandom,
      SolverKind::kExhaustive,
  };
  return kinds;
}

}  // namespace ube
