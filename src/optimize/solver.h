#ifndef UBE_OPTIMIZE_SOLVER_H_
#define UBE_OPTIMIZE_SOLVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "optimize/evaluator.h"
#include "optimize/problem.h"
#include "util/result.h"
#include "util/timer.h"

namespace ube {

namespace obs {
class ObsContext;
}  // namespace obs

/// Shared knobs for all solvers; each solver reads the subset it needs.
struct SolverOptions {
  /// Seed for the solver's deterministic random stream.
  uint64_t seed = 42;
  /// Hard cap on outer iterations (meaning is solver-specific).
  int max_iterations = 400;
  /// Stop after this many iterations without improving the incumbent
  /// (<= 0 disables). Ignored by exhaustive search.
  int stall_iterations = 80;
  /// Wall-clock budget in seconds (<= 0 disables).
  double time_limit_seconds = 0.0;
  /// Time source behind time_limit_seconds and elapsed_seconds. Null (the
  /// default) reads the real steady clock; tests inject a ManualClock so
  /// time-limit stops are deterministic. Not owned; must outlive Solve.
  const Clock* clock = nullptr;
  /// Hard cap on *computed* candidate evaluations (<= 0 disables). Checked
  /// at the same points as time_limit_seconds, so a run can overshoot by
  /// at most one neighborhood batch. RepairIncumbent bounds each repair
  /// with it (RepairOptions::eval_budget).
  int64_t max_evaluations = 0;
  /// Record a TracePoint in SolverStats::trace every time the incumbent
  /// improves (for convergence analysis; small overhead).
  bool record_trace = false;
  /// Worker threads for neighborhood evaluation (QualityBatch). 1 = the
  /// sequential path (default), 0 = hardware_concurrency, N = exactly N.
  /// For a fixed seed the returned Solution (sources, quality, trace,
  /// counters) is identical for every value — only wall-clock changes.
  int num_threads = 1;
  /// Optional observability context (metrics + tracing + per-iteration
  /// telemetry). Not owned; must outlive the Solve call. Null (default)
  /// disables all instrumentation — the deterministic parts of the
  /// returned Solution are byte-identical either way.
  obs::ObsContext* obs = nullptr;
  /// Warm-start seed: a candidate the search starts from instead of a
  /// random draw — typically the previous incumbent of a feedback session,
  /// repaired against the new spec (Engine::RepairSeed). Every solver
  /// guarantees the returned quality is never below the (sanitized) seed's.
  /// Ignored when empty; a seed that is infeasible under the evaluator's
  /// spec (banned member, missing required source, over m) is discarded and
  /// the run is bit-identical to a cold solve — the random stream is only
  /// consumed once the seed has been rejected.
  std::vector<SourceId> initial_incumbent;
  /// Cross-evaluator quality cache (optimize/evaluator.h). Not owned; must
  /// outlive the Solve call. When set, Engine::Solve routes the evaluator's
  /// memoization through it, so equal-spec sessions share hits and a
  /// session's repair warms its own subsequent solve. Null (default) keeps
  /// the evaluator's own per-solve cache. Solution bytes are unchanged either way
  /// unless an eval-budget stop fires (a warmer cache computes fewer
  /// evaluations, so max_evaluations cuts at a different point).
  SharedQualityCache* shared_cache = nullptr;

  // --- tabu search -----------------------------------------------------
  /// Moves sampled per iteration (0 = auto: scales with |U| and m).
  int candidate_moves = 0;

  // --- stochastic local search ------------------------------------------
  /// Number of random restarts.
  int restarts = 6;

  // --- particle swarm -----------------------------------------------------
  int swarm_size = 20;

  // --- random search -------------------------------------------------------
  /// Candidates drawn by the random-search baseline.
  int random_samples = 400;
};

/// A combinatorial optimizer for the µBE problem. Section 6: "we tried
/// using stochastic local search, particle swarm optimization, constrained
/// simulated annealing, and tabu search, and we found that tabu search gives
/// the best results" — all of those are implemented behind this interface
/// so the comparison is reproducible (bench/ablation_solvers).
class Solver {
 public:
  virtual ~Solver() = default;

  /// Runs the search and returns the best feasible solution found. Fails
  /// with kInfeasible when the constraints admit no candidate (e.g. they
  /// force more sources than m).
  virtual Result<Solution> Solve(const CandidateEvaluator& evaluator,
                                 const SolverOptions& options) const = 0;

  virtual std::string_view name() const = 0;
};

/// Known solver implementations.
enum class SolverKind {
  kTabu,        ///< tabu search (µBE's default)
  kLocalSearch, ///< stochastic hill climbing with random restarts
  kAnnealing,   ///< constrained simulated annealing
  kPso,         ///< binary particle swarm optimization
  kGreedy,      ///< greedy constructive baseline
  kRandom,      ///< uniform random sampling baseline
  kExhaustive,  ///< exact enumeration (tiny instances / tests only)
};

/// Factory for any solver kind.
std::unique_ptr<Solver> MakeSolver(SolverKind kind);

/// Display name ("tabu", "sls", ...).
std::string_view SolverKindName(SolverKind kind);

/// Capability descriptor of one solver — the unified fixture contract that
/// bench/ablation_solvers and tests/test_solver_fixture.cc check every
/// implementation against (one description per solver, checked cross-solver
/// on the same spec).
struct SolverTraits {
  SolverKind kind = SolverKind::kTabu;
  /// Incumbent trace is non-decreasing in quality (all current solvers
  /// report best-so-far traces, so this is true across the board — the
  /// fixture keeps asserting it).
  bool monotonic_trace = true;
  /// Result depends on SolverOptions::seed (false: deterministic
  /// construction/enumeration, every seed returns the same solution).
  bool randomized = true;
  /// Returns the global optimum whenever it completes (exhaustive only).
  bool exact = false;
  /// Can be truncated by time/eval budgets and still return a feasible
  /// incumbent (anytime behavior). False only for greedy, whose result is
  /// all-or-nothing per construction pass.
  bool anytime = true;
  /// Evaluation budget at which the solver reaches its typical quality on
  /// the bench workloads (the equalized budget ablation_solvers uses).
  int64_t default_eval_budget = 12'800;
  /// Worst acceptable quality gap to the exhaustive optimum on the golden
  /// small universe at default_eval_budget (fixture tolerance, not a
  /// performance promise).
  double quality_epsilon = 0.05;
};

/// The descriptor for one solver kind.
SolverTraits SolverTraitsFor(SolverKind kind);

/// Every SolverKind, in declaration order (the order benches and the
/// solver fixture report them in).
const std::vector<SolverKind>& AllSolverKinds();

}  // namespace ube

#endif  // UBE_OPTIMIZE_SOLVER_H_
