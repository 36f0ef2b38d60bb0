// Section 6/7 claim: "we tried using stochastic local search, particle
// swarm optimization, constrained simulated annealing, and tabu search,
// and we found that tabu search gives the best results ... more robust and
// generates higher quality solutions".
//
// This ablation runs every registered solver (via AllSolverKinds()) on
// identical instances with a matched evaluation budget and reports mean/min
// quality and time over seeds.
// --repeat N controls the seeds per randomized solver (default 5);
// deterministic solvers (per SolverTraitsFor) run once.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "util/timer.h"

using namespace ube;
using namespace ube::bench;

namespace {

// Exhaustive cannot finish m=20-of-200 within any sane budget; skip it.
std::vector<SolverKind> AblationKinds() {
  std::vector<SolverKind> kinds;
  for (SolverKind kind : AllSolverKinds()) {
    if (!SolverTraitsFor(kind).exact) kinds.push_back(kind);
  }
  return kinds;
}

struct SolverSummary {
  double mean_q = 0.0;
  double min_q = 1.0;
  double max_q = 0.0;
  double mean_seconds = 0.0;
  int64_t mean_evals = 0;
};

void RunInstance(const BenchArgs& args, int seeds, Engine& engine,
                 const ProblemSpec& spec,
                 std::vector<std::pair<SolverKind, SolverSummary>>* out) {
  PrintRow({"solver", "mean Q", "min Q", "max Q", "mean time(s)",
            "mean evals"});
  for (SolverKind kind : AblationKinds()) {
    const SolverTraits traits = SolverTraitsFor(kind);
    double sum_q = 0.0, min_q = 1.0, max_q = 0.0, sum_t = 0.0;
    int64_t sum_evals = 0;
    int runs = 0;
    for (uint64_t seed = 1; seed <= static_cast<uint64_t>(seeds); ++seed) {
      SolverOptions options =
          BenchSolverOptions(args.SolverSeed(seed), args.threads);
      // Equalized effort: every solver gets the same nominal budget of
      // ~400x32 candidate evaluations and the same patience.
      options.max_iterations = 400;
      options.stall_iterations = 120;
      options.candidate_moves = 32;
      // Deterministic solvers (greedy: m*N evaluations, argmax) run once.
      if (!traits.randomized && seed > 1) break;
      WallTimer timer;
      Result<Solution> solution = engine.Solve(spec, kind, options);
      double seconds = timer.ElapsedSeconds();
      if (!solution.ok()) continue;
      ++runs;
      sum_q += solution->quality;
      min_q = std::min(min_q, solution->quality);
      max_q = std::max(max_q, solution->quality);
      sum_t += seconds;
      sum_evals += solution->stats.evaluations;
    }
    if (runs == 0) continue;
    SolverSummary summary;
    summary.mean_q = sum_q / runs;
    summary.min_q = min_q;
    summary.max_q = max_q;
    summary.mean_seconds = sum_t / runs;
    summary.mean_evals = sum_evals / runs;
    if (out != nullptr) out->emplace_back(kind, summary);
    PrintRow({std::string(SolverKindName(kind)),
              Fmt("%.4f", summary.mean_q), Fmt("%.4f", summary.min_q),
              Fmt("%.4f", summary.max_q),
              Fmt("%.2f", summary.mean_seconds),
              Fmt(summary.mean_evals)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("ablation_solvers");
  bench.set_default_repeat(5);
  bench.ParseOrExit(argc, argv);
  const BenchArgs& args = bench.args();
  const int seeds = bench.Repeat();
  WallTimer total;
  std::printf("Solver ablation — choose 20 of 200, %d seeds per solver, "
              "matched budgets\n", seeds);
  GeneratedWorkload workload = MakeWorkload(200, args.workload_seed);
  std::vector<ConstraintSet> sets = PaperConstraintSets(workload);
  Engine engine(std::move(workload.universe), QualityModel::MakeDefault());

  std::printf("\n-- unconstrained --\n");
  ProblemSpec spec;
  spec.max_sources = 20;
  std::vector<std::pair<SolverKind, SolverSummary>> summaries;
  RunInstance(args, seeds, engine, spec, &summaries);

  std::printf("\n-- 5 source + 2 GA constraints --\n");
  ProblemSpec constrained = spec;
  constrained.source_constraints = sets.back().sources;
  constrained.ga_constraints = sets.back().gas;
  RunInstance(args, seeds, engine, constrained, nullptr);

  std::printf("\n(paper: tabu search is the most robust and highest "
              "quality; random is the floor)\n");

  double q_best = 0.0;
  int64_t evals = 0;
  for (const auto& [kind, summary] : summaries) {
    std::string name(SolverKindName(kind));
    bench.SetMetric("q_mean_" + name, summary.mean_q);
    bench.SetMetric("time_mean_" + name + "_ms",
                    summary.mean_seconds * 1e3);
    q_best = std::max(q_best, summary.max_q);
    evals += summary.mean_evals;
  }
  bench.SetMetric("q_best", q_best);
  bench.SetMetric("evals", evals);
  bench.SetMetric("wall_ms", total.ElapsedMillis());
  return bench.Finish();
}
