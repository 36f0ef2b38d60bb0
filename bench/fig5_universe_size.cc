// Figure 5: execution time of µBE choosing 20 sources from universes of
// 100-700 sources, under the paper's five constraint sets.
//
// Paper shape: time grows with |U|; adding constraints *reduces* time
// (they restrict the search space / shrink it structurally).
//
// The match-us column is the median cost of one Match(S) call over a fixed,
// seeded set of m = 20 candidates at the default θ: the per-evaluation cost
// of the paper's default model, which should stay flat as |U| grows.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ube;
using namespace ube::bench;

namespace {

// Median µs of Match over kCandidates random 20-source candidates drawn
// from `rng`; -1 when a call fails.
double MedianMatchMicros(const Engine& engine, int num_sources, Rng rng) {
  constexpr int kCandidates = 500;
  const MatchOptions options;
  std::vector<double> micros;
  std::vector<SourceId> candidate;
  for (int c = 0; c < kCandidates; ++c) {
    candidate.clear();
    while (candidate.size() < 20) {
      const SourceId s = static_cast<SourceId>(
          rng.UniformInt(static_cast<uint64_t>(num_sources)));
      if (std::find(candidate.begin(), candidate.end(), s) ==
          candidate.end()) {
        candidate.push_back(s);
      }
    }
    WallTimer timer;
    const bool ok = engine.matcher().Match(candidate, {}, {}, options).ok();
    micros.push_back(timer.ElapsedSeconds() * 1e6);
    if (!ok) return -1.0;
  }
  std::nth_element(micros.begin(), micros.begin() + kCandidates / 2,
                   micros.end());
  return micros[kCandidates / 2];
}

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("fig5_universe_size");
  bench.ParseOrExit(argc, argv);
  const BenchArgs& args = bench.args();
  WallTimer total;
  std::printf("Figure 5 — execution time (s) vs universe size "
              "(choose m=20, tabu search)\n");
  std::printf("columns: universe size | one column per constraint set\n\n");
  PrintRow({"|U|", "none", "1 src", "3 src", "5 src", "5 src+2 GA",
            "graph-build", "match-us"});

  for (int n = 100; n <= 700; n += 100) {
    GeneratedWorkload workload = MakeWorkload(n, args.workload_seed);
    std::vector<ConstraintSet> sets = PaperConstraintSets(workload);

    WallTimer build_timer;
    Engine engine(std::move(workload.universe), QualityModel::MakeDefault());
    double build_seconds = build_timer.ElapsedSeconds();

    std::vector<std::string> row = {Fmt(static_cast<int64_t>(n))};
    for (const ConstraintSet& cs : sets) {
      ProblemSpec spec;
      spec.max_sources = 20;
      spec.source_constraints = cs.sources;
      spec.ga_constraints = cs.gas;
      WallTimer timer;
      Result<Solution> solution = engine.Solve(
          spec, SolverKind::kTabu,
          BenchSolverOptions(args.SolverSeed(), args.threads));
      double seconds = timer.ElapsedSeconds();
      if (!solution.ok()) {
        row.push_back("ERR");
        continue;
      }
      if (n == 700 && cs.sources.empty() && cs.gas.empty()) {
        bench.SetMetric("solve_700_none_ms", seconds * 1e3);
        bench.SetMetric("q_700_none", solution->quality);
      }
      row.push_back(Fmt("%.2f", seconds));
    }
    if (n == 700) bench.SetMetric("graph_build_700_ms", build_seconds * 1e3);
    row.push_back(Fmt("%.2f", build_seconds));
    const double match_us = MedianMatchMicros(
        engine, n, Rng(args.workload_seed ^ static_cast<uint64_t>(n)));
    if (n == 100 || n == 700) {
      bench.SetMetric("match_" + std::to_string(n) + "_us", match_us);
    }
    row.push_back(Fmt("%.1f", match_us));
    PrintRow(row);
  }
  std::printf(
      "\n(graph-build = one-time similarity-graph precomputation per "
      "universe, amortized across all iterations of a µBE session;\n"
      " match-us = median µs of one Match(S) over 500 seeded m=20 "
      "candidates)\n");
  bench.SetMetric("wall_ms", total.ElapsedMillis());
  return bench.Finish();
}
