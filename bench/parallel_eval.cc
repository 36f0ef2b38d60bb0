// Neighborhood-evaluation throughput of CandidateEvaluator::QualityBatch
// on the paper-scale 200-source universe: cache-cold batches of sampled
// tabu neighborhoods, scored at 1/2/4/8 threads. Also cross-checks that the
// parallel results are bit-identical to the sequential ones, and reports an
// end-to-end tabu run at each thread count.
//
// Note: the speedup column only shows parallel gain on a multi-core host;
// on a single hardware thread the batch path degenerates gracefully to
// roughly sequential throughput.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "optimize/delta_evaluator.h"
#include "optimize/search_state.h"
#include "qef/qef.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace ube;
using namespace ube::bench;

namespace {

// One tabu-style neighborhood sweep: `batches` rounds of `sample` moves
// from an evolving search state. Returns candidates per second.
double MeasureThroughput(const CandidateEvaluator& evaluator, int threads,
                         int batches, int sample,
                         std::vector<double>* qualities_out) {
  evaluator.BeginRun();
  std::unique_ptr<ThreadPool> pool =
      threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  Rng rng(123);
  SearchState state(evaluator, rng);
  qualities_out->clear();
  int64_t scored = 0;
  WallTimer timer;
  for (int b = 0; b < batches; ++b) {
    std::vector<SearchState::Move> moves;
    std::vector<std::vector<SourceId>> candidates;
    for (int k = 0; k < sample; ++k) {
      SearchState::Move move;
      if (!state.RandomMove(rng, &move)) break;
      moves.push_back(move);
      candidates.push_back(state.Apply(move));
    }
    std::vector<double> qualities =
        evaluator.QualityBatch(candidates, pool.get());
    scored += static_cast<int64_t>(qualities.size());
    qualities_out->insert(qualities_out->end(), qualities.begin(),
                          qualities.end());
    // Walk like tabu would: commit the best sampled move.
    size_t best = 0;
    for (size_t k = 1; k < qualities.size(); ++k) {
      if (qualities[k] > qualities[best]) best = k;
    }
    if (!moves.empty()) state.Commit(moves[best]);
  }
  double seconds = timer.ElapsedSeconds();
  return seconds > 0.0 ? static_cast<double>(scored) / seconds : 0.0;
}

// Same sweep through DeltaEvaluator (the solvers' flip-scoring front end).
// With use_delta the one-move neighborhoods take the incremental path; off,
// every call forwards to QualityBatch — scores are bit-identical either way.
double MeasureDeltaThroughput(const CandidateEvaluator& evaluator,
                              bool use_delta, int batches, int sample,
                              std::vector<double>* qualities_out) {
  evaluator.BeginRun();
  DeltaEvaluator delta(evaluator, use_delta);
  Rng rng(123);
  SearchState state(evaluator, rng);
  qualities_out->clear();
  int64_t scored = 0;
  WallTimer timer;
  for (int b = 0; b < batches; ++b) {
    std::vector<SearchState::Move> moves;
    std::vector<std::vector<SourceId>> candidates;
    for (int k = 0; k < sample; ++k) {
      SearchState::Move move;
      if (!state.RandomMove(rng, &move)) break;
      moves.push_back(move);
      candidates.push_back(state.Apply(move));
    }
    std::vector<double> qualities =
        delta.ScoreNeighborhood(state.sources(), moves, candidates, nullptr);
    scored += static_cast<int64_t>(qualities.size());
    qualities_out->insert(qualities_out->end(), qualities.begin(),
                          qualities.end());
    size_t best = 0;
    for (size_t k = 1; k < qualities.size(); ++k) {
      if (qualities[k] > qualities[best]) best = k;
    }
    if (!moves.empty()) state.Commit(moves[best]);
  }
  double seconds = timer.ElapsedSeconds();
  return seconds > 0.0 ? static_cast<double>(scored) / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("parallel_eval");
  bool delta_only = false;
  bench.flags().AddBool(
      "--delta",
      "delta section: time the incremental path only (default times both "
      "paths and cross-checks bit-identity)",
      &delta_only);
  bench.ParseOrExit(argc, argv);
  const BenchArgs& args = bench.args();
  WallTimer total;
  std::printf("QualityBatch throughput — 200 sources, choose 20, "
              "64-move neighborhoods, cache-cold per configuration\n");
  std::printf("(hardware threads available: %d)\n\n",
              ThreadPool::HardwareConcurrency());

  GeneratedWorkload workload = MakeWorkload(200, args.workload_seed);
  Engine engine(std::move(workload.universe), QualityModel::MakeDefault());
  ProblemSpec spec;
  spec.max_sources = 20;
  CandidateEvaluator evaluator(engine.universe(), engine.matcher(),
                               engine.quality_model(), spec);

  const int kBatches = 24;
  const int kSample = 64;
  std::vector<double> reference;
  double base = MeasureThroughput(evaluator, 1, kBatches, kSample, &reference);
  bench.SetMetric("cand_per_s_t1", base);

  bool all_identical = true;
  PrintRow({"threads", "cand/s", "speedup", "identical"});
  PrintRow({"1", Fmt("%.1f", base), "1.00x", "ref"});
  for (int threads : {2, 4, 8}) {
    std::vector<double> qualities;
    double rate =
        MeasureThroughput(evaluator, threads, kBatches, kSample, &qualities);
    bool identical = qualities == reference;
    all_identical = all_identical && identical;
    if (threads == 8) bench.SetMetric("cand_per_s_t8", rate);
    PrintRow({Fmt(static_cast<int64_t>(threads)), Fmt("%.1f", rate),
              Fmt("%.2f", base > 0.0 ? rate / base : 0.0) + "x",
              identical ? "yes" : "NO"});
  }
  bench.SetMetric("batch_identical", static_cast<int64_t>(all_identical));

  // Delta axis: single-flip neighborhoods on a data-only model, where no
  // flip runs Match(S), so the delta path's union saving is the whole cost
  // difference.
  std::printf("\nSingle-flip scoring, data-only model (--delta axis):\n");
  QualityModel data_model;
  data_model.AddQef(std::make_unique<CardinalityQef>(), 0.4);
  data_model.AddQef(std::make_unique<CoverageQef>(), 0.3);
  data_model.AddQef(std::make_unique<RedundancyQef>(), 0.2);
  data_model.AddQef(std::make_unique<CharacteristicQef>(
                        "mttf", Aggregation::kWeightedSum),
                    0.1);
  CandidateEvaluator flip_evaluator(engine.universe(), engine.matcher(),
                                    data_model, spec);
  PrintRow({"path", "cand/s", "speedup", "identical"});
  std::vector<double> delta_scores;
  double delta_rate = MeasureDeltaThroughput(flip_evaluator, true, kBatches,
                                             kSample, &delta_scores);
  bench.SetMetric("delta_cand_per_s", delta_rate);
  if (delta_only) {
    PrintRow({"delta", Fmt("%.1f", delta_rate), "-", "-"});
  } else {
    std::vector<double> full_scores;
    double full_rate = MeasureDeltaThroughput(flip_evaluator, false, kBatches,
                                              kSample, &full_scores);
    bool delta_identical = delta_scores == full_scores;
    bench.SetMetric("delta_off_cand_per_s", full_rate);
    bench.SetMetric("delta_speedup",
                    full_rate > 0.0 ? delta_rate / full_rate : 0.0);
    bench.SetMetric("delta_identical", static_cast<int64_t>(delta_identical));
    PrintRow({"full", Fmt("%.1f", full_rate), "1.00x", "ref"});
    PrintRow({"delta", Fmt("%.1f", delta_rate),
              Fmt("%.2f", full_rate > 0.0 ? delta_rate / full_rate : 0.0) +
                  "x",
              delta_identical ? "yes" : "NO"});
    if (!delta_identical) {
      std::printf("ERROR: delta scores diverged from the full path\n");
      return 1;
    }
  }

  std::printf("\nEnd-to-end tabu search (seed 1), same instance:\n");
  PrintRow({"threads", "time(s)", "quality", "evals"});
  std::vector<SourceId> reference_sources;
  for (int threads : {1, 8}) {
    SolverOptions options = BenchSolverOptions(args.SolverSeed(1), threads);
    options.max_iterations = 120;
    options.stall_iterations = 60;
    WallTimer timer;
    Result<Solution> solution =
        engine.Solve(spec, SolverKind::kTabu, options);
    double seconds = timer.ElapsedSeconds();
    if (!solution.ok()) continue;
    if (threads == 1) {
      reference_sources = solution->sources;
      bench.SetMetric("tabu_t1_ms", seconds * 1e3);
      bench.SetMetric("q_best", solution->quality);
      bench.SetMetric("evals", solution->stats.evaluations);
    }
    PrintRow({Fmt(static_cast<int64_t>(threads)), Fmt("%.2f", seconds),
              Fmt("%.4f", solution->quality),
              Fmt(solution->stats.evaluations)});
    if (threads != 1 && solution->sources != reference_sources) {
      std::printf("ERROR: parallel run diverged from sequential run\n");
      return 1;
    }
  }
  std::printf("\n(solutions are bit-identical across thread counts by "
              "construction)\n");
  bench.SetMetric("wall_ms", total.ElapsedMillis());
  return bench.Finish();
}
