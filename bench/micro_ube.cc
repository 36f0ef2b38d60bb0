// google-benchmark micro-benchmarks for the µBE building blocks: string
// similarity, PCSA operations, the similarity-graph build, Match(S)
// clustering, and full candidate evaluation. These are the per-call costs
// that the figure benches aggregate.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "core/engine.h"
#include "matching/cluster_matcher.h"
#include "matching/similarity_graph.h"
#include "optimize/delta_evaluator.h"
#include "optimize/evaluator.h"
#include "optimize/search_state.h"
#include "qef/qef.h"
#include "sketch/pcsa.h"
#include "source/flaky.h"
#include "text/ngram.h"
#include "text/similarity.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

ube::GeneratedWorkload& SharedWorkload() {
  static auto* workload = [] {
    ube::WorkloadConfig config;
    config.num_sources = 200;
    config.scale = 0.01;
    return new ube::GeneratedWorkload(ube::GenerateWorkload(config));
  }();
  return *workload;
}

void BM_NgramJaccard(benchmark::State& state) {
  ube::NgramSet a = ube::NgramSet::Build("publication year", 3);
  ube::NgramSet b = ube::NgramSet::Build("year of publication", 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Jaccard(b));
  }
}
BENCHMARK(BM_NgramJaccard);

void BM_NgramBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ube::NgramSet::Build("publication year", 3));
  }
}
BENCHMARK(BM_NgramBuild);

void BM_LevenshteinScore(benchmark::State& state) {
  ube::LevenshteinSimilarity sim;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.Score("publication year", "year of publication"));
  }
}
BENCHMARK(BM_LevenshteinScore);

void BM_PcsaAdd(benchmark::State& state) {
  ube::PcsaSketch sketch(64);
  uint64_t i = 0;
  for (auto _ : state) {
    sketch.AddHash(++i);
  }
  benchmark::DoNotOptimize(sketch.Estimate());
}
BENCHMARK(BM_PcsaAdd);

void BM_PcsaEstimate(benchmark::State& state) {
  ube::PcsaSketch sketch(static_cast<int>(state.range(0)));
  ube::Rng rng(1);
  for (int i = 0; i < 100000; ++i) sketch.AddHash(rng.Next64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Estimate());
  }
}
BENCHMARK(BM_PcsaEstimate)->Arg(64)->Arg(256)->Arg(1024);

void BM_PcsaMerge20(benchmark::State& state) {
  ube::Rng rng(2);
  std::vector<ube::PcsaSketch> sketches;
  for (int s = 0; s < 20; ++s) {
    ube::PcsaSketch sketch(64);
    for (int i = 0; i < 5000; ++i) sketch.AddHash(rng.Next64());
    sketches.push_back(sketch);
  }
  for (auto _ : state) {
    ube::PcsaSketch merged(64);
    for (const auto& sketch : sketches) merged.Merge(sketch);
    benchmark::DoNotOptimize(merged.Estimate());
  }
}
BENCHMARK(BM_PcsaMerge20);

void BM_SimilarityGraphBuild(benchmark::State& state) {
  auto& workload = SharedWorkload();
  for (auto _ : state) {
    ube::SimilarityGraph graph =
        ube::SimilarityGraph::WithDefaults(workload.universe, 0.25);
    benchmark::DoNotOptimize(graph.num_names());
  }
}
BENCHMARK(BM_SimilarityGraphBuild)->Unit(benchmark::kMillisecond);

// The same build with every attribute renamed to a distinct name (its old
// name plus a unique number), so interning names saves nothing and each
// attribute pair's score is computed once.
void BM_SimilarityGraphBuildDistinctNames(benchmark::State& state) {
  static auto* universe = [] {
    auto* distinct =
        new ube::Universe(ube::CloneUniverse(SharedWorkload().universe));
    int next = 0;
    for (ube::SourceId s = 0; s < distinct->num_sources(); ++s) {
      ube::SourceSchema* schema = distinct->mutable_source(s)->mutable_schema();
      for (int a = 0; a < schema->num_attributes(); ++a) {
        schema->RenameAttribute(
            a, schema->attribute_name(a) + " " + std::to_string(next++));
      }
    }
    return distinct;
  }();
  for (auto _ : state) {
    ube::SimilarityGraph graph =
        ube::SimilarityGraph::WithDefaults(*universe, 0.25);
    benchmark::DoNotOptimize(graph.num_names());
  }
}
BENCHMARK(BM_SimilarityGraphBuildDistinctNames)
    ->Unit(benchmark::kMillisecond);

void BM_Match20Sources(benchmark::State& state) {
  auto& workload = SharedWorkload();
  static auto* graph = new ube::SimilarityGraph(
      ube::SimilarityGraph::WithDefaults(workload.universe, 0.25));
  ube::ClusterMatcher matcher(workload.universe, *graph);
  std::vector<ube::SourceId> sources;
  for (ube::SourceId s = 0; s < 200; s += 10) sources.push_back(s);
  ube::MatchOptions options;
  for (auto _ : state) {
    auto result = matcher.Match(sources, {}, {}, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_Match20Sources)->Unit(benchmark::kMicrosecond);

// The same S (sources 0, 10, ..., 190) in a universe five times larger:
// Match gathers its θ-edges from the name rows of S's names, so its cost
// follows S, not |U|.
void BM_Match20SourcesU1000(benchmark::State& state) {
  static auto* workload = [] {
    ube::WorkloadConfig config;
    config.num_sources = 1000;
    config.scale = 0.01;
    return new ube::GeneratedWorkload(ube::GenerateWorkload(config));
  }();
  static auto* graph = new ube::SimilarityGraph(
      ube::SimilarityGraph::WithDefaults(workload->universe, 0.25));
  ube::ClusterMatcher matcher(workload->universe, *graph);
  std::vector<ube::SourceId> sources;
  for (ube::SourceId s = 0; s < 200; s += 10) sources.push_back(s);
  ube::MatchOptions options;
  for (auto _ : state) {
    auto result = matcher.Match(sources, {}, {}, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_Match20SourcesU1000)->Unit(benchmark::kMicrosecond);

void BM_CandidateEvaluation(benchmark::State& state) {
  auto& workload = SharedWorkload();
  static auto* engine = new ube::Engine(
      [] {
        ube::WorkloadConfig config;
        config.num_sources = 200;
        config.scale = 0.01;
        auto w = ube::GenerateWorkload(config);
        return std::move(w.universe);
      }(),
      ube::QualityModel::MakeDefault());
  (void)workload;
  ube::ProblemSpec spec;
  spec.max_sources = 20;
  std::vector<ube::SourceId> candidate;
  for (ube::SourceId s = 0; s < 200; s += 10) candidate.push_back(s);
  for (auto _ : state) {
    auto evaluation = engine->EvaluateCandidate(spec, candidate);
    benchmark::DoNotOptimize(evaluation.ok());
  }
}
BENCHMARK(BM_CandidateEvaluation)->Unit(benchmark::kMicrosecond);

void BM_WorkloadGeneration(benchmark::State& state) {
  for (auto _ : state) {
    ube::WorkloadConfig config;
    config.num_sources = static_cast<int>(state.range(0));
    config.scale = 0.01;
    auto workload = ube::GenerateWorkload(config);
    benchmark::DoNotOptimize(workload.universe.num_sources());
  }
}
BENCHMARK(BM_WorkloadGeneration)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

// The four data QEFs — the same model shape the delta oracle tests use, and
// the one whose flips never run Match(S).
ube::QualityModel DataOnlyModel() {
  ube::QualityModel model;
  model.AddQef(std::make_unique<ube::CardinalityQef>(), 0.4);
  model.AddQef(std::make_unique<ube::CoverageQef>(), 0.3);
  model.AddQef(std::make_unique<ube::RedundancyQef>(), 0.2);
  model.AddQef(std::make_unique<ube::CharacteristicQef>(
                   "mttf", ube::Aggregation::kWeightedSum),
               0.1);
  return model;
}

// Single-flip evaluation throughput: one seeded tabu-style move stream over
// a `num_sources`-source universe with candidates of up to `m` sources,
// each flip scored as a one-move neighborhood — through DeltaEvaluator's
// incremental path and (unless --delta restricts the sweep) through the
// full QualityBatch path. Both paths score from the evaluator's tables; the
// full path takes each flip's sketch union from scratch (|S| word ORs, or
// Clone+MergeFrom), the delta path from the base's prefix/suffix unions.
// A model with a matching QEF runs Match(S) per flip on both paths.
// Identical rng streams give identical candidate sequences, cache behavior
// included, so the ratio is a pure per-flip-cost comparison. Emits
// flip_<tag>delta_per_s and, on the default two-sided run,
// flip_<tag>full_per_s + delta_flip_speedup<_tag>.
void RunFlipSweep(ube::bench::BenchHarness& bench, bool delta_only,
                  int num_sources, int m, const ube::QualityModel& model,
                  const std::string& tag) {
  ube::WorkloadConfig config;
  config.num_sources = num_sources;
  config.scale = 0.01;
  ube::GeneratedWorkload workload = ube::GenerateWorkload(config);
  ube::SimilarityGraph graph =
      ube::SimilarityGraph::WithDefaults(workload.universe, 0.25);
  ube::ClusterMatcher matcher(workload.universe, graph);
  ube::ProblemSpec spec;
  spec.max_sources = m;
  ube::CandidateEvaluator evaluator(workload.universe, matcher, model, spec);

  constexpr int kFlips = 4000;
  auto sweep = [&](bool use_delta) {
    ube::DeltaEvaluator delta(evaluator, use_delta);
    evaluator.BeginRun();
    ube::Rng rng(bench.args().SolverSeed(913));
    ube::SearchState state(evaluator, rng);
    std::vector<ube::SearchState::Move> moves(1);
    std::vector<std::vector<ube::SourceId>> candidates(1);
    double sink = 0.0;
    for (int i = 0; i < kFlips; ++i) {
      if (!state.RandomMove(rng, &moves[0])) break;
      candidates[0] = state.Apply(moves[0]);
      sink += delta.ScoreNeighborhood(state.sources(), moves, candidates,
                                      /*pool=*/nullptr)[0];
      // Commit occasionally so the sweep pays realistic rebase costs.
      if (i % 8 == 7) state.Commit(moves[0]);
    }
    benchmark::DoNotOptimize(sink);
  };

  const std::string prefix = tag.empty() ? "flip_" : "flip_" + tag + "_";
  const std::string label = tag.empty() ? "" : " " + tag;
  const double delta_ms =
      bench.TimeMs(prefix + "delta", [&] { sweep(true); });
  const double delta_per_s = delta_ms > 0.0 ? kFlips / (delta_ms / 1e3) : 0.0;
  bench.SetMetric(prefix + "delta_per_s", delta_per_s);
  std::printf("flip sweep%s (delta): %d flips in %.2f ms (%.0f flips/s)\n",
              label.c_str(), kFlips, delta_ms, delta_per_s);
  if (delta_only) return;
  const double full_ms = bench.TimeMs(prefix + "full", [&] { sweep(false); });
  const double full_per_s = full_ms > 0.0 ? kFlips / (full_ms / 1e3) : 0.0;
  bench.SetMetric(prefix + "full_per_s", full_per_s);
  const double speedup = delta_ms > 0.0 ? full_ms / delta_ms : 0.0;
  bench.SetMetric(tag.empty() ? "delta_flip_speedup"
                              : "delta_flip_speedup_" + tag,
                  speedup);
  std::printf(
      "flip sweep%s (full):  %d flips in %.2f ms (%.0f flips/s) — "
      "delta speedup %.1fx\n",
      label.c_str(), kFlips, full_ms, full_per_s, speedup);
}

// Console output as usual, plus every benchmark's per-iteration real time
// harvested into the harness as `<name>_ns` for BENCH_micro_ube.json.
class MetricReporter : public benchmark::ConsoleReporter {
 public:
  explicit MetricReporter(ube::bench::BenchHarness* bench)
      : bench_(bench) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.iterations <= 0) continue;
      std::string key = run.benchmark_name();
      for (char& c : key) {
        if (c == '/' || c == ':') c = '_';
      }
      const double ns_per_iter = run.real_accumulated_time /
                                 static_cast<double>(run.iterations) * 1e9;
      bench_->SetMetric(key + "_ns", ns_per_iter);
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  ube::bench::BenchHarness* bench_;
};

}  // namespace

int main(int argc, char** argv) {
  ube::bench::BenchHarness bench("micro_ube");
  bool delta_only = false;
  bench.flags().AddBool(
      "--delta",
      "flip sweep: time the incremental delta path only (default times "
      "both paths and records delta_flip_speedup)",
      &delta_only);
  // Harness flags first; --benchmark_* (and anything else) passes through
  // to google-benchmark's own parser.
  bench.ParseKnownOrExit(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  MetricReporter reporter(&bench);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // Data-only model at paper scale (|U| = 1000, m = 20), then the paper's
  // default model at the feedback_default shape (|U| = 200, m = 10).
  RunFlipSweep(bench, delta_only, 1000, 20, DataOnlyModel(), "");
  RunFlipSweep(bench, delta_only, 200, 10, ube::QualityModel::MakeDefault(),
               "default");
  return bench.Finish();
}
