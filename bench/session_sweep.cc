// Session sweep: multi-tenant feedback-session throughput over one engine.
//
// Simulates N users against a SessionServer sharing one immutable universe
// + similarity-graph snapshot: each user opens a session, solves cold,
// then drives `--feedback` ban-gestures — each answered by a re-solve —
// and closes. The whole population runs on a ThreadPool (--threads users
// in flight; 0 = hardware concurrency). The sweep runs the population
// twice, warm-start off and on, over byte-identical engines: the warm axis
// repairs the previous incumbent against the edited spec and seeds the
// solver with it, the cold axis re-solves every gesture from scratch.
//
// Reported: sessions/sec per axis, p50/p99 feedback-to-new-schema latency
// (the Iterate wall time the user waits after a gesture), the fraction of
// feedback solves that actually warm-started, and the cold/warm p99 ratio.
// The default population is sized for a minutes-range run; the
// paper-scale load test is  --sessions 10000 --threads 0.
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/session_server.h"
#include "source/flaky.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace ube;
using namespace ube::bench;

namespace {

struct AxisOutcome {
  bool ok = false;
  double wall_s = 0.0;
  double sessions_per_s = 0.0;
  double p50_feedback_ms = 0.0;
  double p99_feedback_ms = 0.0;
  int64_t warm_solves = 0;
  int64_t cold_solves = 0;
  int64_t feedback_solves = 0;  // feedback-gesture Iterate attempts
  int64_t failed = 0;
  SharedQualityCache::Stats cache;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

AxisOutcome RunAxis(const Universe& universe, bool warm, int sessions,
                    int feedback, int max_sources, int pool_threads,
                    uint64_t solver_seed) {
  AxisOutcome outcome;
  SessionServer::Options options;
  // Each session solves sequentially; the concurrency in this bench is
  // users, not neighborhood threads.
  options.solver_options = BenchSolverOptions(solver_seed, /*num_threads=*/1);
  options.warm_start = warm;
  SessionServer server(
      Engine(CloneUniverse(universe), QualityModel::MakeDefault()),
      std::move(options));

  const int num_sources = server.engine().universe().num_sources();
  std::vector<std::vector<double>> latencies(static_cast<size_t>(sessions));
  std::vector<Session::Stats> stats(static_cast<size_t>(sessions));
  std::vector<int64_t> feedback_attempts(static_cast<size_t>(sessions), 0);

  WallTimer timer;
  ThreadPool pool(pool_threads);
  pool.ParallelFor(static_cast<size_t>(sessions), [&](size_t i) {
    auto [id, session] = server.Open();
    session->SetMaxSources(max_sources);
    // Distinct initial gesture per user, so the population carries distinct
    // specs (the realistic multi-tenant shape: fingerprints differ, the
    // shared cache only helps within a session's repair -> solve pair).
    (void)session->BanSource(static_cast<SourceId>(i) %
                             static_cast<SourceId>(num_sources));
    (void)session->Iterate();  // the initial (always cold) solve
    for (int f = 0; f < feedback; ++f) {
      const Solution* last = session->last();
      if (last == nullptr || last->sources.empty()) break;
      // Reject one proposed source — the canonical feedback gesture —
      // and measure the wait for the re-solved schema.
      if (!session->BanSource(last->sources.back()).ok()) break;
      ++feedback_attempts[i];
      WallTimer iterate_timer;
      if (session->Iterate().ok()) {
        latencies[i].push_back(iterate_timer.ElapsedMillis());
      }
    }
    stats[i] = session->stats();
    (void)server.Close(id);
  });
  outcome.wall_s = timer.ElapsedSeconds();

  std::vector<double> all;
  for (const std::vector<double>& per_session : latencies) {
    all.insert(all.end(), per_session.begin(), per_session.end());
  }
  for (const Session::Stats& s : stats) {
    outcome.warm_solves += s.warm_solves;
    outcome.cold_solves += s.cold_solves;
    outcome.failed += s.failed_solves;
  }
  for (int64_t attempts : feedback_attempts) {
    outcome.feedback_solves += attempts;
  }
  outcome.ok = !all.empty();
  outcome.sessions_per_s =
      outcome.wall_s > 0.0 ? static_cast<double>(sessions) / outcome.wall_s
                           : 0.0;
  outcome.p50_feedback_ms = Percentile(all, 0.50);
  outcome.p99_feedback_ms = Percentile(all, 0.99);
  outcome.cache = server.cache().stats();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  BenchHarness bench("session_sweep");
  int sessions = 512;
  int feedback = 3;
  int num_sources = 120;
  int max_sources = 8;
  bench.flags().AddInt("--sessions", "simulated users (default 512)",
                       &sessions);
  bench.flags().AddInt("--feedback",
                       "feedback gestures (re-solves) per session",
                       &feedback);
  bench.flags().AddInt("--sources", "universe size (default 120)",
                       &num_sources);
  bench.flags().AddInt("--m", "max sources per solution (default 8)",
                       &max_sources);
  bench.ParseOrExit(argc, argv);
  const BenchArgs& args = bench.args();

  std::printf("Session sweep — %d sessions x %d feedback gestures over one "
              "engine (|U|=%d, m=%d, --threads %d)\n\n",
              sessions, feedback, num_sources, max_sources, args.threads);

  GeneratedWorkload workload = MakeWorkload(num_sources, args.workload_seed);

  PrintRow({"axis", "sessions/s", "p50 fb ms", "p99 fb ms", "warm", "cold",
            "cache hit%"},
           12);
  AxisOutcome axes[2];
  for (bool warm : {false, true}) {
    AxisOutcome outcome =
        RunAxis(workload.universe, warm, sessions, feedback, max_sources,
                args.threads, args.SolverSeed());
    if (!outcome.ok) {
      std::fprintf(stderr, "axis produced no feedback latencies\n");
      return 1;
    }
    const int64_t probes = outcome.cache.hits + outcome.cache.misses;
    PrintRow({warm ? "warm" : "cold", Fmt("%.1f", outcome.sessions_per_s),
              Fmt("%.2f", outcome.p50_feedback_ms),
              Fmt("%.2f", outcome.p99_feedback_ms),
              Fmt(outcome.warm_solves), Fmt(outcome.cold_solves),
              Fmt("%.1f%%", probes > 0 ? 100.0 *
                                             static_cast<double>(
                                                 outcome.cache.hits) /
                                             static_cast<double>(probes)
                                       : 0.0)},
             12);
    axes[warm ? 1 : 0] = outcome;
  }

  const AxisOutcome& cold = axes[0];
  const AxisOutcome& warm = axes[1];
  const double p99_speedup = warm.p99_feedback_ms > 0.0
                                 ? cold.p99_feedback_ms / warm.p99_feedback_ms
                                 : 0.0;
  const int64_t warm_feedback = warm.warm_solves;
  std::printf("\nwarm-start covered %lld of %lld feedback solves; "
              "p99 feedback latency %.2fms warm vs %.2fms cold (%.2fx)\n",
              static_cast<long long>(warm_feedback),
              static_cast<long long>(warm.feedback_solves),
              warm.p99_feedback_ms, cold.p99_feedback_ms, p99_speedup);

  bench.SetMetric("sessions", static_cast<int64_t>(sessions));
  bench.SetMetric("feedback_per_session", static_cast<int64_t>(feedback));
  bench.SetMetric("sessions_per_s", warm.sessions_per_s);
  bench.SetMetric("cold_sessions_per_s", cold.sessions_per_s);
  bench.SetMetric("p50_warm_feedback_ms", warm.p50_feedback_ms);
  bench.SetMetric("p99_warm_feedback_ms", warm.p99_feedback_ms);
  bench.SetMetric("p50_cold_feedback_ms", cold.p50_feedback_ms);
  bench.SetMetric("p99_cold_feedback_ms", cold.p99_feedback_ms);
  bench.SetMetric("warm_p99_speedup_x", p99_speedup);
  bench.SetMetric("warm_solves", warm.warm_solves);
  bench.SetMetric("feedback_solves", warm.feedback_solves);
  bench.SetMetric("warm_axis_cold_solves", warm.cold_solves);
  bench.SetMetric("failed_solves", warm.failed + cold.failed);
  bench.SetMetric("cache_hits", warm.cache.hits);
  bench.SetMetric("cache_rejects", warm.cache.rejects);
  return bench.Finish();
}
