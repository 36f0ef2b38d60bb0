// Tests for the fault-tolerant source acquisition layer: backoff schedule,
// circuit-breaker state machine, deterministic fault injection, the prober
// end-to-end (including the 200-source / 30%-transient acceptance scenario)
// and graceful degradation through the QEFs and the engine.
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/change_feed.h"
#include "core/engine.h"
#include "core/report.h"
#include "core/session.h"
#include "source/live_universe.h"
#include "qef/qef.h"
#include "qef/quality_model.h"
#include "sketch/distinct_estimator.h"
#include "source/flaky.h"
#include "source/prober.h"
#include "source/universe.h"
#include "util/backoff.h"
#include "util/fault_injection.h"
#include "workload/generator.h"

namespace ube {
namespace {

// ------------------------------- backoff -------------------------------

TEST(BackoffTest, DeterministicForSameSeed) {
  BackoffPolicy policy;
  BackoffSchedule a(policy, Rng(7));
  BackoffSchedule b(policy, Rng(7));
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(a.NextDelayMs(), b.NextDelayMs()) << "delay " << i;
  }
  EXPECT_EQ(a.num_delays(), 16);
}

TEST(BackoffTest, DifferentSeedsDiverge) {
  BackoffPolicy policy;
  BackoffSchedule a(policy, Rng(7));
  BackoffSchedule b(policy, Rng(8));
  bool any_differ = false;
  for (int i = 0; i < 16; ++i) {
    if (a.NextDelayMs() != b.NextDelayMs()) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(BackoffTest, DelaysStayWithinBaseAndCap) {
  BackoffPolicy policy;
  policy.base_delay_ms = 10.0;
  policy.max_delay_ms = 200.0;
  policy.multiplier = 3.0;
  BackoffSchedule schedule(policy, Rng(3));
  for (int i = 0; i < 100; ++i) {
    double delay = schedule.NextDelayMs();
    EXPECT_GE(delay, policy.base_delay_ms);
    EXPECT_LE(delay, policy.max_delay_ms);
  }
}

TEST(BackoffTest, ZeroMultiplierDegeneratesToConstantBase) {
  BackoffPolicy policy;
  policy.base_delay_ms = 25.0;
  policy.multiplier = 0.0;  // window collapses: hi == lo == base
  BackoffSchedule schedule(policy, Rng(1));
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(schedule.NextDelayMs(), 25.0);
  }
}

// ---------------------------- circuit breaker ----------------------------

TEST(CircuitBreakerTest, TripsAfterThresholdConsecutiveFailures) {
  CircuitBreaker::Options options;
  options.trip_threshold = 3;
  options.cooldown_ms = 100.0;
  CircuitBreaker breaker(options);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(0.0);
  breaker.RecordFailure(1.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(2.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.num_trips(), 1);
  EXPECT_DOUBLE_EQ(breaker.open_until_ms(), 102.0);
  EXPECT_FALSE(breaker.AllowRequest(50.0));
}

TEST(CircuitBreakerTest, HalfOpenAfterCooldownThenClosesOnSuccess) {
  CircuitBreaker::Options options;
  options.trip_threshold = 1;
  options.cooldown_ms = 100.0;
  CircuitBreaker breaker(options);
  breaker.RecordFailure(0.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(breaker.AllowRequest(100.0));  // cool-down over: half-open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.num_trips(), 1);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopensImmediately) {
  CircuitBreaker::Options options;
  options.trip_threshold = 3;
  options.cooldown_ms = 100.0;
  CircuitBreaker breaker(options);
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(0.0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  ASSERT_TRUE(breaker.AllowRequest(100.0));
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  // One failure — not trip_threshold — reopens from half-open.
  breaker.RecordFailure(100.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.num_trips(), 2);
  EXPECT_DOUBLE_EQ(breaker.open_until_ms(), 200.0);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailures) {
  CircuitBreaker::Options options;
  options.trip_threshold = 3;
  CircuitBreaker breaker(options);
  breaker.RecordFailure(0.0);
  breaker.RecordFailure(1.0);
  breaker.RecordSuccess();
  breaker.RecordFailure(2.0);
  breaker.RecordFailure(3.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.num_trips(), 0);
}

// ----------------------------- fault plans -----------------------------

TEST(FaultPlanTest, DecideIsPureAndDeterministic) {
  FaultRates rates;
  rates.transient = 0.4;
  rates.timeout = 0.2;
  rates.stale = 0.2;
  FaultPlan plan(99, rates);
  uint64_t key = FaultPlan::KeyFor("books-src-5");
  for (int attempt = 0; attempt < 8; ++attempt) {
    FaultDecision a = plan.Decide(key, attempt);
    FaultDecision b = plan.Decide(key, attempt);
    EXPECT_EQ(a.kind, b.kind) << "attempt " << attempt;
    EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
    EXPECT_DOUBLE_EQ(a.staleness, b.staleness);
  }
}

TEST(FaultPlanTest, ZeroRatesNeverInjectAndAreDisabled) {
  FaultPlan plan(1234, FaultRates{});
  EXPECT_FALSE(plan.enabled());
  for (int attempt = 0; attempt < 4; ++attempt) {
    FaultDecision d = plan.Decide(FaultPlan::KeyFor("anything"), attempt);
    EXPECT_EQ(d.kind, FaultKind::kNone);
  }
  EXPECT_TRUE(FaultPlan().rates().AllZero());
}

TEST(FaultPlanTest, StickyFaultsPersistAcrossAttempts) {
  FaultRates permanent;
  permanent.permanent = 1.0;
  FaultPlan gone(5, permanent);
  FaultRates stale_rates;
  stale_rates.stale = 1.0;
  FaultPlan stale(5, stale_rates);
  uint64_t key = FaultPlan::KeyFor("sticky-source");
  double first_staleness = stale.Decide(key, 0).staleness;
  EXPECT_GT(first_staleness, 0.0);
  for (int attempt = 0; attempt < 5; ++attempt) {
    EXPECT_EQ(gone.Decide(key, attempt).kind, FaultKind::kPermanent);
    FaultDecision d = stale.Decide(key, attempt);
    EXPECT_EQ(d.kind, FaultKind::kStale);
    EXPECT_DOUBLE_EQ(d.staleness, first_staleness);  // per-source, sticky
  }
}

TEST(FaultPlanTest, RatesFromEnvOverridesTransient) {
  FaultRates defaults;
  defaults.transient = 0.05;
  ::setenv(FaultPlan::kFaultRateEnvVar, "0.3", 1);
  FaultRates from_env = FaultPlan::RatesFromEnv(defaults);
  EXPECT_DOUBLE_EQ(from_env.transient, 0.3);
  EXPECT_GT(from_env.timeout, 0.0);
  ::setenv(FaultPlan::kFaultRateEnvVar, "7.5", 1);  // clamped to [0, 1]
  EXPECT_LE(FaultPlan::RatesFromEnv(defaults).transient, 1.0);
  ::unsetenv(FaultPlan::kFaultRateEnvVar);
  EXPECT_DOUBLE_EQ(FaultPlan::RatesFromEnv(defaults).transient, 0.05);
}

// ------------------------------- prober --------------------------------

DataSource MakeSource(const std::string& name,
                      std::vector<std::string> attributes, int64_t cardinality,
                      int64_t first_tuple = 0) {
  DataSource source(name, SourceSchema(std::move(attributes)));
  source.set_cardinality(cardinality);
  auto signature = std::make_unique<ExactSignature>();
  for (int64_t t = 0; t < cardinality; ++t) signature->Add(first_tuple + t);
  source.set_signature(std::move(signature));
  source.SetCharacteristic("mttf", 5.0 + static_cast<double>(cardinality));
  return source;
}

std::vector<std::unique_ptr<ProbeTarget>> MakeTargets(
    const std::vector<const DataSource*>& sources, const FaultPlan* plan) {
  std::vector<std::unique_ptr<ProbeTarget>> targets;
  for (const DataSource* source : sources) {
    auto inner = std::make_unique<InMemoryProbeTarget>(CloneSource(*source));
    if (plan != nullptr && plan->enabled()) {
      targets.push_back(
          std::make_unique<FlakyProbeTarget>(std::move(inner), plan));
    } else {
      targets.push_back(std::move(inner));
    }
  }
  return targets;
}

TEST(ProberTest, CleanNetworkAcquiresEverythingFresh) {
  DataSource a = MakeSource("a", {"title", "author"}, 40);
  DataSource b = MakeSource("b", {"title", "isbn"}, 60, 20);
  SourceProber prober;
  Result<Acquisition> acquired = prober.Acquire(MakeTargets({&a, &b}, nullptr));
  ASSERT_TRUE(acquired.ok()) << acquired.status();
  const Universe& universe = acquired->universe;
  ASSERT_EQ(universe.num_sources(), 2);
  EXPECT_EQ(universe.num_available(), 2);
  EXPECT_EQ(universe.source(0).name(), "a");
  EXPECT_EQ(universe.source(1).cardinality(), 60);
  EXPECT_TRUE(universe.source(0).stats_fresh());
  const AcquisitionReport& report = acquired->report;
  EXPECT_EQ(report.num_acquired(), 2);
  EXPECT_EQ(report.num_dropped(), 0);
  EXPECT_EQ(report.num_degraded(), 0);
  for (const SourceAcquisition& acq : report.sources) {
    EXPECT_EQ(acq.outcome, AcquisitionOutcome::kAcquired);
    EXPECT_EQ(acq.attempts, 1);
    EXPECT_TRUE(acq.status.ok());
  }
}

TEST(ProberTest, PermanentFailureDropsAfterOneAttempt) {
  DataSource a = MakeSource("healthy", {"x"}, 10);
  DataSource b = MakeSource("gone", {"y"}, 10);
  FaultRates rates;
  rates.permanent = 1.0;
  FaultPlan plan(11, rates);
  // Only "gone" goes through the flaky wrapper.
  std::vector<std::unique_ptr<ProbeTarget>> targets;
  targets.push_back(
      std::make_unique<InMemoryProbeTarget>(CloneSource(a)));
  targets.push_back(std::make_unique<FlakyProbeTarget>(
      std::make_unique<InMemoryProbeTarget>(CloneSource(b)), &plan));
  SourceProber prober;
  Result<Acquisition> acquired = prober.Acquire(std::move(targets));
  ASSERT_TRUE(acquired.ok()) << acquired.status();
  EXPECT_EQ(acquired->universe.num_available(), 1);
  EXPECT_EQ(acquired->universe.UnavailableIds(), std::vector<SourceId>{1});
  // The shell keeps the name and id slot but is unavailable and stat-less.
  const DataSource& shell = acquired->universe.source(1);
  EXPECT_EQ(shell.name(), "gone");
  EXPECT_FALSE(shell.available());
  EXPECT_EQ(shell.stats_state(), StatsState::kMissing);
  const SourceAcquisition& acq = acquired->report.sources[1];
  EXPECT_EQ(acq.outcome, AcquisitionOutcome::kDropped);
  EXPECT_EQ(acq.attempts, 1);  // permanent: no pointless retries
  EXPECT_EQ(acq.status.code(), StatusCode::kNotFound);
}

TEST(ProberTest, AllSourcesDroppedIsACleanError) {
  DataSource a = MakeSource("a", {"x"}, 10);
  FaultRates rates;
  rates.permanent = 1.0;
  FaultPlan plan(1, rates);
  SourceProber prober;
  Result<Acquisition> acquired = prober.Acquire(MakeTargets({&a}, &plan));
  ASSERT_FALSE(acquired.ok());
  EXPECT_EQ(acquired.status().code(), StatusCode::kUnavailable);
}

TEST(ProberTest, StaleAndTruncatedDegradeButAcquire) {
  DataSource a = MakeSource("stale-one", {"x"}, 10);
  FaultRates stale_rates;
  stale_rates.stale = 1.0;
  FaultPlan stale_plan(2, stale_rates);
  SourceProber prober;
  Result<Acquisition> stale = prober.Acquire(MakeTargets({&a}, &stale_plan));
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->report.sources[0].outcome,
            AcquisitionOutcome::kAcquiredStale);
  EXPECT_GT(stale->report.sources[0].staleness, 0.0);
  EXPECT_EQ(stale->universe.source(0).stats_state(), StatsState::kStale);
  EXPECT_TRUE(stale->universe.source(0).has_signature());

  FaultRates trunc_rates;
  trunc_rates.truncated = 1.0;
  FaultPlan trunc_plan(2, trunc_rates);
  Result<Acquisition> trunc = prober.Acquire(MakeTargets({&a}, &trunc_plan));
  ASSERT_TRUE(trunc.ok());
  EXPECT_EQ(trunc->report.sources[0].outcome,
            AcquisitionOutcome::kAcquiredPartial);
  EXPECT_EQ(trunc->universe.source(0).stats_state(), StatsState::kPartial);
  EXPECT_FALSE(trunc->universe.source(0).has_signature());
  EXPECT_EQ(trunc->universe.source(0).cardinality(), 10);  // survived
}

TEST(ProberTest, PersistentTransientsTripTheBreaker) {
  DataSource a = MakeSource("flapping", {"x"}, 10);
  FaultRates rates;
  rates.transient = 1.0;
  FaultPlan plan(21, rates);
  ProberOptions options;
  options.backoff.max_attempts = 6;
  options.breaker.trip_threshold = 2;
  options.breaker.cooldown_ms = 100.0;
  SourceProber prober(options);
  Result<Acquisition> acquired = prober.Acquire(MakeTargets({&a}, &plan));
  ASSERT_FALSE(acquired.ok());  // the only source dropped
  // Re-probe keeping the report: wrap in a second healthy source.
  DataSource b = MakeSource("healthy", {"y"}, 10);
  std::vector<std::unique_ptr<ProbeTarget>> targets;
  targets.push_back(std::make_unique<FlakyProbeTarget>(
      std::make_unique<InMemoryProbeTarget>(CloneSource(a)), &plan));
  targets.push_back(std::make_unique<InMemoryProbeTarget>(CloneSource(b)));
  Result<Acquisition> mixed = prober.Acquire(std::move(targets));
  ASSERT_TRUE(mixed.ok());
  const SourceAcquisition& acq = mixed->report.sources[0];
  EXPECT_EQ(acq.outcome, AcquisitionOutcome::kDropped);
  EXPECT_EQ(acq.attempts, options.backoff.max_attempts);
  EXPECT_GE(acq.breaker_trips, 1);
  EXPECT_FALSE(acq.status.ok());
}

// Identical fault plan + seed => identical acquisition, for any thread
// count: the replay contract of the acquisition layer.
TEST(ProberTest, ReplayIsBitIdenticalAcrossThreadCounts) {
  WorkloadConfig config;
  config.num_sources = 24;
  config.seed = 99;
  config.scale = 0.002;
  GeneratedWorkload workload = GenerateWorkload(config);
  std::vector<const DataSource*> sources;
  for (SourceId s = 0; s < workload.universe.num_sources(); ++s) {
    sources.push_back(&workload.universe.source(s));
  }
  FaultRates rates;
  rates.transient = 0.4;
  rates.timeout = 0.15;
  rates.permanent = 0.05;
  rates.stale = 0.1;
  rates.truncated = 0.1;
  FaultPlan plan(4242, rates);

  auto run = [&](int num_threads) {
    ProberOptions options;
    options.num_threads = num_threads;
    options.seed = 7;
    SourceProber prober(options);
    Result<Acquisition> acquired = prober.Acquire(MakeTargets(sources, &plan));
    EXPECT_TRUE(acquired.ok()) << acquired.status();
    return std::move(acquired).value();
  };
  Acquisition sequential = run(1);
  Acquisition threaded = run(4);
  ASSERT_EQ(sequential.report.sources.size(), threaded.report.sources.size());
  for (size_t i = 0; i < sequential.report.sources.size(); ++i) {
    const SourceAcquisition& a = sequential.report.sources[i];
    const SourceAcquisition& b = threaded.report.sources[i];
    EXPECT_EQ(a.outcome, b.outcome) << a.name;
    EXPECT_EQ(a.attempts, b.attempts) << a.name;
    EXPECT_DOUBLE_EQ(a.elapsed_ms, b.elapsed_ms) << a.name;
    EXPECT_DOUBLE_EQ(a.staleness, b.staleness) << a.name;
    EXPECT_EQ(a.breaker_trips, b.breaker_trips) << a.name;
  }
  ASSERT_EQ(sequential.universe.num_sources(), threaded.universe.num_sources());
  for (SourceId s = 0; s < sequential.universe.num_sources(); ++s) {
    EXPECT_EQ(sequential.universe.source(s).cardinality(),
              threaded.universe.source(s).cardinality());
    EXPECT_EQ(sequential.universe.source(s).available(),
              threaded.universe.source(s).available());
  }
}

// ----------------------- degradation in the QEFs -----------------------

// Universe: two cooperating sources with disjoint tuples.
Universe TwoSourceUniverse() {
  Universe universe;
  universe.AddSource(MakeSource("fresh", {"title", "author"}, 100, 0));
  universe.AddSource(MakeSource("shaky", {"title", "isbn"}, 300, 100));
  return universe;
}

QualityModel CardinalityOnlyModel(DegradationPolicy policy,
                                  double stale_discount = 0.5) {
  QualityModel model;
  model.AddQef(std::make_unique<CardinalityQef>(), 1.0);
  DegradationOptions options;
  options.policy = policy;
  options.stale_discount = stale_discount;
  model.set_degradation(options);
  return model;
}

double CardinalityScore(const Universe& universe, const QualityModel& model) {
  std::vector<SourceId> both = {0, 1};
  EvalContext ctx = model.MakeContext(universe, both, nullptr);
  return model.Evaluate(ctx).overall;
}

TEST(DegradationTest, PoliciesAgreeWhenEverythingIsFresh) {
  Universe universe = TwoSourceUniverse();
  for (DegradationPolicy policy :
       {DegradationPolicy::kPessimisticPrior, DegradationPolicy::kLastKnownGood,
        DegradationPolicy::kExcludeRenormalize}) {
    QualityModel model = CardinalityOnlyModel(policy);
    EXPECT_DOUBLE_EQ(CardinalityScore(universe, model), 1.0)
        << DegradationPolicyName(policy);
  }
}

TEST(DegradationTest, StaleSourceIsDiscountedPerPolicy) {
  Universe universe = TwoSourceUniverse();
  universe.mutable_source(1)->set_stats_state(StatsState::kStale, 0.8);

  // Last-known-good: weight 1 - 0.5 * 0.8 = 0.6 on the stale cardinality,
  // full-universe denominator: (100 + 0.6 * 300) / 400.
  QualityModel lkg = CardinalityOnlyModel(DegradationPolicy::kLastKnownGood);
  EXPECT_DOUBLE_EQ(CardinalityScore(universe, lkg), (100.0 + 180.0) / 400.0);

  // Pessimistic prior: stale contributes 0, denominator stays 400.
  QualityModel pess =
      CardinalityOnlyModel(DegradationPolicy::kPessimisticPrior);
  EXPECT_DOUBLE_EQ(CardinalityScore(universe, pess), 100.0 / 400.0);

  // Exclude-and-renormalize: stale leaves numerator AND denominator.
  QualityModel excl =
      CardinalityOnlyModel(DegradationPolicy::kExcludeRenormalize);
  EXPECT_DOUBLE_EQ(CardinalityScore(universe, excl), 100.0 / 100.0);
}

TEST(DegradationTest, MissingStatsContributeNothingUnderEveryPolicy) {
  for (DegradationPolicy policy :
       {DegradationPolicy::kPessimisticPrior, DegradationPolicy::kLastKnownGood,
        DegradationPolicy::kExcludeRenormalize}) {
    Universe universe = TwoSourceUniverse();
    universe.mutable_source(1)->set_stats_state(StatsState::kMissing);
    QualityModel model = CardinalityOnlyModel(policy);
    std::vector<SourceId> both = {0, 1};
    EvalContext ctx = model.MakeContext(universe, both, nullptr);
    EXPECT_EQ(ctx.degraded_count, 1);
    double expected = policy == DegradationPolicy::kExcludeRenormalize
                          ? 1.0          // 100 / fresh-only 100
                          : 100.0 / 400.0;
    EXPECT_DOUBLE_EQ(model.Evaluate(ctx).overall, expected)
        << DegradationPolicyName(policy);
  }
}

TEST(DegradationTest, PartialSourceKeepsCardinalityLosesSignature) {
  Universe universe = TwoSourceUniverse();
  universe.mutable_source(1)->set_signature(nullptr);
  universe.mutable_source(1)->set_stats_state(StatsState::kPartial);
  QualityModel model = CardinalityOnlyModel(DegradationPolicy::kLastKnownGood);
  std::vector<SourceId> both = {0, 1};
  EvalContext ctx = model.MakeContext(universe, both, nullptr);
  // Cardinality is trusted (weight 1) but the source no longer cooperates
  // on signatures.
  EXPECT_DOUBLE_EQ(ctx.effective_cardinality, 400.0);
  EXPECT_EQ(ctx.cooperating_count, 1);
  EXPECT_EQ(ctx.degraded_count, 1);
}

// ------------------------- engine integration --------------------------

Acquisition AcquireWorkload(int num_sources, uint64_t workload_seed,
                            const FaultPlan& plan, int num_threads = 4) {
  WorkloadConfig config;
  config.num_sources = num_sources;
  config.seed = workload_seed;
  config.scale = 0.002;
  GeneratedWorkload workload = GenerateWorkload(config);
  std::vector<const DataSource*> sources;
  for (SourceId s = 0; s < workload.universe.num_sources(); ++s) {
    sources.push_back(&workload.universe.source(s));
  }
  std::vector<std::unique_ptr<ProbeTarget>> targets;
  for (const DataSource* source : sources) {
    targets.push_back(std::make_unique<FlakyProbeTarget>(
        std::make_unique<InMemoryProbeTarget>(CloneSource(*source)), &plan));
  }
  ProberOptions options;
  options.num_threads = num_threads;
  options.seed = 1;
  SourceProber prober(options);
  Result<Acquisition> acquired = prober.Acquire(std::move(targets));
  EXPECT_TRUE(acquired.ok()) << acquired.status();
  return std::move(acquired).value();
}

SolverOptions QuickSolve() {
  SolverOptions options;
  options.seed = 42;
  options.max_iterations = 120;
  options.stall_iterations = 40;
  return options;
}

TEST(EngineAcquisitionTest, ZeroFaultRateMatchesPlainEngineBitForBit) {
  // The same workload, once loaded directly and once routed through the
  // prober with an all-zero fault plan, must produce the same solution.
  WorkloadConfig config;
  config.num_sources = 30;
  config.seed = 5;
  config.scale = 0.002;
  GeneratedWorkload direct = GenerateWorkload(config);
  Engine plain(std::move(direct.universe), QualityModel::MakeDefault());

  FaultPlan no_faults;  // disabled
  Acquisition acquisition = AcquireWorkload(30, 5, no_faults);
  EXPECT_EQ(acquisition.report.num_dropped(), 0);
  EXPECT_EQ(acquisition.report.num_degraded(), 0);
  Engine probed(std::move(acquisition), QualityModel::MakeDefault());
  ASSERT_NE(probed.acquisition_report(), nullptr);

  ProblemSpec spec;
  spec.max_sources = 6;
  Result<Solution> a = plain.Solve(spec, SolverKind::kTabu, QuickSolve());
  Result<Solution> b = probed.Solve(spec, SolverKind::kTabu, QuickSolve());
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->sources, b->sources);
  EXPECT_DOUBLE_EQ(a->quality, b->quality);
  ASSERT_EQ(a->breakdown.scores.size(), b->breakdown.scores.size());
  for (size_t i = 0; i < a->breakdown.scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->breakdown.scores[i], b->breakdown.scores[i]);
  }
}

TEST(EngineAcquisitionTest, PinningADroppedSourceFailsCleanly) {
  FaultRates rates;
  rates.permanent = 0.3;
  FaultPlan plan(8, rates);
  Acquisition acquisition = AcquireWorkload(30, 6, plan);
  std::vector<SourceId> dropped = acquisition.universe.UnavailableIds();
  ASSERT_FALSE(dropped.empty()) << "fault plan injected no permanent faults";
  SourceId victim = dropped.front();
  Engine engine(std::move(acquisition), QualityModel::MakeDefault());

  ProblemSpec spec;
  spec.max_sources = 6;
  spec.source_constraints = {victim};
  Result<Solution> solution = engine.Solve(spec, SolverKind::kTabu,
                                           QuickSolve());
  ASSERT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kUnavailable);

  // EvaluateCandidate with a dropped source is equally clean.
  ProblemSpec free_spec;
  free_spec.max_sources = 6;
  Result<CandidateEvaluator::Evaluation> eval =
      engine.EvaluateCandidate(free_spec, {victim});
  ASSERT_FALSE(eval.ok());
  EXPECT_EQ(eval.status().code(), StatusCode::kUnavailable);

  // Session surfaces the same error on the pin gesture itself.
  Session session(&engine);
  Status pin = session.PinSource(victim);
  EXPECT_EQ(pin.code(), StatusCode::kUnavailable);
  ASSERT_NE(session.acquisition_report(), nullptr);
}

TEST(EngineAcquisitionTest, SolutionsNeverUseDroppedSources) {
  FaultRates rates;
  rates.transient = 0.3;
  rates.permanent = 0.15;
  FaultPlan plan(13, rates);
  Acquisition acquisition = AcquireWorkload(30, 7, plan);
  std::vector<SourceId> dropped = acquisition.universe.UnavailableIds();
  ASSERT_FALSE(dropped.empty());
  Engine engine(std::move(acquisition), QualityModel::MakeDefault());
  ProblemSpec spec;
  spec.max_sources = 6;
  Result<Solution> solution = engine.Solve(spec, SolverKind::kTabu,
                                           QuickSolve());
  ASSERT_TRUE(solution.ok()) << solution.status();
  for (SourceId s : solution->sources) {
    EXPECT_TRUE(engine.universe().source(s).available())
        << "solution uses dropped source " << s;
  }
}

TEST(EngineAcquisitionTest, EngineIdValidationReportsInsteadOfAborting) {
  WorkloadConfig config;
  config.num_sources = 10;
  config.seed = 3;
  config.scale = 0.002;
  GeneratedWorkload workload = GenerateWorkload(config);
  Engine engine(std::move(workload.universe), QualityModel::MakeDefault());
  ProblemSpec spec;
  spec.max_sources = 4;
  Result<CandidateEvaluator::Evaluation> eval =
      engine.EvaluateCandidate(spec, {0, 99});
  ASSERT_FALSE(eval.ok());
  EXPECT_EQ(eval.status().code(), StatusCode::kInvalidArgument);
  eval = engine.EvaluateCandidate(spec, {-2});
  ASSERT_FALSE(eval.ok());
  EXPECT_EQ(eval.status().code(), StatusCode::kInvalidArgument);
}

TEST(SourceHealthRegistryTest, TripsAndBlocksWithoutConsumingHalfOpenProbe) {
  SourceHealthRegistry health;
  for (int i = 0; i < 3; ++i) health.RecordFailure(7, /*now_ms=*/0.0);
  const CircuitBreaker* breaker = health.FindBreaker(7);
  ASSERT_NE(breaker, nullptr);
  EXPECT_EQ(breaker->state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(health.IsBlocked(7, 100.0));
  // After the cool-down IsBlocked answers false but, being const, must NOT
  // consume the half-open probe: the breaker stays open until someone
  // actually sends a request through AllowRequest.
  EXPECT_FALSE(health.IsBlocked(7, 5'000.0));
  EXPECT_EQ(breaker->state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(health.BreakerFor(7).AllowRequest(5'000.0));
  EXPECT_EQ(breaker->state(), CircuitBreaker::State::kHalfOpen);
  // An untouched id is never blocked (and stays untracked).
  EXPECT_FALSE(health.IsBlocked(8, 0.0));
  EXPECT_EQ(health.TrackedIds(), std::vector<SourceId>{7});
}

TEST(SourceHealthRegistryTest, ResetWipesBreakerStateAndBackoffBudget) {
  SourceHealthRegistry health;
  for (int i = 0; i < 3; ++i) health.RecordFailure(2, 0.0);
  health.AddBackoffSpent(2, 123.0);
  EXPECT_EQ(health.backoff_spent_ms(2), 123.0);
  EXPECT_TRUE(health.IsBlocked(2, 10.0));

  health.Reset(2);
  EXPECT_EQ(health.FindBreaker(2), nullptr);
  EXPECT_EQ(health.backoff_spent_ms(2), 0.0);
  EXPECT_FALSE(health.IsBlocked(2, 10.0));
  EXPECT_TRUE(health.TrackedIds().empty());
}

TEST(SourceHealthRegistryTest, TrackedIdsAscending) {
  SourceHealthRegistry health;
  health.RecordSuccess(5);
  health.AddBackoffSpent(1, 1.0);
  health.RecordFailure(3, 0.0);
  EXPECT_EQ(health.TrackedIds(), (std::vector<SourceId>{1, 3, 5}));
}

// The satellite fix this PR pins: a source re-added under an existing id —
// revive or brand-new occupant — must not inherit the breaker state or
// backoff budget its predecessor accumulated.
TEST(LiveUniverseHealthTest, ReAddedSourceStartsWithCleanHealth) {
  Universe universe;
  universe.AddSource(DataSource("a", SourceSchema({"title", "author"})));
  universe.AddSource(DataSource("b", SourceSchema({"title", "isbn"})));
  universe.AddSource(DataSource("c", SourceSchema({"author", "price"})));
  LiveUniverse live(std::move(universe));

  // Accumulate bad history on source 1, enough to trip its breaker.
  for (int i = 0; i < 3; ++i) live.health().RecordFailure(1, 0.0);
  live.health().AddBackoffSpent(1, 500.0);
  EXPECT_TRUE(live.health().IsBlocked(1, 1.0));

  ChurnEvent remove;
  remove.time_ms = 10.0;
  remove.kind = ChurnEventKind::kRemove;
  remove.source = 1;
  ASSERT_TRUE(live.Apply(remove).ok());
  EXPECT_FALSE(live.universe().source(1).available());

  ChurnEvent revive;
  revive.time_ms = 20.0;
  revive.kind = ChurnEventKind::kAdd;
  revive.source = 1;
  revive.revive = true;
  ASSERT_TRUE(live.Apply(revive).ok());

  EXPECT_TRUE(live.universe().source(1).available());
  EXPECT_EQ(live.health().FindBreaker(1), nullptr);
  EXPECT_EQ(live.health().backoff_spent_ms(1), 0.0);
  EXPECT_FALSE(live.health().IsBlocked(1, 20.0));
}

// The issue's acceptance scenario: 200 sources, 30% transient fault rate —
// acquisition completes, every degraded/dropped source is reported, and the
// engine still produces a feasible solution over what was acquired.
TEST(EngineAcquisitionTest, EndToEndWithThirtyPercentTransientFaults) {
  FaultRates rates;
  rates.transient = 0.30;
  rates.timeout = 0.10;
  rates.permanent = 0.02;
  rates.stale = 0.05;
  rates.truncated = 0.05;
  FaultPlan plan(20260806, rates);
  Acquisition acquisition = AcquireWorkload(200, 17, plan);
  const AcquisitionReport report = acquisition.report;  // copy for asserts
  ASSERT_EQ(report.sources.size(), 200u);
  EXPECT_GT(report.num_acquired(), 150);  // retries absorb most transients
  // Every source has a definite, consistent outcome.
  for (const SourceAcquisition& acq : report.sources) {
    EXPECT_GE(acq.attempts, 1) << acq.name;
    if (acq.outcome == AcquisitionOutcome::kDropped) {
      EXPECT_FALSE(acq.status.ok()) << acq.name;
    } else {
      EXPECT_TRUE(acq.status.ok()) << acq.name;
    }
    if (acq.outcome == AcquisitionOutcome::kAcquiredStale) {
      EXPECT_GT(acq.staleness, 0.0) << acq.name;
    }
  }
  EXPECT_EQ(report.num_dropped() + report.num_acquired(), 200);

  Engine engine(std::move(acquisition), QualityModel::MakeDefault());
  ProblemSpec spec;
  spec.max_sources = 10;
  Result<Solution> solution = engine.Solve(spec, SolverKind::kTabu,
                                           QuickSolve());
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_GT(solution->quality, 0.0);
  EXPECT_FALSE(solution->sources.empty());
  for (SourceId s : solution->sources) {
    EXPECT_TRUE(engine.universe().source(s).available());
  }

  // The report renders: summary plus one line per non-clean source.
  std::string rendered = FormatAcquisitionReport(report);
  EXPECT_NE(rendered.find("sources acquired"), std::string::npos);
  for (const SourceAcquisition& acq : report.sources) {
    if (acq.outcome != AcquisitionOutcome::kAcquired) {
      EXPECT_NE(rendered.find(acq.name), std::string::npos) << acq.name;
    }
  }
  std::string with_degraded = FormatSolution(
      *solution, engine.universe(), engine.quality_model(),
      engine.acquisition_report());
  if (report.num_degraded() + report.num_dropped() > 0) {
    EXPECT_NE(with_degraded.find("degraded sources"), std::string::npos);
  }
}

}  // namespace
}  // namespace ube
