#include "core/engine.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ube {

namespace {

/// Engine::Options → LiveUniverse::Options, with the match-phase span
/// wrapping graph construction (the dominant cost of engine startup).
LiveUniverse BuildLive(Universe universe, Engine::Options* options) {
  obs::Tracer::Span span = obs::SpanIf(options->obs, "phase/match");
  LiveUniverse::Options live;
  live.similarity_floor = options->similarity_floor;
  live.similarity = std::move(options->similarity);
  return LiveUniverse(std::move(universe), std::move(live));
}

}  // namespace

std::string_view EscalationReasonName(EscalationReason reason) {
  switch (reason) {
    case EscalationReason::kNone:
      return "none";
    case EscalationReason::kQualityFraction:
      return "quality-fraction";
    case EscalationReason::kIncumbentWipeout:
      return "incumbent-wipeout";
    case EscalationReason::kBaseline:
      return "baseline";
  }
  return "unknown";
}

Engine::Engine(Universe universe, QualityModel model)
    : Engine(std::move(universe), std::move(model), Options{}) {}

Engine::Engine(Universe universe, QualityModel model, Options options)
    : model_(std::move(model)),
      obs_(options.obs),
      live_(BuildLive(std::move(universe), &options)) {
  unavailable_ = live_.universe().UnavailableIds();
}

Engine::Engine(Acquisition acquisition, QualityModel model)
    : Engine(std::move(acquisition), std::move(model), Options{}) {}

Engine::Engine(Acquisition acquisition, QualityModel model, Options options)
    : Engine(std::move(acquisition.universe), std::move(model),
             std::move(options)) {
  acquisition_report_ = std::move(acquisition.report);
}

Engine::Scope::Scope(const Engine& engine, const ProblemSpec& spec,
                     SharedQualityCache* shared_cache)
    : engine_(engine), spec_(spec) {
  obs::Tracer::Span span = obs::SpanIf(engine.obs_, "phase/evaluate");
  status_ = Validate();
  if (!status_.ok()) return;
  const LiveUniverse& live = engine.live_;
  // The live version is the cache epoch: a shared cache warmed before a
  // churn event can never answer for the evolved universe.
  evaluator_.emplace(live.universe(), live.matcher(), engine.model_, spec_,
                     static_cast<uint64_t>(live.version()));
  evaluator_->AttachSharedCache(shared_cache);
}

Status Engine::Scope::Validate() {
  const LiveUniverse& live = engine_.live_;
  UBE_RETURN_IF_ERROR(live.status());
  const Universe& universe = live.universe();
  const std::vector<SourceId>& dropped = engine_.unavailable_;
  auto is_dropped = [&](SourceId s) {
    return s >= 0 && s < universe.num_sources() &&
           std::binary_search(dropped.begin(), dropped.end(), s);
  };
  // A constraint pinning a dropped source can never be satisfied; report it
  // cleanly instead of letting it surface as a generic validation failure
  // (the dropped shell has an empty schema, so GA constraints on it would
  // otherwise read as "nonexistent attribute").
  for (SourceId s : spec_.source_constraints) {
    if (is_dropped(s)) {
      return Status::Unavailable(
          "source constraint pins '" + universe.source(s).name() +
          "', which was dropped during acquisition");
    }
  }
  for (const GlobalAttribute& g : spec_.ga_constraints) {
    for (const AttributeId& id : g.attributes()) {
      if (is_dropped(id.source)) {
        return Status::Unavailable(
            "GA constraint references '" + universe.source(id.source).name() +
            "', which was dropped during acquisition");
      }
    }
  }
  std::vector<SourceId>& banned = spec_.banned_sources;
  banned.insert(banned.end(), dropped.begin(), dropped.end());
  std::sort(banned.begin(), banned.end());
  banned.erase(std::unique(banned.begin(), banned.end()), banned.end());
  UBE_RETURN_IF_ERROR(CandidateEvaluator::ValidateSpec(universe, spec_));
  const QualityModel& model = engine_.model_;
  UBE_RETURN_IF_ERROR(model.ValidateWeightVector(
      spec_.weight_overlay.empty() ? model.weights() : spec_.weight_overlay));
  if (spec_.theta < live.graph().floor()) {
    return Status::InvalidArgument(
        "θ is below the engine's similarity floor; rebuild the engine with a "
        "lower Options::similarity_floor");
  }
  return Status::Ok();
}

Result<Solution> Engine::Scope::Solve(SolverKind kind,
                                      const SolverOptions& options) const {
  UBE_RETURN_IF_ERROR(status_);
  // Forward the engine's context into the solve unless the caller attached
  // their own SolverOptions::obs.
  SolverOptions forwarded = options;
  if (forwarded.obs == nullptr) forwarded.obs = engine_.obs_;
  obs::Tracer::Span span = obs::SpanIf(engine_.obs_, "phase/solve");
  return MakeSolver(kind)->Solve(*evaluator_, forwarded);
}

Result<Solution> Engine::Solve(const ProblemSpec& spec, SolverKind solver,
                               const SolverOptions& options) const {
  return Scope(*this, spec, options.shared_cache).Solve(solver, options);
}

Result<ContinuousReport> Engine::RunContinuous(
    const ProblemSpec& spec, const ChurnTrace& trace,
    const ContinuousOptions& options) {
  // Negated comparisons, so that a NaN fails each check.
  if (!(options.batch_ms > 0.0)) {
    return Status::InvalidArgument("ContinuousOptions::batch_ms must be > 0");
  }
  if (!(options.escalation_fraction >= 0.0 &&
        options.escalation_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "ContinuousOptions::escalation_fraction must be in [0, 1]");
  }
  // The budget controller is built even when it is disabled, and clamps
  // into this range.
  if (options.adaptive.min_eval_budget > options.adaptive.max_eval_budget) {
    return Status::InvalidArgument(
        "AdaptiveRepairOptions::min_eval_budget must be <= max_eval_budget");
  }

  ContinuousReport report;
  // The initial solve is *exactly* Solve(spec, solver, solver_options), so
  // with an empty trace RunContinuous is byte-identical to a one-shot Solve
  // for any thread count (tests/test_continuous.cc pins this).
  Result<Solution> initial =
      Solve(spec, options.solver, options.solver_options);
  UBE_RETURN_IF_ERROR(initial.status());
  report.final_solution = std::move(initial.value());
  report.full_solves = 1;
  report.last_full_quality = report.final_solution.quality;

  using MetricId = obs::MetricsRegistry::MetricId;
  MetricId events_metric = obs::MetricsRegistry::kInvalidMetric;
  MetricId repairs_metric = events_metric, escalations_metric = events_metric,
           evictions_metric = events_metric, repair_evals_metric = events_metric,
           drift_metric = events_metric, repair_budget_metric = events_metric;
  if (obs_ != nullptr) {
    obs::MetricsRegistry& metrics = obs_->metrics();
    events_metric = metrics.Counter("continuous.events");
    repairs_metric = metrics.Counter("continuous.repairs");
    escalations_metric = metrics.Counter("continuous.escalations");
    evictions_metric = metrics.Counter("continuous.evictions");
    repair_evals_metric = metrics.Histogram(
        "continuous.repair_evals", {64, 256, 1'024, 4'096, 16'384});
    drift_metric = metrics.Counter("continuous.drift_events");
    repair_budget_metric = metrics.Histogram(
        "continuous.repair_budget", {256, 1'024, 4'096, 16'384});
  }

  std::vector<SourceId> incumbent = report.final_solution.sources;
  const bool baseline =
      options.mode == ContinuousOptions::Mode::kFullEverytime;
  // Sizes the repair budget per batch from recent outcomes. Deterministic
  // state fed only by deterministic repair results, so the replay contract
  // is unchanged.
  RepairBudgetController controller(options.repair.eval_budget,
                                    options.adaptive);

  size_t next = 0;
  uint64_t batch_index = 0;
  while (next < trace.events.size()) {
    obs::Tracer::Span batch_span = obs::SpanIf(obs_, "phase/churn_batch");
    // One batch = every event inside a batch_ms window anchored at the
    // first unapplied event, answered with a single repair / re-solve. The
    // anchor is applied unconditionally, so every batch advances (or Apply
    // rejects the event — a NaN time would admit nothing into its window).
    const double window_end = trace.events[next].time_ms + options.batch_ms;
    ContinuousStep step;
    double batch_time = trace.events[next].time_ms;
    do {
      UBE_RETURN_IF_ERROR(live_.Apply(trace.events[next]));
      batch_time = trace.events[next].time_ms;
      ++step.events_applied;
      if (IsSchemaDrift(trace.events[next].kind)) ++step.drift_events;
      ++next;
    } while (next < trace.events.size() &&
             trace.events[next].time_ms <= window_end + 1e-9);
    unavailable_ = live_.universe().UnavailableIds();
    step.time_ms = batch_time;
    report.events_applied += step.events_applied;
    report.drift_events += step.drift_events;
    if (obs_ != nullptr) {
      obs_->metrics().Add(events_metric, step.events_applied);
      if (step.drift_events > 0) {
        obs_->metrics().Add(drift_metric, step.drift_events);
      }
    }

    // Batch spec: `spec` plus bans for every source whose health breaker is
    // open at batch time — except required sources, whose absence would
    // make the spec infeasible (the caller pinned them; an open breaker is
    // advisory, a constraint is not). The run object adds the dropped
    // sources. It is built before the batch timer starts, so elapsed_ms
    // times the repair and the escalation only.
    ProblemSpec batch_spec = spec;
    const std::vector<SourceId> required =
        CandidateEvaluator::RequiredSources(spec);
    for (SourceId s : live_.health().TrackedIds()) {
      if (live_.health().IsBlocked(s, batch_time) &&
          !std::binary_search(required.begin(), required.end(), s)) {
        batch_spec.banned_sources.push_back(s);
      }
    }
    const Scope run(*this, batch_spec);
    UBE_RETURN_IF_ERROR(run.status());

    WallTimer timer(options.solver_options.clock);
    ++batch_index;
    bool escalate = baseline;
    EscalationReason reason =
        baseline ? EscalationReason::kBaseline : EscalationReason::kNone;
    if (!baseline) {
      RepairOptions repair = options.repair;
      // Per-batch derived stream: repairs stay decorrelated across batches
      // yet replay bit-identically from (trace, options).
      repair.seed =
          SplitMix64(options.repair.seed ^ (0x9e3779b97f4a7c15ull * batch_index));
      if (options.adaptive.enabled) {
        repair.eval_budget = controller.budget();
      }
      step.repair_budget = repair.eval_budget;
      repair.num_threads = options.solver_options.num_threads;
      repair.clock = options.solver_options.clock;
      if (repair.obs == nullptr) repair.obs = obs_;
      if (obs_ != nullptr) {
        obs_->metrics().Observe(repair_budget_metric, repair.eval_budget);
      }
      RepairResult repaired =
          RepairIncumbent(run.evaluator(), incumbent, repair);
      step.evicted = repaired.evicted;
      step.quality_before = repaired.seed_quality;
      if (obs_ != nullptr && step.evicted > 0) {
        obs_->metrics().Add(evictions_metric, step.evicted);
      }
      int64_t repair_evals = 0;
      if (!repaired.seeded) {
        escalate = true;
        reason = EscalationReason::kIncumbentWipeout;
      } else {
        repair_evals = repaired.solution.stats.evaluations;
        ++report.repairs;
        step.evaluations += repair_evals;
        report.repair_evaluations += repair_evals;
        if (obs_ != nullptr) {
          obs_->metrics().Observe(repair_evals_metric, repair_evals);
          obs_->metrics().Add(repairs_metric);
        }
        if (repaired.solution.quality + 1e-12 <
            options.escalation_fraction * report.last_full_quality) {
          escalate = true;
          reason = EscalationReason::kQualityFraction;
        } else {
          report.final_solution = std::move(repaired.solution);
        }
      }
      controller.Record(repair_evals, repaired.seeded,
                        reason == EscalationReason::kQualityFraction,
                        reason == EscalationReason::kIncumbentWipeout);
    }
    if (escalate) {
      if (!baseline) {
        ++report.escalations;
        if (obs_ != nullptr) obs_->metrics().Add(escalations_metric);
      }
      // Same evaluator as the repair, so breaker bans apply to the full
      // re-solve too.
      Result<Solution> solved =
          run.Solve(options.solver, options.solver_options);
      UBE_RETURN_IF_ERROR(solved.status());
      ++report.full_solves;
      report.last_full_quality = solved.value().quality;
      step.evaluations += solved.value().stats.evaluations;
      report.final_solution = std::move(solved.value());
    }
    step.escalated = escalate;
    step.escalation_reason = reason;
    step.quality_after = report.final_solution.quality;
    step.elapsed_ms = timer.ElapsedMillis();
    incumbent = report.final_solution.sources;
    step.incumbent = incumbent;
    report.steps.push_back(std::move(step));
  }
  return report;
}

Result<CandidateEvaluator::Evaluation> Engine::EvaluateCandidate(
    const ProblemSpec& spec, std::vector<SourceId> sources) const {
  const Scope run(*this, spec);
  UBE_RETURN_IF_ERROR(run.status());
  const CandidateEvaluator& evaluator = run.evaluator();
  const Universe& universe = live_.universe();
  for (SourceId s : sources) {
    UBE_RETURN_IF_ERROR(universe.ValidateId(s));
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  if (sources.empty()) {
    return Status::InvalidArgument("candidate must contain a source");
  }
  if (static_cast<int>(sources.size()) > spec.max_sources) {
    return Status::InvalidArgument("candidate exceeds m sources");
  }
  for (SourceId s : evaluator.required_sources()) {
    if (!std::binary_search(sources.begin(), sources.end(), s)) {
      return Status::InvalidArgument(
          "candidate omits a source the constraints require");
    }
  }
  for (SourceId s : sources) {
    if (!evaluator.IsBanned(s)) continue;
    if (std::binary_search(unavailable_.begin(), unavailable_.end(), s)) {
      return Status::Unavailable("candidate contains '" +
                                 universe.source(s).name() +
                                 "', which was dropped during acquisition");
    }
    return Status::InvalidArgument("candidate contains a banned source");
  }
  return evaluator.Evaluate(sources);
}

Result<std::vector<SourceId>> Engine::RepairSeed(
    const ProblemSpec& spec, const std::vector<SourceId>& incumbent,
    const RepairOptions& options) const {
  const Scope run(*this, spec, options.shared_cache);
  UBE_RETURN_IF_ERROR(run.status());
  RepairResult repaired = RepairIncumbent(run.evaluator(), incumbent, options);
  if (!repaired.seeded) return std::vector<SourceId>{};
  return std::move(repaired.solution.sources);
}

}  // namespace ube
