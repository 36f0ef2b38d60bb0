#include "core/session.h"

#include <algorithm>
#include <utility>

#include "core/report.h"
#include "obs/obs.h"
#include "util/check.h"

namespace ube {

Session::Session(const Engine* engine) : engine_(engine) {
  UBE_CHECK(engine_ != nullptr, "Session requires an engine");
}

Result<Solution> Session::Iterate(SolverKind solver) {
  return Iterate(solver, solver_options_);
}

Result<Solution> Session::Iterate(SolverKind solver,
                                  const SolverOptions& options) {
  obs::Tracer::Span span = obs::SpanIf(engine_->obs(), "session/iterate");
  // One run object per gesture: the repair of the previous incumbent
  // against the (possibly just-edited) spec and the solve it seeds score on
  // one evaluator and one shared store, so the repair pre-warms the solve.
  // A wiped-out incumbent leaves the solve cold.
  const Engine::Scope run(*engine_, spec_, options.shared_cache);
  SolverOptions effective = options;
  bool warm = false;
  if (run.status().ok() && warm_start_ && last() != nullptr &&
      effective.initial_incumbent.empty()) {
    RepairResult repaired =
        RepairIncumbent(run.evaluator(), last()->sources, repair_options_);
    if (repaired.seeded) {
      effective.initial_incumbent = std::move(repaired.solution.sources);
      warm = true;
    }
  }
  Result<Solution> solution = run.Solve(solver, effective);
  if (!solution.ok()) {
    ++stats_.failed_solves;
    return solution;
  }
  ++stats_.iterations;
  if (warm) {
    ++stats_.warm_solves;
  } else {
    ++stats_.cold_solves;
  }
  history_.push_back(solution.value());
  return solution;
}

const Solution* Session::last() const {
  return history_.empty() ? nullptr : &history_.back();
}

std::string Session::ReportLast() const {
  const Solution* solution = last();
  if (solution == nullptr) return "";
  obs::Tracer::Span span = obs::SpanIf(engine_->obs(), "phase/report");
  return FormatSolution(*solution, engine_->universe(),
                        engine_->quality_model(), acquisition_report());
}

Status Session::PinSource(SourceId source) {
  if (source < 0 || source >= engine_->universe().num_sources()) {
    return Status::InvalidArgument("source id out of range");
  }
  if (!engine_->universe().source(source).available()) {
    return Status::Unavailable(
        "source was dropped during acquisition and cannot be pinned");
  }
  const auto& banned = spec_.banned_sources;
  if (std::find(banned.begin(), banned.end(), source) != banned.end()) {
    return Status::FailedPrecondition(
        "source is banned; unban it before pinning");
  }
  auto& constraints = spec_.source_constraints;
  if (std::find(constraints.begin(), constraints.end(), source) !=
      constraints.end()) {
    return Status::Ok();  // already pinned
  }
  constraints.push_back(source);
  ++stats_.feedback_gestures;
  return Status::Ok();
}

Status Session::PinSourceByName(std::string_view name) {
  Result<SourceId> id = engine_->universe().FindByName(name);
  if (!id.ok()) return id.status();
  return PinSource(id.value());
}

Status Session::UnpinSource(SourceId source) {
  auto& constraints = spec_.source_constraints;
  auto it = std::find(constraints.begin(), constraints.end(), source);
  if (it == constraints.end()) {
    return Status::NotFound("source is not pinned");
  }
  constraints.erase(it);
  ++stats_.feedback_gestures;
  return Status::Ok();
}

Status Session::BanSource(SourceId source) {
  if (source < 0 || source >= engine_->universe().num_sources()) {
    return Status::InvalidArgument("source id out of range");
  }
  const auto& pinned = spec_.source_constraints;
  if (std::find(pinned.begin(), pinned.end(), source) != pinned.end()) {
    return Status::FailedPrecondition(
        "source is pinned; unpin it before banning");
  }
  for (const GlobalAttribute& ga : spec_.ga_constraints) {
    if (ga.TouchesSource(source)) {
      return Status::FailedPrecondition(
          "source is referenced by a GA constraint; remove that first");
    }
  }
  auto& banned = spec_.banned_sources;
  if (std::find(banned.begin(), banned.end(), source) != banned.end()) {
    return Status::Ok();  // already banned
  }
  banned.push_back(source);
  ++stats_.feedback_gestures;
  return Status::Ok();
}

Status Session::BanSourceByName(std::string_view name) {
  Result<SourceId> id = engine_->universe().FindByName(name);
  if (!id.ok()) return id.status();
  return BanSource(id.value());
}

Status Session::UnbanSource(SourceId source) {
  auto& banned = spec_.banned_sources;
  auto it = std::find(banned.begin(), banned.end(), source);
  if (it == banned.end()) {
    return Status::NotFound("source is not banned");
  }
  banned.erase(it);
  ++stats_.feedback_gestures;
  return Status::Ok();
}

Status Session::PromoteGa(int ga_index) {
  const Solution* solution = last();
  if (solution == nullptr) {
    return Status::FailedPrecondition("no solution yet; call Iterate first");
  }
  if (ga_index < 0 || ga_index >= solution->mediated_schema.num_gas()) {
    return Status::InvalidArgument("GA index out of range");
  }
  return AddGaConstraint(solution->mediated_schema.ga(ga_index));
}

Status Session::AddGaConstraint(GlobalAttribute ga) {
  if (!ga.IsValid()) {
    return Status::InvalidArgument("not a valid GA");
  }
  for (const AttributeId& id : ga.attributes()) {
    if (id.source < 0 || id.source >= engine_->universe().num_sources()) {
      return Status::InvalidArgument("GA references a source out of range");
    }
    const SourceSchema& schema = engine_->universe().source(id.source).schema();
    if (id.attr_index < 0 || id.attr_index >= schema.num_attributes()) {
      return Status::InvalidArgument(
          "GA references a nonexistent attribute");
    }
  }
  // Absorb existing constraints fully contained in the new GA; reject
  // partial overlaps (they would make the constraint set inconsistent).
  std::vector<GlobalAttribute> kept;
  for (GlobalAttribute& existing : spec_.ga_constraints) {
    if (ga.ContainsAll(existing)) continue;  // absorbed
    if (ga.Intersects(existing)) {
      return Status::InvalidArgument(
          "GA partially overlaps an existing GA constraint; remove or edit "
          "that constraint first");
    }
    kept.push_back(std::move(existing));
  }
  kept.push_back(std::move(ga));
  spec_.ga_constraints = std::move(kept);
  ++stats_.feedback_gestures;
  return Status::Ok();
}

Status Session::AddGaConstraintByNames(
    const std::vector<std::pair<std::string, std::string>>& attributes) {
  GlobalAttribute ga;
  for (const auto& [source_name, attr_name] : attributes) {
    Result<SourceId> source = engine_->universe().FindByName(source_name);
    if (!source.ok()) return source.status();
    int attr = engine_->universe()
                   .source(source.value())
                   .schema()
                   .FindAttribute(attr_name);
    if (attr < 0) {
      return Status::NotFound("source '" + source_name +
                              "' has no attribute '" + attr_name + "'");
    }
    ga.Add(AttributeId{source.value(), attr});
  }
  return AddGaConstraint(std::move(ga));
}

Status Session::SetWeight(std::string_view qef_name, double weight) {
  const QualityModel& model = engine_->quality_model();
  int index = model.FindQef(qef_name);
  if (index < 0) {
    return Status::NotFound("no QEF named '" + std::string(qef_name) + "'");
  }
  // Copy-on-first-write: the overlay starts as the shared model's weights
  // and diverges from there. The engine's model is never mutated, and a
  // rejected weight leaves the overlay as it was.
  std::vector<double> overlay = effective_weights();
  UBE_RETURN_IF_ERROR(QualityModel::RescaleWeight(&overlay, index, weight));
  spec_.weight_overlay = std::move(overlay);
  ++stats_.feedback_gestures;
  return Status::Ok();
}

const std::vector<double>& Session::effective_weights() const {
  return spec_.weight_overlay.empty() ? engine_->quality_model().weights()
                                      : spec_.weight_overlay;
}

void Session::ClearConstraints() {
  spec_.source_constraints.clear();
  spec_.banned_sources.clear();
  spec_.ga_constraints.clear();
}

}  // namespace ube
