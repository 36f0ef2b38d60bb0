#include "catalog/change_feed.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

namespace ube {

namespace {

uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  return h;
}

bool BadWeight(double w) { return !std::isfinite(w) || w < 0.0; }

}  // namespace

std::string_view ChurnEventKindName(ChurnEventKind kind) {
  switch (kind) {
    case ChurnEventKind::kAdd:
      return "add";
    case ChurnEventKind::kRemove:
      return "remove";
    case ChurnEventKind::kStaleRefresh:
      return "stale-refresh";
    case ChurnEventKind::kDrift:
      return "drift";
    case ChurnEventKind::kAttrRename:
      return "attr-rename";
    case ChurnEventKind::kAttrAdd:
      return "attr-add";
    case ChurnEventKind::kAttrDrop:
      return "attr-drop";
  }
  return "unknown";
}

bool IsSchemaDrift(ChurnEventKind kind) {
  return kind == ChurnEventKind::kAttrRename ||
         kind == ChurnEventKind::kAttrAdd ||
         kind == ChurnEventKind::kAttrDrop;
}

// --- ChurnFeedDriver -----------------------------------------------------

ChurnFeedDriver::ChurnFeedDriver(const Universe& universe,
                                 const ChurnFeedConfig& config)
    : config_(config), rng_(SplitMix64(config.seed ^ 0xc4a7a106feedull)) {
  for (SourceId s = 0; s < universe.num_sources(); ++s) {
    const DataSource& source = universe.source(s);
    (source.available() ? alive_ : dead_).push_back(s);
    schemas_.push_back(source.schema().names());
    if (source.available()) {
      Template tmpl;
      tmpl.attributes = source.schema().names();
      tmpl.cardinality = source.cardinality();
      tmpl.characteristics.assign(source.characteristics().begin(),
                                  source.characteristics().end());
      for (const std::string& attr : tmpl.attributes) {
        attribute_pool_.push_back(attr);
      }
      templates_.push_back(std::move(tmpl));
    }
  }
  next_new_ = universe.num_sources();
  mean_gap_ms_ =
      config.events_per_sec > 0.0 ? 1000.0 / config.events_per_sec : 0.0;
}

Result<ChurnFeedDriver> ChurnFeedDriver::Make(const Universe& universe,
                                              const ChurnFeedConfig& config) {
  if (!std::isfinite(config.events_per_sec)) {
    return Status::InvalidArgument(
        "ChurnFeedConfig::events_per_sec must be finite");
  }
  if (!std::isfinite(config.horizon_ms)) {
    return Status::InvalidArgument(
        "ChurnFeedConfig::horizon_ms must be finite");
  }
  struct Named {
    const char* name;
    double value;
  };
  const Named weights[] = {
      {"add_weight", config.add_weight},
      {"remove_weight", config.remove_weight},
      {"stale_weight", config.stale_weight},
      {"drift_weight", config.drift_weight},
      {"attr_rename_weight", config.attr_rename_weight},
      {"attr_add_weight", config.attr_add_weight},
      {"attr_drop_weight", config.attr_drop_weight},
  };
  for (const Named& w : weights) {
    if (BadWeight(w.value)) {
      return Status::InvalidArgument(
          std::string("ChurnFeedConfig::") + w.name +
          " must be finite and >= 0, got " + std::to_string(w.value));
    }
  }
  if (!std::isfinite(config.revive_fraction) || config.revive_fraction < 0.0 ||
      config.revive_fraction > 1.0) {
    return Status::InvalidArgument(
        "ChurnFeedConfig::revive_fraction must be in [0, 1]");
  }
  if (!std::isfinite(config.refresh_success) ||
      config.refresh_success < 0.0 || config.refresh_success > 1.0) {
    return Status::InvalidArgument(
        "ChurnFeedConfig::refresh_success must be in [0, 1]");
  }
  if (config.min_alive < 0) {
    return Status::InvalidArgument("ChurnFeedConfig::min_alive must be >= 0");
  }
  if (config.min_alive > universe.num_available()) {
    return Status::InvalidArgument(
        "ChurnFeedConfig::min_alive (" + std::to_string(config.min_alive) +
        ") exceeds the universe's alive count (" +
        std::to_string(universe.num_available()) +
        "); the feed could never honor the floor");
  }
  return ChurnFeedDriver(universe, config);
}

double ChurnFeedDriver::NextEventTime() {
  if (mean_gap_ms_ <= 0.0 || config_.horizon_ms <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  t_ += -mean_gap_ms_ * std::log1p(-rng_.UniformDouble());
  return t_;
}

std::string ChurnFeedDriver::MutateName(const std::string& base) {
  static constexpr const char* kSuffixes[] = {"_2", "_id", "_name", "_alt"};
  static constexpr const char* kPrefixes[] = {"src_", "new_", "the_"};
  if (rng_.Bernoulli(0.5)) {
    return base + kSuffixes[rng_.UniformInt(uint64_t{4})];
  }
  return std::string(kPrefixes[rng_.UniformInt(uint64_t{3})]) + base;
}

std::unique_ptr<DataSource> ChurnFeedDriver::SynthesizeSource(int ordinal) {
  // A brand-new source discovered by the feed: a perturbed clone of one of
  // the initial universe's alive sources (subset of its attributes, scaled
  // cardinality, copied characteristics). New sources arrive uncooperative —
  // no signature until a full probe, which keeps adds conservative for the
  // coverage QEF. Falls back to a tiny generic schema when the initial
  // universe had nothing alive to clone.
  const std::string name = "feed-" + std::to_string(ordinal);
  if (templates_.empty()) {
    auto source =
        std::make_unique<DataSource>(name, SourceSchema({"title", "author"}));
    source->set_cardinality(100);
    return source;
  }
  const Template& tmpl = templates_[rng_.UniformInt(templates_.size())];
  std::vector<std::string> attributes;
  for (const std::string& attr : tmpl.attributes) {
    if (attributes.empty() || !rng_.Bernoulli(0.2)) attributes.push_back(attr);
  }
  auto source =
      std::make_unique<DataSource>(name, SourceSchema(std::move(attributes)));
  source->set_cardinality(std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(tmpl.cardinality) *
                              rng_.UniformDouble(0.5, 2.0))));
  for (const auto& [key, value] : tmpl.characteristics) {
    source->SetCharacteristic(key, value);
  }
  return source;
}

std::optional<ChurnEvent> ChurnFeedDriver::DrawBase(double t) {
  // Eligibility gates per kind (weights of kinds with no valid target drop
  // out of the draw, so a generated trace always applies cleanly).
  std::vector<SourceId> renameable;  // alive with >= 1 attribute
  std::vector<SourceId> droppable;   // alive with >= 2 attributes
  for (SourceId s : alive_) {
    const size_t width = schemas_[static_cast<size_t>(s)].size();
    if (width >= 1) renameable.push_back(s);
    if (width >= 2) droppable.push_back(s);
  }
  const double wa = config_.add_weight;
  const double wr =
      static_cast<int>(alive_.size()) > std::max(0, config_.min_alive)
          ? config_.remove_weight
          : 0.0;
  const double ws = alive_.empty() ? 0.0 : config_.stale_weight;
  const double wd = alive_.empty() ? 0.0 : config_.drift_weight;
  const double wrn = renameable.empty() ? 0.0 : config_.attr_rename_weight;
  const double waa = alive_.empty() ? 0.0 : config_.attr_add_weight;
  const double wad = droppable.empty() ? 0.0 : config_.attr_drop_weight;
  const double total = wa + wr + ws + wd + wrn + waa + wad;
  if (total <= 0.0) return std::nullopt;
  const double draw = rng_.UniformDouble() * total;

  ChurnEvent event;
  event.time_ms = t;
  if (draw < wa) {
    event.kind = ChurnEventKind::kAdd;
    if (!dead_.empty() && rng_.Bernoulli(config_.revive_fraction)) {
      event.revive = true;
      event.source = dead_.front();
      dead_.erase(dead_.begin());
    } else {
      event.source = next_new_++;
      event.added = SynthesizeSource(synthesized_++);
      schemas_.push_back(event.added->schema().names());
    }
    alive_.push_back(event.source);
  } else if (draw < wa + wr) {
    event.kind = ChurnEventKind::kRemove;
    const size_t pick = rng_.UniformInt(alive_.size());
    event.source = alive_[pick];
    alive_.erase(alive_.begin() + static_cast<long>(pick));
    dead_.push_back(event.source);
  } else if (draw < wa + wr + ws) {
    event.kind = ChurnEventKind::kStaleRefresh;
    event.source = alive_[rng_.UniformInt(alive_.size())];
    event.staleness = rng_.Bernoulli(config_.refresh_success)
                          ? 0.0
                          : rng_.UniformDouble(0.1, 0.9);
  } else if (draw < wa + wr + ws + wd) {
    event.kind = ChurnEventKind::kDrift;
    event.source = alive_[rng_.UniformInt(alive_.size())];
    event.cardinality_factor = rng_.UniformDouble(0.6, 1.5);
    event.characteristic_factor = rng_.UniformDouble(0.8, 1.25);
  } else if (draw < wa + wr + ws + wd + wrn) {
    event.kind = ChurnEventKind::kAttrRename;
    event.source = renameable[rng_.UniformInt(renameable.size())];
    std::vector<std::string>& schema = schemas_[static_cast<size_t>(event.source)];
    event.attr_index = static_cast<int32_t>(rng_.UniformInt(schema.size()));
    event.attr_name = MutateName(schema[static_cast<size_t>(event.attr_index)]);
    schema[static_cast<size_t>(event.attr_index)] = event.attr_name;
  } else if (draw < wa + wr + ws + wd + wrn + waa) {
    event.kind = ChurnEventKind::kAttrAdd;
    event.source = alive_[rng_.UniformInt(alive_.size())];
    std::vector<std::string>& schema = schemas_[static_cast<size_t>(event.source)];
    event.attr_index = static_cast<int32_t>(schema.size());
    // Half the new attributes are verbatim draws from the initial pool
    // (likely to match something — the interesting case for the matcher),
    // half are mutated variants.
    if (attribute_pool_.empty()) {
      event.attr_name = "attr-" + std::to_string(synthesized_++);
    } else {
      const std::string& base =
          attribute_pool_[rng_.UniformInt(attribute_pool_.size())];
      event.attr_name = rng_.Bernoulli(0.5) ? base : MutateName(base);
    }
    schema.push_back(event.attr_name);
  } else {
    event.kind = ChurnEventKind::kAttrDrop;
    event.source = droppable[rng_.UniformInt(droppable.size())];
    std::vector<std::string>& schema = schemas_[static_cast<size_t>(event.source)];
    event.attr_index = static_cast<int32_t>(rng_.UniformInt(schema.size()));
    schema.erase(schema.begin() + event.attr_index);
  }
  return event;
}

// --- GenerateChurnTrace --------------------------------------------------

Result<ChurnTrace> GenerateChurnTrace(const Universe& universe,
                                      const ChurnFeedConfig& config) {
  Result<ChurnFeedDriver> driver = ChurnFeedDriver::Make(universe, config);
  if (!driver.ok()) return driver.status();

  ChurnTrace trace;
  trace.config = config;
  while (true) {
    const double t = driver->NextEventTime();
    if (t > config.horizon_ms) break;
    std::optional<ChurnEvent> event = driver->DrawBase(t);
    if (event.has_value()) trace.events.push_back(std::move(*event));
  }
  return trace;
}

uint64_t ChurnTraceFingerprint(const ChurnTrace& trace) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) { h = SplitMix64(h ^ v); };
  mix(trace.events.size());
  for (const ChurnEvent& event : trace.events) {
    mix(DoubleBits(event.time_ms));
    mix(static_cast<uint64_t>(event.kind));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(event.source)));
    mix(event.revive ? 1 : 0);
    mix(DoubleBits(event.staleness));
    mix(DoubleBits(event.cardinality_factor));
    mix(DoubleBits(event.characteristic_factor));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(event.attr_index)));
    mix(HashString(event.attr_name));
    if (event.added != nullptr) {
      mix(HashString(event.added->name()));
      mix(static_cast<uint64_t>(event.added->cardinality()));
      for (const std::string& attr : event.added->schema().names()) {
        mix(HashString(attr));
      }
      for (const auto& [key, value] : event.added->characteristics()) {
        mix(HashString(key));
        mix(DoubleBits(value));
      }
      mix(event.added->has_signature() ? 1 : 0);
    }
  }
  return h;
}

}  // namespace ube
