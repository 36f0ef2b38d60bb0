#include "catalog/catalog.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "sketch/distinct_estimator.h"
#include "util/strings.h"

namespace ube {

namespace {

Status ParseError(int line, const std::string& message) {
  return Status::InvalidArgument("catalog line " + std::to_string(line) +
                                 ": " + message);
}

// Strips a comment: '#' at line start or preceded by whitespace.
std::string_view StripComment(std::string_view line) {
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '#' &&
        (i == 0 || line[i - 1] == ' ' || line[i - 1] == '\t')) {
      return line.substr(0, i);
    }
  }
  return line;
}

bool ParseInt64(std::string_view text, int64_t* out) {
  if (text.empty()) return false;
  int64_t value = 0;
  size_t i = 0;
  bool negative = false;
  if (text[0] == '-') {
    negative = true;
    i = 1;
    if (text.size() == 1) return false;
  }
  for (; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    const int digit = text[i] - '0';
    // Reject before overflowing: signed overflow is undefined.
    if (value > (std::numeric_limits<int64_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = negative ? -value : value;
  return true;
}

// A catalog number is finite: "inf", "nan" and overflowing literals such as
// "1e309" are rejected, since one of them would normalize every finite
// value of its QEF to 0 or make Q(S) NaN.
bool ParseDouble(std::string_view text, double* out) {
  std::string buffer(text);
  char* end = nullptr;
  double value = std::strtod(buffer.c_str(), &end);
  if (end == buffer.c_str() || *end != '\0') return false;
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Decodes 8-hex-digit little-words into uint32 bitmaps.
bool DecodeHexBitmaps(std::string_view hex, std::vector<uint32_t>* out) {
  if (hex.empty() || hex.size() % 8 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 8);
  for (size_t i = 0; i < hex.size(); i += 8) {
    uint32_t word = 0;
    for (size_t j = 0; j < 8; ++j) {
      int v = HexValue(hex[i + j]);
      if (v < 0) return false;
      word = (word << 4) | static_cast<uint32_t>(v);
    }
    out->push_back(word);
  }
  return true;
}

std::string EncodeHexBitmaps(const std::vector<uint32_t>& bitmaps) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bitmaps.size() * 8);
  for (uint32_t word : bitmaps) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(kDigits[(word >> shift) & 0xf]);
    }
  }
  return out;
}

// One source block under construction.
struct PendingSource {
  int start_line = 0;
  bool has_name = false;
  std::string name;
  bool has_attributes = false;
  std::vector<std::string> attributes;
  int64_t cardinality = 0;
  std::vector<std::pair<std::string, double>> characteristics;
  std::unique_ptr<DistinctSignature> signature;
  int signature_line = 0;
  bool has_state = false;
  bool dropped = false;
  StatsState stats_state = StatsState::kFresh;
  double staleness = 0.0;
};

Result<std::unique_ptr<DistinctSignature>> ParseSignature(
    std::string_view value, int line) {
  size_t colon = value.find(':');
  if (colon == std::string_view::npos) {
    return ParseError(line, "signature must be pcsa:<bitmaps>:<hex> or "
                            "exact:<id,id,...>");
  }
  std::string_view kind = value.substr(0, colon);
  std::string_view rest = value.substr(colon + 1);
  if (kind == "pcsa") {
    size_t colon2 = rest.find(':');
    if (colon2 == std::string_view::npos) {
      return ParseError(line, "pcsa signature needs pcsa:<bitmaps>:<hex>");
    }
    int64_t num_bitmaps = 0;
    if (!ParseInt64(rest.substr(0, colon2), &num_bitmaps) ||
        num_bitmaps < 1 || num_bitmaps > 65536 ||
        (num_bitmaps & (num_bitmaps - 1)) != 0) {
      return ParseError(line, "pcsa bitmap count must be a power of two in "
                              "[1, 65536]");
    }
    std::vector<uint32_t> bitmaps;
    if (!DecodeHexBitmaps(rest.substr(colon2 + 1), &bitmaps)) {
      return ParseError(line, "malformed pcsa hex payload");
    }
    if (static_cast<int64_t>(bitmaps.size()) != num_bitmaps) {
      return ParseError(line, "pcsa payload length does not match the "
                              "declared bitmap count");
    }
    return std::unique_ptr<DistinctSignature>(std::make_unique<PcsaSignature>(
        PcsaSketch::FromBitmaps(std::move(bitmaps))));
  }
  if (kind == "exact") {
    auto signature = std::make_unique<ExactSignature>();
    if (!TrimWhitespace(rest).empty()) {
      for (const std::string& token : SplitTokens(rest, ",")) {
        int64_t id = 0;
        if (!ParseInt64(TrimWhitespace(token), &id) || id < 0) {
          return ParseError(line, "malformed exact signature id '" + token +
                                      "'");
        }
        signature->Add(static_cast<uint64_t>(id));
      }
    }
    return std::unique_ptr<DistinctSignature>(std::move(signature));
  }
  return ParseError(line, "unknown signature kind '" + std::string(kind) +
                              "' (expected pcsa or exact)");
}

// The first signed source of a catalog; every later signature must match
// its format.
struct FirstSignature {
  std::string format;  // empty until a signed source is seen
  std::string source;
};

Status Finish(PendingSource& pending, FirstSignature* first_signature,
              Universe* universe) {
  if (!pending.has_name) {
    return ParseError(pending.start_line, "[source] block is missing 'name'");
  }
  // A dropped source is the prober's unavailable-shell: its schema may be
  // (and normally is) empty, so 'attributes' is optional for it only.
  if (!pending.dropped &&
      (!pending.has_attributes || pending.attributes.empty())) {
    return ParseError(pending.start_line,
                      "[source] block '" + pending.name +
                          "' is missing 'attributes'");
  }
  DataSource source(pending.name, SourceSchema(pending.attributes));
  source.set_cardinality(pending.cardinality);
  for (const auto& [name, value] : pending.characteristics) {
    source.SetCharacteristic(name, value);
  }
  if (pending.signature != nullptr) {
    const std::string format = SignatureFormat(*pending.signature);
    if (first_signature->format.empty()) {
      *first_signature = FirstSignature{format, pending.name};
    } else if (format != first_signature->format) {
      return ParseError(pending.signature_line,
                        "source '" + pending.name +
                            "' has a signature of format " + format +
                            " but source '" + first_signature->source +
                            "' has " + first_signature->format +
                            "; all signatures of a catalog must share one "
                            "kind and PCSA width");
    }
    source.set_signature(std::move(pending.signature));
  }
  source.set_available(!pending.dropped);
  source.set_stats_state(pending.stats_state, pending.staleness);
  universe->AddSource(std::move(source));
  return Status::Ok();
}

}  // namespace

Result<Universe> ParseCatalog(std::string_view text) {
  Universe universe;
  PendingSource pending;
  FirstSignature first_signature;
  bool in_block = false;

  int line_number = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    ++line_number;
    std::string_view line =
        TrimWhitespace(StripComment(text.substr(pos, end - pos)));
    pos = end + 1;

    if (line.empty()) continue;

    if (line == "[source]") {
      if (in_block) {
        UBE_RETURN_IF_ERROR(Finish(pending, &first_signature, &universe));
      }
      pending = PendingSource{};
      pending.start_line = line_number;
      in_block = true;
      continue;
    }
    if (line.front() == '[') {
      return ParseError(line_number,
                        "unknown section '" + std::string(line) + "'");
    }
    if (!in_block) {
      return ParseError(line_number, "content before the first [source]");
    }

    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return ParseError(line_number, "expected key = value");
    }
    std::string key(TrimWhitespace(line.substr(0, eq)));
    std::string value(TrimWhitespace(line.substr(eq + 1)));

    if (key == "name") {
      if (pending.has_name) {
        return ParseError(line_number, "duplicate 'name'");
      }
      if (value.empty()) {
        return ParseError(line_number, "'name' must not be empty");
      }
      pending.has_name = true;
      pending.name = value;
    } else if (key == "attributes") {
      if (pending.has_attributes) {
        return ParseError(line_number, "duplicate 'attributes'");
      }
      for (const std::string& attr : SplitTokens(value, "|")) {
        std::string trimmed(TrimWhitespace(attr));
        if (!trimmed.empty()) pending.attributes.push_back(trimmed);
      }
      if (pending.attributes.empty()) {
        return ParseError(line_number, "'attributes' must list at least one "
                                       "attribute");
      }
      pending.has_attributes = true;
    } else if (key == "cardinality") {
      int64_t cardinality = 0;
      if (!ParseInt64(value, &cardinality) || cardinality < 0) {
        return ParseError(line_number,
                          "'cardinality' must be a non-negative 64-bit "
                          "integer");
      }
      pending.cardinality = cardinality;
    } else if (key.rfind("char.", 0) == 0) {
      std::string characteristic = key.substr(5);
      if (characteristic.empty()) {
        return ParseError(line_number, "characteristic name missing after "
                                       "'char.'");
      }
      double parsed = 0.0;
      if (!ParseDouble(value, &parsed)) {
        return ParseError(line_number, "characteristic '" + characteristic +
                                           "' must be a number (finite)");
      }
      pending.characteristics.emplace_back(characteristic, parsed);
    } else if (key == "state") {
      if (pending.has_state) {
        return ParseError(line_number, "duplicate 'state'");
      }
      pending.has_state = true;
      bool saw_stats = false;
      int tokens = 0;
      for (const std::string& raw : SplitTokens(value, ",")) {
        std::string token(TrimWhitespace(raw));
        if (token.empty()) continue;
        ++tokens;
        if (token == "dropped") {
          if (pending.dropped) {
            return ParseError(line_number, "duplicate 'dropped' token");
          }
          pending.dropped = true;
          continue;
        }
        if (saw_stats) {
          return ParseError(line_number,
                            "'state' lists more than one statistics token");
        }
        saw_stats = true;
        if (token == "fresh") {
          pending.stats_state = StatsState::kFresh;
        } else if (token == "partial") {
          pending.stats_state = StatsState::kPartial;
        } else if (token == "missing") {
          pending.stats_state = StatsState::kMissing;
        } else if (token.rfind("stale:", 0) == 0) {
          double staleness = 0.0;
          if (!ParseDouble(token.substr(6), &staleness) || staleness <= 0.0 ||
              staleness > 1.0) {
            return ParseError(line_number,
                              "stale staleness must be a number in (0, 1]");
          }
          pending.stats_state = StatsState::kStale;
          pending.staleness = staleness;
        } else {
          return ParseError(line_number,
                            "unknown 'state' token '" + token + "'");
        }
      }
      if (tokens == 0) {
        return ParseError(line_number,
                          "'state' must list at least one token");
      }
    } else if (key == "signature") {
      if (pending.signature != nullptr) {
        return ParseError(line_number, "duplicate 'signature'");
      }
      Result<std::unique_ptr<DistinctSignature>> signature =
          ParseSignature(value, line_number);
      if (!signature.ok()) return signature.status();
      pending.signature = std::move(signature).value();
      pending.signature_line = line_number;
    } else {
      return ParseError(line_number, "unknown key '" + key + "'");
    }
  }

  if (in_block) {
    UBE_RETURN_IF_ERROR(Finish(pending, &first_signature, &universe));
  }
  return universe;
}

Result<Universe> LoadCatalogFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open catalog file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseCatalog(buffer.str());
}

std::string WriteCatalog(const Universe& universe) {
  std::string out;
  out += "# µBE source catalog — " +
         std::to_string(universe.num_sources()) + " sources\n";
  for (SourceId s = 0; s < universe.num_sources(); ++s) {
    const DataSource& source = universe.source(s);
    out += "\n[source]\n";
    out += "name        = " + source.name() + "\n";
    // A dropped shell has an empty schema; the parser accepts a missing
    // 'attributes' key for dropped sources only.
    if (!source.schema().names().empty()) {
      out += "attributes  = " + Join(source.schema().names(), " | ") + "\n";
    }
    out += "cardinality = " + std::to_string(source.cardinality()) + "\n";
    if (!source.available() || source.stats_state() != StatsState::kFresh) {
      std::string state;
      if (!source.available()) state = "dropped";
      auto append = [&state](const std::string& token) {
        if (!state.empty()) state += ",";
        state += token;
      };
      switch (source.stats_state()) {
        case StatsState::kFresh:
          break;
        case StatsState::kStale: {
          char staleness[64];
          std::snprintf(staleness, sizeof(staleness), "stale:%.17g",
                        source.staleness());
          append(staleness);
          break;
        }
        case StatsState::kPartial:
          append("partial");
          break;
        case StatsState::kMissing:
          append("missing");
          break;
      }
      out += "state       = " + state + "\n";
    }
    for (const auto& [name, value] : source.characteristics()) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.17g", value);
      out += "char." + name + " = " + buffer + "\n";
    }
    if (source.has_signature()) {
      if (const auto* pcsa =
              dynamic_cast<const PcsaSignature*>(&source.signature())) {
        out += "signature   = pcsa:" +
               std::to_string(pcsa->sketch().num_bitmaps()) + ":" +
               EncodeHexBitmaps(pcsa->sketch().bitmaps()) + "\n";
      } else if (const auto* exact = dynamic_cast<const ExactSignature*>(
                     &source.signature())) {
        std::vector<uint64_t> ids(exact->ids().begin(), exact->ids().end());
        std::sort(ids.begin(), ids.end());
        std::string list;
        for (size_t i = 0; i < ids.size(); ++i) {
          if (i > 0) list += ",";
          list += std::to_string(ids[i]);
        }
        out += "signature   = exact:" + list + "\n";
      }
      // Unknown DistinctSignature implementations are skipped (a catalog
      // can only carry the two built-in wire formats).
    }
  }
  return out;
}

}  // namespace ube
