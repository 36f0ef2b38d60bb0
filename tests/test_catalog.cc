#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "sketch/distinct_estimator.h"
#include "workload/generator.h"

namespace ube {
namespace {

constexpr char kBasicCatalog[] = R"(# demo catalog
[source]
name        = megabooks.com
attributes  = title | author | isbn
cardinality = 60000
char.mttf   = 120
char.latency_ms = 85.5

[source]
name = rarereads.com    # trailing comment
attributes = title | condition
cardinality = 3000
signature = exact:1,2,3,42
)";

TEST(CatalogParseTest, BasicCatalog) {
  Result<Universe> universe = ParseCatalog(kBasicCatalog);
  ASSERT_TRUE(universe.ok()) << universe.status();
  ASSERT_EQ(universe->num_sources(), 2);

  const DataSource& mega = universe->source(0);
  EXPECT_EQ(mega.name(), "megabooks.com");
  EXPECT_EQ(mega.schema().names(),
            (std::vector<std::string>{"title", "author", "isbn"}));
  EXPECT_EQ(mega.cardinality(), 60000);
  EXPECT_EQ(mega.GetCharacteristic("mttf"), 120.0);
  EXPECT_EQ(mega.GetCharacteristic("latency_ms"), 85.5);
  EXPECT_FALSE(mega.has_signature());

  const DataSource& rare = universe->source(1);
  EXPECT_EQ(rare.name(), "rarereads.com");
  ASSERT_TRUE(rare.has_signature());
  EXPECT_DOUBLE_EQ(rare.signature().Estimate(), 4.0);
}

TEST(CatalogParseTest, EmptyCatalogIsEmptyUniverse) {
  Result<Universe> universe = ParseCatalog("");
  ASSERT_TRUE(universe.ok());
  EXPECT_EQ(universe->num_sources(), 0);
  universe = ParseCatalog("# only comments\n\n   \n");
  ASSERT_TRUE(universe.ok());
  EXPECT_EQ(universe->num_sources(), 0);
}

TEST(CatalogParseTest, PcsaSignatureRoundTrips) {
  PcsaSketch sketch(64);
  for (uint64_t i = 0; i < 5000; ++i) sketch.AddHash(i * 977);
  Universe original;
  DataSource source("s", SourceSchema({"a"}));
  source.set_cardinality(5000);
  source.set_signature(std::make_unique<PcsaSignature>(sketch));
  original.AddSource(std::move(source));

  Result<Universe> parsed = ParseCatalog(WriteCatalog(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_sources(), 1);
  ASSERT_TRUE(parsed->source(0).has_signature());
  const auto* pcsa =
      dynamic_cast<const PcsaSignature*>(&parsed->source(0).signature());
  ASSERT_NE(pcsa, nullptr);
  EXPECT_EQ(pcsa->sketch(), sketch);  // bit-exact round trip
}

TEST(CatalogParseTest, GeneratedWorkloadRoundTrips) {
  WorkloadConfig config;
  config.num_sources = 25;
  config.scale = 0.001;
  GeneratedWorkload workload = GenerateWorkload(config);
  std::string text = WriteCatalog(workload.universe);

  Result<Universe> parsed = ParseCatalog(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_sources(), workload.universe.num_sources());
  for (SourceId s = 0; s < parsed->num_sources(); ++s) {
    const DataSource& a = workload.universe.source(s);
    const DataSource& b = parsed->source(s);
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.schema(), b.schema());
    EXPECT_EQ(a.cardinality(), b.cardinality());
    EXPECT_EQ(a.GetCharacteristic("mttf"), b.GetCharacteristic("mttf"));
    ASSERT_EQ(a.has_signature(), b.has_signature());
    if (a.has_signature()) {
      EXPECT_DOUBLE_EQ(a.signature().Estimate(), b.signature().Estimate());
    }
  }
  // Second round trip is byte-identical (canonical form).
  EXPECT_EQ(WriteCatalog(*parsed), text);
}

TEST(CatalogParseTest, ExactSignatureRoundTripsSorted) {
  Universe original;
  DataSource source("s", SourceSchema({"a"}));
  auto sig = std::make_unique<ExactSignature>();
  sig->Add(99);
  sig->Add(7);
  sig->Add(13);
  source.set_signature(std::move(sig));
  original.AddSource(std::move(source));
  std::string text = WriteCatalog(original);
  EXPECT_NE(text.find("exact:7,13,99"), std::string::npos);
  Result<Universe> parsed = ParseCatalog(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->source(0).signature().Estimate(), 3.0);
}

struct BadCatalogCase {
  const char* label;
  const char* text;
  const char* expected_substring;
};

class CatalogErrorTest : public ::testing::TestWithParam<BadCatalogCase> {};

TEST_P(CatalogErrorTest, RejectsWithDiagnostics) {
  const BadCatalogCase& c = GetParam();
  Result<Universe> universe = ParseCatalog(c.text);
  ASSERT_FALSE(universe.ok()) << c.label;
  EXPECT_EQ(universe.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(universe.status().message().find(c.expected_substring),
            std::string::npos)
      << c.label << ": " << universe.status().message();
  // Every parse error names a line number.
  EXPECT_NE(universe.status().message().find("line"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CatalogErrorTest,
    ::testing::Values(
        BadCatalogCase{"content_before_block", "name = x\n",
                       "before the first"},
        BadCatalogCase{"unknown_section", "[sauce]\n", "unknown section"},
        BadCatalogCase{"missing_name",
                       "[source]\nattributes = a\n", "missing 'name'"},
        BadCatalogCase{"missing_attributes",
                       "[source]\nname = x\n", "missing 'attributes'"},
        BadCatalogCase{"empty_attributes",
                       "[source]\nname = x\nattributes =  | \n",
                       "at least one"},
        BadCatalogCase{"duplicate_name",
                       "[source]\nname = x\nname = y\nattributes = a\n",
                       "duplicate 'name'"},
        BadCatalogCase{"bad_cardinality",
                       "[source]\nname = x\nattributes = a\n"
                       "cardinality = -5\n",
                       "non-negative"},
        BadCatalogCase{"non_numeric_cardinality",
                       "[source]\nname = x\nattributes = a\n"
                       "cardinality = many\n",
                       "non-negative"},
        BadCatalogCase{"bad_characteristic",
                       "[source]\nname = x\nattributes = a\n"
                       "char.mttf = fast\n",
                       "must be a number"},
        BadCatalogCase{"empty_characteristic_name",
                       "[source]\nname = x\nattributes = a\nchar. = 1\n",
                       "characteristic name missing"},
        BadCatalogCase{"unknown_key",
                       "[source]\nname = x\nattributes = a\ncolour = red\n",
                       "unknown key"},
        BadCatalogCase{"missing_equals",
                       "[source]\nname = x\nattributes = a\njunk line\n",
                       "key = value"},
        BadCatalogCase{"bad_signature_kind",
                       "[source]\nname = x\nattributes = a\n"
                       "signature = bloom:64:00\n",
                       "unknown signature kind"},
        BadCatalogCase{"bad_pcsa_bitmaps",
                       "[source]\nname = x\nattributes = a\n"
                       "signature = pcsa:63:00000000\n",
                       "power of two"},
        BadCatalogCase{"bad_pcsa_hex",
                       "[source]\nname = x\nattributes = a\n"
                       "signature = pcsa:1:zzzzzzzz\n",
                       "malformed pcsa hex"},
        BadCatalogCase{"pcsa_length_mismatch",
                       "[source]\nname = x\nattributes = a\n"
                       "signature = pcsa:2:00000000\n",
                       "does not match"},
        BadCatalogCase{"bad_exact_id",
                       "[source]\nname = x\nattributes = a\n"
                       "signature = exact:1,two\n",
                       "malformed exact"},
        // Non-finite and overflowing numbers: an infinite characteristic
        // normalizes every finite one to 0 (or makes Q(S) NaN), and an
        // overflowing integer is undefined behaviour in the parser.
        BadCatalogCase{"characteristic_negative_infinity",
                       "[source]\nname = x\nattributes = a\n"
                       "char.mttf = -inf\n",
                       "must be a number"},
        BadCatalogCase{"characteristic_infinity",
                       "[source]\nname = x\nattributes = a\n"
                       "char.mttf = inf\n",
                       "must be a number"},
        BadCatalogCase{"characteristic_overflows_double",
                       "[source]\nname = x\nattributes = a\n"
                       "char.mttf = 1e309\n",
                       "must be a number"},
        BadCatalogCase{"characteristic_nan",
                       "[source]\nname = x\nattributes = a\n"
                       "char.mttf = nan\n",
                       "must be a number"},
        BadCatalogCase{"cardinality_overflows_int64",
                       "[source]\nname = x\nattributes = a\n"
                       "cardinality = 99999999999999999999\n",
                       "non-negative"},
        // Signatures of one catalog are merged into one union estimate, so
        // they must share a kind and a PCSA width.
        BadCatalogCase{"mixed_signature_kinds",
                       "[source]\nname = x\nattributes = a\n"
                       "signature = pcsa:1:00000003\n"
                       "[source]\nname = y\nattributes = a\n"
                       "signature = exact:1,2,3\n",
                       "source 'y' has a signature of format exact but "
                       "source 'x' has pcsa:1"},
        BadCatalogCase{"mixed_pcsa_widths",
                       "[source]\nname = x\nattributes = a\n"
                       "signature = pcsa:1:00000003\n"
                       "[source]\nname = y\nattributes = a\n"
                       "signature = pcsa:2:0000000300000001\n",
                       "source 'y' has a signature of format pcsa:2"}),
    [](const ::testing::TestParamInfo<BadCatalogCase>& info) {
      return info.param.label;
    });

// The generated universes carry pcsa:64 signatures. Editing the first
// source's signature to another kind or width must fail at parse time,
// naming that source and the line of its signature, instead of parsing and
// then aborting the process when a solve merges the signatures.
TEST(CatalogErrorTest, MismatchedSignatureInGeneratedCatalogNamesItsLine) {
  WorkloadConfig config;
  config.num_sources = 30;
  config.seed = 7;
  config.scale = 0.01;
  GeneratedWorkload workload = GenerateWorkload(config);
  const std::string text = WriteCatalog(workload.universe);
  ASSERT_TRUE(ParseCatalog(text).ok());

  // Name of the [source] block that contains text position `at`.
  auto owner = [](const std::string& catalog, size_t at) {
    const std::string key = "name        = ";
    const size_t name_at = catalog.rfind(key, at) + key.size();
    return catalog.substr(name_at, catalog.find('\n', name_at) - name_at);
  };
  auto line_of = [](const std::string& catalog, size_t at) {
    return 1 + static_cast<int>(std::count(
                   catalog.begin(), catalog.begin() + at, '\n'));
  };
  const std::string kPcsa64 = "signature   = pcsa:64:";
  const size_t at = text.find(kPcsa64);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(owner(text, at), workload.universe.source(0).name());
  const size_t end = text.find('\n', at);
  const std::pair<std::string, std::string> kEdits[] = {
      {"signature   = exact:1,2,3", "exact"},
      {"signature   = pcsa:32:" + std::string(32 * 8, '0'), "pcsa:32"}};
  for (const auto& [replacement, format] : kEdits) {
    SCOPED_TRACE(format);
    std::string edited = text;
    edited.replace(at, end - at, replacement);
    Result<Universe> parsed = ParseCatalog(edited);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    const std::string& message = parsed.status().message();
    // The edited first source sets the format, so the next signed source
    // is the first one whose signature differs from it.
    const size_t next = edited.find(kPcsa64, at);
    ASSERT_NE(next, std::string::npos);
    EXPECT_NE(message.find("line " + std::to_string(line_of(edited, next)) +
                           ": source '" + owner(edited, next) +
                           "' has a signature of format pcsa:64 but source '" +
                           owner(edited, at) + "' has " + format + ";"),
              std::string::npos)
        << message;
  }
}

TEST(CatalogErrorTest, ErrorReportsCorrectLineNumber) {
  Result<Universe> universe =
      ParseCatalog("[source]\nname = x\nattributes = a\n\nbroken\n");
  ASSERT_FALSE(universe.ok());
  EXPECT_NE(universe.status().message().find("line 5"), std::string::npos);
}

TEST(CatalogStateTest, FreshSourceEmitsNoStateKey) {
  Universe universe;
  universe.AddSource(DataSource("s", SourceSchema({"a"})));
  EXPECT_EQ(WriteCatalog(universe).find("state"), std::string::npos);
}

TEST(CatalogStateTest, StateRoundTripsEveryCombination) {
  Universe original;
  {
    DataSource dropped("gone.com", SourceSchema());
    dropped.set_available(false);
    dropped.set_stats_state(StatsState::kMissing);
    original.AddSource(std::move(dropped));
  }
  {
    DataSource stale("stale.com", SourceSchema({"title", "author"}));
    stale.set_cardinality(123);
    stale.set_stats_state(StatsState::kStale, 0.375);
    original.AddSource(std::move(stale));
  }
  {
    DataSource partial("partial.com", SourceSchema({"title"}));
    partial.set_stats_state(StatsState::kPartial);
    original.AddSource(std::move(partial));
  }
  {
    DataSource fresh("fresh.com", SourceSchema({"isbn"}));
    original.AddSource(std::move(fresh));
  }

  std::string text = WriteCatalog(original);
  Result<Universe> parsed = ParseCatalog(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_sources(), 4);
  for (SourceId s = 0; s < 4; ++s) {
    const DataSource& a = original.source(s);
    const DataSource& b = parsed->source(s);
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.schema(), b.schema());
    EXPECT_EQ(a.available(), b.available()) << a.name();
    EXPECT_EQ(a.stats_state(), b.stats_state()) << a.name();
    EXPECT_EQ(a.staleness(), b.staleness()) << a.name();  // bit-exact %.17g
  }
  // Second round trip is byte-identical (canonical form).
  EXPECT_EQ(WriteCatalog(*parsed), text);
}

TEST(CatalogStateTest, DroppedShellMayOmitAttributes) {
  Result<Universe> parsed = ParseCatalog(
      "[source]\nname = ghost\ncardinality = 0\nstate = dropped,missing\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_sources(), 1);
  EXPECT_FALSE(parsed->source(0).available());
  EXPECT_EQ(parsed->source(0).stats_state(), StatsState::kMissing);
  EXPECT_TRUE(parsed->source(0).schema().names().empty());
}

TEST(CatalogStateTest, ExplicitFreshTokenAccepted) {
  Result<Universe> parsed =
      ParseCatalog("[source]\nname = x\nattributes = a\nstate = fresh\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->source(0).stats_fresh());
}

INSTANTIATE_TEST_SUITE_P(
    StateCases, CatalogErrorTest,
    ::testing::Values(
        BadCatalogCase{"unknown_state_token",
                       "[source]\nname = x\nattributes = a\nstate = zombie\n",
                       "unknown 'state' token"},
        BadCatalogCase{"duplicate_state_key",
                       "[source]\nname = x\nattributes = a\n"
                       "state = missing\nstate = partial\n",
                       "duplicate 'state'"},
        BadCatalogCase{"duplicate_dropped_token",
                       "[source]\nname = x\nattributes = a\n"
                       "state = dropped,dropped\n",
                       "duplicate 'dropped'"},
        BadCatalogCase{"two_stats_tokens",
                       "[source]\nname = x\nattributes = a\n"
                       "state = missing,partial\n",
                       "more than one statistics token"},
        BadCatalogCase{"empty_state",
                       "[source]\nname = x\nattributes = a\nstate =  ,\n",
                       "at least one token"},
        BadCatalogCase{"stale_out_of_range",
                       "[source]\nname = x\nattributes = a\n"
                       "state = stale:1.5\n",
                       "(0, 1]"},
        BadCatalogCase{"stale_not_numeric",
                       "[source]\nname = x\nattributes = a\n"
                       "state = stale:very\n",
                       "(0, 1]"},
        BadCatalogCase{"stale_nan",
                       "[source]\nname = x\nattributes = a\n"
                       "state = stale:nan\n",
                       "(0, 1]"},
        BadCatalogCase{"missing_attributes_still_errors_when_not_dropped",
                       "[source]\nname = x\nstate = missing\n",
                       "missing 'attributes'"}),
    [](const ::testing::TestParamInfo<BadCatalogCase>& info) {
      return info.param.label;
    });

TEST(CatalogFileTest, SaveAndLoadRoundTrip) {
  WorkloadConfig config;
  config.num_sources = 8;
  config.scale = 0.001;
  GeneratedWorkload workload = GenerateWorkload(config);
  std::string path = ::testing::TempDir() + "/ube_catalog_test.txt";
  {
    std::ofstream file(path);
    ASSERT_TRUE(file.good()) << path;
    file << WriteCatalog(workload.universe);
  }
  Result<Universe> loaded = LoadCatalogFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_sources(), 8);
  std::remove(path.c_str());
}

TEST(CatalogFileTest, MissingFileIsNotFound) {
  Result<Universe> loaded = LoadCatalogFile("/no/such/file.catalog");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ube
