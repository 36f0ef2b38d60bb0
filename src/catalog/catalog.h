#ifndef UBE_CATALOG_CATALOG_H_
#define UBE_CATALOG_CATALOG_H_

#include <string>
#include <string_view>

#include "source/universe.h"
#include "util/result.h"

namespace ube {

/// Text catalog of data-source descriptions — the user-provided input path
/// of Figure 2 ("such descriptions can be obtained from a hidden Web search
/// engine or some other source discovery mechanism, or they can be provided
/// by the user").
///
/// Format (line oriented, '#' starts a comment):
///
///   [source]
///   name        = megabooks.com
///   attributes  = title | author | isbn | price
///   cardinality = 60000
///   char.mttf   = 120
///   char.latency_ms = 85.5
///   # optional cooperating-source signature; bitmaps as 8-hex-digit words
///   signature   = pcsa:64:00000007f3a1...
///   # or, for tiny sources / tests, an explicit id set:
///   signature   = exact:17,42,99
///   # optional acquisition state: 'dropped' and/or one statistics token
///   # (fresh | stale:<staleness> | partial | missing), comma separated.
///   # Omitted = available with fresh statistics.
///   state       = dropped,missing
///
/// Every `[source]` block requires `name` and `attributes` — except that a
/// `dropped` source (the prober's unavailable shell, whose schema is empty)
/// may omit `attributes`. Everything else is optional. Unknown keys and
/// unknown `state` tokens are errors (catching typos beats silently
/// ignoring a misspelled characteristic). Numbers must be finite (no `inf`,
/// `nan` or overflowing literal) and integers must fit in 64 bits. Every
/// signature of one catalog must have the same kind, and PCSA signatures
/// the same bitmap count, because a solve merges them into one union
/// estimate; the error names the first source that differs.
///
/// The writer emits the same format, so catalogs round-trip:
/// ParseCatalog(WriteCatalog(u)) reproduces u exactly (including PCSA
/// bitmaps, availability and statistics state; exact signatures round-trip
/// as sorted id lists).

/// Parses a catalog from text. Errors carry 1-based line numbers.
Result<Universe> ParseCatalog(std::string_view text);

/// Reads and parses a catalog file.
Result<Universe> LoadCatalogFile(const std::string& path);

/// Serializes a universe into catalog text.
std::string WriteCatalog(const Universe& universe);

}  // namespace ube

#endif  // UBE_CATALOG_CATALOG_H_
