#ifndef UBE_MATCHING_SIMILARITY_GRAPH_H_
#define UBE_MATCHING_SIMILARITY_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "schema/schema.h"
#include "source/universe.h"
#include "text/ngram.h"
#include "text/similarity.h"

namespace ube {

/// Precomputed pairwise attribute-similarity structure over a universe.
///
/// The schema matching operator must "enumerate pairs of schema elements at
/// any given two sources and compute a measure of similarity between each
/// pair" (Section 2.1). Because µBE evaluates Match(S) for thousands of
/// candidate source sets during one tabu search, we compute all attribute
/// similarities once per universe and keep only the edges whose similarity
/// reaches `floor` (any matching threshold θ used later must be ≥ floor).
/// Attributes are addressed by a dense universe-wide index.
///
/// The similarity of two attributes depends only on their names, and
/// deep-web interfaces reuse labels (K distinct names ≪ n attributes), so
/// the graph is one row per interned name: the names it has an edge to,
/// highest similarity first. Each name is scored once, when interned,
/// against every earlier name and itself (for n-gram Jaccard, candidates
/// come from an inverted index over n-grams). Attributes of different
/// sources share an edge exactly when their names do; EdgesOf and
/// num_edges derive that attribute view on demand.
class SimilarityGraph {
 public:
  struct Edge {
    int32_t neighbor;   ///< dense index of the other attribute
    float similarity;   ///< in [floor, 1]
  };
  struct NameEdge {
    int32_t name;       ///< interned name id
    float similarity;   ///< in [floor, 1], and > 0
  };
  static_assert(sizeof(NameEdge) == 8, "a name-row entry is 8 bytes");

  /// Builds the graph over all cross-source attribute pairs of `universe`.
  SimilarityGraph(const Universe& universe,
                  std::unique_ptr<AttributeSimilarity> similarity,
                  double floor);

  /// Convenience: paper defaults (3-gram Jaccard; floor 0.25, and floor 0.0
  /// keeps every nonzero edge).
  static SimilarityGraph WithDefaults(const Universe& universe,
                                      double floor = 0.25);

  int num_attributes() const { return static_cast<int>(attr_ids_.size()); }
  double floor() const { return floor_; }
  const AttributeSimilarity& measure() const { return *measure_; }

  /// Dense index of an attribute; the id must be valid for the universe the
  /// graph was built on.
  int DenseIndex(const AttributeId& id) const;
  const AttributeId& AttrId(int dense_index) const;

  /// Original (un-normalized) name of the attribute at `dense_index`.
  const std::string& Name(int dense_index) const;

  /// Number of interned names. Interned names are append-only: a name no
  /// attribute uses any more keeps its id and row.
  int num_names() const { return static_cast<int>(names_.size()); }
  /// Interned name id of the attribute at `dense_index` (unchecked).
  int32_t NameId(int dense_index) const {
    return name_of_[static_cast<size_t>(dense_index)];
  }
  /// Raw text of interned name `name`.
  const std::string& InternedName(int32_t name) const;
  /// Every interned name y with s = Score(name, y) >= floor && s > 0,
  /// `name` itself included, stored as static_cast<float>(s): highest
  /// similarity first, ties by ascending name id. Unchecked.
  const std::vector<NameEdge>& NameRow(int32_t name) const {
    return name_rows_[static_cast<size_t>(name)];
  }

  /// Edges of one attribute, sorted by neighbor index: every attribute of
  /// another source whose name is in this attribute's name row. Built on
  /// each call in O(n + K).
  std::vector<Edge> EdgesOf(int dense_index) const;

  /// Exact similarity of an arbitrary attribute pair (recomputed; may be
  /// below floor). Used for user-GA quality, which has no threshold.
  double PairSimilarity(int a, int b) const;

  /// Total number of undirected attribute edges, counted through EdgesOf.
  size_t num_edges() const;

  // --- incremental maintenance (live universe, src/source/live_universe.h) --
  //
  // A patch keeps the graph byte-identical to a rebuild over the mutated
  // universe (Fingerprint()): it re-interns the changed attributes' names,
  // scoring only names never seen before, and moves offsets.

  /// Removes every attribute of `source` from the graph (the source's slot
  /// stays — it just becomes zero-width, exactly as rebuilding over a
  /// universe where the source is an empty-schema shell would). No-op when
  /// the source already has no attributes.
  void PatchSourceRemoved(SourceId source);

  /// Adds the attributes of `universe.source(source)` to the graph. The
  /// source must currently be zero-width in the graph: either a removed
  /// shell being revived, or `source == S` (one past the last indexed
  /// source), which appends a new slot — the layout a rebuild over the
  /// grown universe produces, because new sources get the highest id.
  void PatchSourceAdded(const Universe& universe, SourceId source);

  // Attribute-level patches (schema drift). The universe's schema must
  // already reflect the mutation when these are called; the graph catches up
  // to it. Same bit-identity contract as the source-level patches.

  /// Attribute `attr_index` of `source` was renamed in place: its dense
  /// index and AttributeId are unchanged, but its name is re-interned.
  void PatchAttributeRenamed(const Universe& universe, SourceId source,
                             int attr_index);

  /// A new attribute was appended to `source` (it now occupies the schema's
  /// last index — the attribute-level analogue of the dense-id rule for new
  /// sources). Inserts it at the end of the source's block.
  void PatchAttributeAdded(const Universe& universe, SourceId source);

  /// Attribute `attr_index` of `source` was removed; later attributes of
  /// the source shifted down by one. Erases it and repairs the
  /// AttributeIds of the source's later attributes.
  void PatchAttributeDropped(SourceId source, int attr_index);

  /// Order-sensitive structural hash over (offsets, attribute ids, names,
  /// the derived attribute edges including similarity float bits, edge
  /// count). Two graphs with equal fingerprints are byte-identical for
  /// every query above.
  uint64_t Fingerprint() const;

  /// Number of source slots the graph indexes (a live universe grows this
  /// via PatchSourceAdded).
  int num_source_slots() const {
    return static_cast<int>(source_offsets_.size()) - 1;
  }

 private:
  /// Returns the id of `name`. On first sight the name is interned and
  /// scored as Score(name, y) against every earlier name y and itself; each
  /// kept pair enters both rows. Construction and every patch intern here.
  int32_t Intern(const std::string& name);
  /// Moves the start of every source slot after `source` by `delta`.
  void ShiftOffsetsAfter(SourceId source, int delta);

  double floor_;
  std::unique_ptr<AttributeSimilarity> measure_;
  std::vector<AttributeId> attr_ids_;          // dense index -> id
  std::vector<int> source_offsets_;            // source -> first dense index
  std::vector<int32_t> name_of_;               // dense index -> name id

  // Interned names, indexed by name id.
  std::vector<std::string> names_;             // raw name
  std::unordered_map<std::string, int32_t> name_ids_;
  std::vector<std::vector<NameEdge>> name_rows_;
  // n-gram fast path only (ngram_n_ > 0).
  int ngram_n_ = 0;
  std::vector<NgramSet> ngram_sets_;           // name id -> n-gram set
  std::unordered_map<uint64_t, std::vector<int32_t>> postings_;  // gram -> ids
  std::vector<int32_t> empty_names_;           // ids with no n-gram
  // Intern's scratch: name id -> shared-gram count, all 0 between calls.
  std::vector<int32_t> shared_;
};

}  // namespace ube

#endif  // UBE_MATCHING_SIMILARITY_GRAPH_H_
