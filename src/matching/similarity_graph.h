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
/// candidate source sets during one tabu search, we compute all cross-source
/// attribute similarities once per universe and keep only the edges whose
/// similarity reaches `floor` (any matching threshold θ used later must be
/// ≥ floor). Attributes are addressed by a dense universe-wide index.
///
/// The graph owns its similarity measure. Attribute names are interned, and
/// the similarity of each distinct name pair is computed at most once per
/// build: deep-web interfaces reuse labels, so K distinct names are far fewer
/// than n attributes. For the paper's default n-gram Jaccard measure the
/// candidate names come from an inverted index over n-grams and each score
/// from a shared-gram count; other measures score every distinct name pair.
/// Each name keeps a sparse row of the names it has an edge to, and the
/// attribute rows are filled by lookup. Construction costs the walk over
/// each name's posting lists plus an n²/2 lookup scan with a small constant;
/// no K² table is stored.
class SimilarityGraph {
 public:
  struct Edge {
    int32_t neighbor;   ///< dense index of the other attribute
    float similarity;   ///< in [floor, 1]
  };

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

  /// Edges of one attribute, sorted by neighbor index. Only cross-source
  /// pairs with similarity >= floor appear.
  const std::vector<Edge>& EdgesOf(int dense_index) const;

  /// Exact similarity of an arbitrary attribute pair (recomputed; may be
  /// below floor). Used for user-GA quality, which has no threshold.
  double PairSimilarity(int a, int b) const;

  /// Total number of stored undirected edges.
  size_t num_edges() const { return num_edges_; }

  // --- incremental maintenance (live universe, src/source/live_universe.h) --
  //
  // The patch operations keep the graph byte-identical to a from-scratch
  // rebuild over the mutated universe (Fingerprint() is the oracle the
  // property suite checks): only edges incident to the changed source are
  // recomputed, every other row is renumbered in place. A recomputed row
  // costs one name row (its name scored against the K interned names) plus
  // a lookup scan over the n attributes; the renumbering is O(E).

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
  /// Similarities are computed with the same code path as construction, so
  /// edge floats match a rebuild bit for bit.
  void PatchSourceAdded(const Universe& universe, SourceId source);

  // Attribute-level patches (schema drift). The universe's schema must
  // already reflect the mutation when these are called; the graph catches up
  // to it. Same bit-identity contract as the source-level patches.

  /// Attribute `attr_index` of `source` was renamed in place: its dense
  /// index and AttributeId are unchanged, but its name is re-interned and
  /// every incident edge recomputed.
  void PatchAttributeRenamed(const Universe& universe, SourceId source,
                             int attr_index);

  /// A new attribute was appended to `source` (it now occupies the schema's
  /// last index — the attribute-level analogue of the dense-id rule for new
  /// sources). Inserts its row at the end of the source's block, renumbers
  /// later rows, and computes its edges.
  void PatchAttributeAdded(const Universe& universe, SourceId source);

  /// Attribute `attr_index` of `source` was removed; later attributes of
  /// the source shifted down by one. Erases the row, renumbers, and repairs
  /// the AttributeIds of the source's later attributes.
  void PatchAttributeDropped(SourceId source, int attr_index);

  /// Order-sensitive structural hash over (offsets, attribute ids, names,
  /// adjacency including similarity float bits, edge count). Two graphs
  /// with equal fingerprints are byte-identical for every query above.
  uint64_t Fingerprint() const;

  /// Number of source slots the graph indexes (a live universe grows this
  /// via PatchSourceAdded).
  int num_source_slots() const {
    return static_cast<int>(source_offsets_.size()) - 1;
  }

 private:
  /// Drops every edge incident to row `dense` (mirrors included) and clears
  /// the row.
  void EraseRowEdges(int dense);
  /// Returns the id of `name`, interning it (and indexing its n-grams) on
  /// first sight. Interned names are append-only; a name no attribute uses
  /// any more stays, but is never looked up by an attribute row.
  int32_t Intern(const std::string& name);
  /// Computes the edges of rows [first, last) against every attribute
  /// outside each row's own source block, mirroring each edge into the
  /// neighbor's sorted row. The rows must be empty, and [first, last) is
  /// either every row (construction) or lies inside one source block (the
  /// patches). Construction and every patch that recomputes rows go through
  /// here, so edge floats match a rebuild bit for bit.
  void FillRows(int first, int last);

  double floor_;
  std::unique_ptr<AttributeSimilarity> measure_;
  std::vector<AttributeId> attr_ids_;          // dense index -> id
  std::vector<int> source_offsets_;            // source -> first dense index
  std::vector<int32_t> name_of_;               // dense index -> name id
  std::vector<std::vector<Edge>> adjacency_;
  size_t num_edges_ = 0;

  // Interned names, indexed by name id.
  std::vector<std::string> names_;             // raw name
  std::unordered_map<std::string, int32_t> name_ids_;
  // n-gram fast path only (ngram_n_ > 0).
  int ngram_n_ = 0;
  std::vector<NgramSet> ngram_sets_;           // name id -> n-gram set
  std::unordered_map<uint64_t, std::vector<int32_t>> postings_;  // gram -> ids
  std::vector<int32_t> empty_names_;           // ids with no n-gram
};

}  // namespace ube

#endif  // UBE_MATCHING_SIMILARITY_GRAPH_H_
