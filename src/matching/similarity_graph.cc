#include "matching/similarity_graph.h"

#include <algorithm>
#include <bit>

#include "util/check.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ube {

SimilarityGraph::SimilarityGraph(
    const Universe& universe, std::unique_ptr<AttributeSimilarity> similarity,
    double floor)
    : floor_(floor), measure_(std::move(similarity)) {
  UBE_CHECK(measure_ != nullptr, "SimilarityGraph requires a measure");
  UBE_CHECK(floor_ >= 0.0 && floor_ <= 1.0, "floor must be in [0, 1]");
  if (const auto* ngram =
          dynamic_cast<const NgramJaccardSimilarity*>(measure_.get())) {
    ngram_n_ = ngram->n();
  }

  // Dense attribute indexing, names interned. Attributes of the same source
  // never get edges (a valid GA cannot contain two attributes of one
  // source), so each row skips its own source block.
  source_offsets_.reserve(static_cast<size_t>(universe.num_sources()) + 1);
  for (SourceId s = 0; s < universe.num_sources(); ++s) {
    source_offsets_.push_back(static_cast<int>(attr_ids_.size()));
    const SourceSchema& schema = universe.source(s).schema();
    for (int a = 0; a < schema.num_attributes(); ++a) {
      attr_ids_.push_back(AttributeId{s, a});
      name_of_.push_back(Intern(schema.attribute_name(a)));
    }
  }
  source_offsets_.push_back(static_cast<int>(attr_ids_.size()));
  adjacency_.resize(attr_ids_.size());
  FillRows(0, num_attributes());
}

SimilarityGraph SimilarityGraph::WithDefaults(const Universe& universe,
                                              double floor) {
  return SimilarityGraph(universe, MakeDefaultSimilarity(), floor);
}

int SimilarityGraph::DenseIndex(const AttributeId& id) const {
  UBE_CHECK(id.source >= 0 &&
                id.source + 1 < static_cast<int>(source_offsets_.size()),
            "AttributeId source out of range");
  int base = source_offsets_[static_cast<size_t>(id.source)];
  int next = source_offsets_[static_cast<size_t>(id.source) + 1];
  UBE_CHECK(id.attr_index >= 0 && base + id.attr_index < next,
            "AttributeId attr_index out of range");
  return base + id.attr_index;
}

const AttributeId& SimilarityGraph::AttrId(int dense_index) const {
  UBE_CHECK(dense_index >= 0 && dense_index < num_attributes(),
            "dense index out of range");
  return attr_ids_[static_cast<size_t>(dense_index)];
}

const std::string& SimilarityGraph::Name(int dense_index) const {
  UBE_CHECK(dense_index >= 0 && dense_index < num_attributes(),
            "dense index out of range");
  return names_[static_cast<size_t>(
      name_of_[static_cast<size_t>(dense_index)])];
}

const std::vector<SimilarityGraph::Edge>& SimilarityGraph::EdgesOf(
    int dense_index) const {
  UBE_CHECK(dense_index >= 0 && dense_index < num_attributes(),
            "dense index out of range");
  return adjacency_[static_cast<size_t>(dense_index)];
}

void SimilarityGraph::PatchSourceRemoved(SourceId source) {
  UBE_CHECK(source >= 0 && source < num_source_slots(),
            "PatchSourceRemoved: source out of range");
  const int first = source_offsets_[static_cast<size_t>(source)];
  const int last = source_offsets_[static_cast<size_t>(source) + 1];
  const int count = last - first;
  if (count == 0) return;

  // Every edge of a removed row has its other endpoint outside the removed
  // block (same-source pairs never get edges), so each removed edge shows
  // up exactly once across the removed rows.
  for (int i = first; i < last; ++i) {
    num_edges_ -= adjacency_[static_cast<size_t>(i)].size();
  }
  adjacency_.erase(adjacency_.begin() + first, adjacency_.begin() + last);
  attr_ids_.erase(attr_ids_.begin() + first, attr_ids_.begin() + last);
  name_of_.erase(name_of_.begin() + first, name_of_.begin() + last);
  // Surviving rows: drop edges into the removed block, shift indexes past
  // it. The index mapping is monotonic, so rows stay sorted by neighbor.
  for (auto& edges : adjacency_) {
    size_t keep = 0;
    for (Edge edge : edges) {
      if (edge.neighbor >= first && edge.neighbor < last) continue;
      if (edge.neighbor >= last) edge.neighbor -= count;
      edges[keep++] = edge;
    }
    edges.resize(keep);
  }
  for (size_t t = static_cast<size_t>(source) + 1; t < source_offsets_.size();
       ++t) {
    source_offsets_[t] -= count;
  }
}

void SimilarityGraph::PatchSourceAdded(const Universe& universe,
                                       SourceId source) {
  UBE_CHECK(source >= 0 && source <= num_source_slots(),
            "PatchSourceAdded: source out of range");
  if (source == num_source_slots()) {
    // Brand-new source: append a zero-width slot at the tail — exactly
    // where a rebuild over the grown universe puts it.
    source_offsets_.push_back(source_offsets_.back());
  }
  UBE_CHECK(source_offsets_[static_cast<size_t>(source)] ==
                source_offsets_[static_cast<size_t>(source) + 1],
            "PatchSourceAdded: source still has attributes; remove it first");
  const SourceSchema& schema = universe.source(source).schema();
  const int add = schema.num_attributes();
  if (add == 0) return;
  const int first = source_offsets_[static_cast<size_t>(source)];

  // Renumber existing rows past the insertion point, then splice in the new
  // block. The shift is monotonic, so rows stay sorted.
  for (auto& edges : adjacency_) {
    for (Edge& edge : edges) {
      if (edge.neighbor >= first) edge.neighbor += add;
    }
  }
  for (size_t t = static_cast<size_t>(source) + 1; t < source_offsets_.size();
       ++t) {
    source_offsets_[t] += add;
  }
  attr_ids_.insert(attr_ids_.begin() + first, static_cast<size_t>(add),
                   AttributeId{});
  name_of_.insert(name_of_.begin() + first, static_cast<size_t>(add), 0);
  adjacency_.insert(adjacency_.begin() + first, static_cast<size_t>(add),
                    std::vector<Edge>());
  for (int a = 0; a < add; ++a) {
    const size_t dense = static_cast<size_t>(first + a);
    attr_ids_[dense] = AttributeId{source, a};
    name_of_[dense] = Intern(schema.attribute_name(a));
  }
  // Only edges incident to the new block are computed, by the routine
  // construction uses, so the floats match a from-scratch rebuild bit for
  // bit.
  FillRows(first, first + add);
}

void SimilarityGraph::EraseRowEdges(int dense) {
  auto& row = adjacency_[static_cast<size_t>(dense)];
  for (const Edge& edge : row) {
    auto& other = adjacency_[static_cast<size_t>(edge.neighbor)];
    auto it = std::lower_bound(other.begin(), other.end(), dense,
                               [](const Edge& e, int idx) {
                                 return e.neighbor < idx;
                               });
    UBE_CHECK(it != other.end() && it->neighbor == dense,
              "EraseRowEdges: mirror edge missing");
    other.erase(it);
  }
  num_edges_ -= row.size();
  row.clear();
}

int32_t SimilarityGraph::Intern(const std::string& name) {
  const auto [it, inserted] =
      name_ids_.try_emplace(name, static_cast<int32_t>(names_.size()));
  if (!inserted) return it->second;
  const int32_t id = it->second;
  names_.push_back(name);
  if (ngram_n_ > 0) {
    NgramSet grams = NgramSet::Build(NormalizeAttributeName(name), ngram_n_);
    if (grams.empty()) empty_names_.push_back(id);
    for (uint64_t gram : grams.grams()) postings_[gram].push_back(id);
    ngram_sets_.push_back(std::move(grams));
  }
  return id;
}

void SimilarityGraph::FillRows(int first, int last) {
  const size_t num_names = names_.size();

  // The distinct names of the rows; slot_of maps a name to its sparse row.
  std::vector<int32_t> slot_of(num_names, -1);
  std::vector<int32_t> row_names;
  for (int a = first; a < last; ++a) {
    UBE_CHECK(adjacency_[static_cast<size_t>(a)].empty(),
              "FillRows: rows must be empty");
    const int32_t x = name_of_[static_cast<size_t>(a)];
    if (slot_of[static_cast<size_t>(x)] < 0) {
      slot_of[static_cast<size_t>(x)] = static_cast<int32_t>(row_names.size());
      row_names.push_back(x);
    }
  }

  // Score each row name x against every interned name y, each unordered
  // pair once: a pair of two row names is scored from the higher id's turn.
  // A name row keeps only the names it has an edge to (Edge::neighbor is a
  // name id here).
  std::vector<std::vector<Edge>> name_rows(row_names.size());
  auto scored_elsewhere = [&slot_of](int32_t x, int32_t y) {
    return y > x && slot_of[static_cast<size_t>(y)] >= 0;
  };
  auto keep = [&](int32_t x, int32_t y, double sim) {
    if (!(sim >= floor_ && sim > 0.0)) return;
    const float stored = static_cast<float>(sim);
    name_rows[static_cast<size_t>(slot_of[static_cast<size_t>(x)])].push_back(
        Edge{y, stored});
    const int32_t y_slot = slot_of[static_cast<size_t>(y)];
    if (y != x && y_slot >= 0) {
      name_rows[static_cast<size_t>(y_slot)].push_back(Edge{x, stored});
    }
  };
  if (ngram_n_ > 0) {
    // Candidates come from the postings, and the shared-gram count is
    // exactly IntersectionSize. Names with no gram in common score 0 (no
    // edge), except two empty sets, whose Jaccard is 1.
    std::vector<int32_t> shared(num_names, 0);
    std::vector<int32_t> touched;
    for (int32_t x : row_names) {
      const NgramSet& grams = ngram_sets_[static_cast<size_t>(x)];
      if (grams.empty()) {
        for (int32_t y : empty_names_) {
          if (!scored_elsewhere(x, y)) keep(x, y, JaccardFromCounts(0, 0, 0));
        }
        continue;
      }
      for (uint64_t gram : grams.grams()) {
        for (int32_t y : postings_.find(gram)->second) {
          if (scored_elsewhere(x, y)) continue;
          if (shared[static_cast<size_t>(y)]++ == 0) touched.push_back(y);
        }
      }
      for (int32_t y : touched) {
        keep(x, y,
             JaccardFromCounts(
                 static_cast<size_t>(shared[static_cast<size_t>(y)]),
                 grams.size(), ngram_sets_[static_cast<size_t>(y)].size()));
        shared[static_cast<size_t>(y)] = 0;
      }
      touched.clear();
    }
  } else {
    for (int32_t x : row_names) {
      for (int32_t y = 0; y < static_cast<int32_t>(num_names); ++y) {
        if (scored_elsewhere(x, y)) continue;
        keep(x, y,
             measure_->Score(names_[static_cast<size_t>(x)],
                             names_[static_cast<size_t>(y)]));
      }
    }
  }

  // Fill the attribute rows by lookup: scatter the row's name row into a
  // dense per-name scratch row, then visit every attribute outside the
  // row's source block in dense order. Row b < a inside [first, last) has
  // already emitted its edge to a, so the lower scan stops at `first`;
  // [first, last) is either the whole graph or part of one source block.
  constexpr float kNoEdge = -1.0f;
  std::vector<float> sim_of(num_names, kNoEdge);
  const int n = num_attributes();
  for (int a = first; a < last; ++a) {
    const std::vector<Edge>& name_row = name_rows[static_cast<size_t>(
        slot_of[static_cast<size_t>(name_of_[static_cast<size_t>(a)])])];
    for (const Edge& e : name_row) {
      sim_of[static_cast<size_t>(e.neighbor)] = e.similarity;
    }
    const SourceId source = attr_ids_[static_cast<size_t>(a)].source;
    const int block_first = source_offsets_[static_cast<size_t>(source)];
    const int block_last = source_offsets_[static_cast<size_t>(source) + 1];
    auto& row = adjacency_[static_cast<size_t>(a)];
    auto add_edge = [&](int b, float sim) {
      row.push_back(Edge{b, sim});
      // Mirror into b's row. During construction every earlier mirror came
      // from a lower row, so it appends; a patch inserts in place.
      auto& other = adjacency_[static_cast<size_t>(b)];
      if (other.empty() || other.back().neighbor < a) {
        other.push_back(Edge{a, sim});
      } else {
        other.insert(std::lower_bound(other.begin(), other.end(), a,
                                      [](const Edge& e, int idx) {
                                        return e.neighbor < idx;
                                      }),
                     Edge{a, sim});
      }
      ++num_edges_;
    };
    const int32_t* names = name_of_.data();
    const float* sims = sim_of.data();
    const int ranges[2][2] = {{0, std::min(block_first, first)},
                              {block_last, n}};
    for (const auto& [lo, hi] : ranges) {
      for (int b = lo; b < hi; ++b) {
        const float sim = sims[names[b]];
        if (sim >= 0.0f) add_edge(b, sim);
      }
    }
    for (const Edge& e : name_row) {
      sim_of[static_cast<size_t>(e.neighbor)] = kNoEdge;
    }
    // b ran ascending, so the row is sorted by neighbor.
    UBE_DCHECK(std::is_sorted(row.begin(), row.end(),
                              [](const Edge& x, const Edge& y) {
                                return x.neighbor < y.neighbor;
                              }),
               "FillRows: row not sorted by neighbor");
  }
}

void SimilarityGraph::PatchAttributeRenamed(const Universe& universe,
                                            SourceId source, int attr_index) {
  UBE_CHECK(source >= 0 && source < num_source_slots(),
            "PatchAttributeRenamed: source out of range");
  const int first = source_offsets_[static_cast<size_t>(source)];
  const int last = source_offsets_[static_cast<size_t>(source) + 1];
  UBE_CHECK(attr_index >= 0 && first + attr_index < last,
            "PatchAttributeRenamed: attr_index out of range");
  const int dense = first + attr_index;
  name_of_[static_cast<size_t>(dense)] =
      Intern(universe.source(source).schema().attribute_name(attr_index));
  EraseRowEdges(dense);
  FillRows(dense, dense + 1);
}

void SimilarityGraph::PatchAttributeAdded(const Universe& universe,
                                          SourceId source) {
  UBE_CHECK(source >= 0 && source < num_source_slots(),
            "PatchAttributeAdded: source out of range");
  const SourceSchema& schema = universe.source(source).schema();
  const int first = source_offsets_[static_cast<size_t>(source)];
  const int old_width = source_offsets_[static_cast<size_t>(source) + 1] - first;
  UBE_CHECK(schema.num_attributes() == old_width + 1,
            "PatchAttributeAdded: schema must have exactly one new attribute");
  const int attr_index = old_width;  // appended at the end of the block
  const int dense = first + attr_index;

  // Renumber existing rows at or past the insertion point, then splice the
  // new (empty) row in. The shift is monotonic, so rows stay sorted.
  for (auto& edges : adjacency_) {
    for (Edge& edge : edges) {
      if (edge.neighbor >= dense) edge.neighbor += 1;
    }
  }
  for (size_t t = static_cast<size_t>(source) + 1; t < source_offsets_.size();
       ++t) {
    source_offsets_[t] += 1;
  }
  attr_ids_.insert(attr_ids_.begin() + dense, AttributeId{source, attr_index});
  name_of_.insert(name_of_.begin() + dense,
                  Intern(schema.attribute_name(attr_index)));
  adjacency_.insert(adjacency_.begin() + dense, std::vector<Edge>());
  FillRows(dense, dense + 1);
}

void SimilarityGraph::PatchAttributeDropped(SourceId source, int attr_index) {
  UBE_CHECK(source >= 0 && source < num_source_slots(),
            "PatchAttributeDropped: source out of range");
  const int first = source_offsets_[static_cast<size_t>(source)];
  const int last = source_offsets_[static_cast<size_t>(source) + 1];
  UBE_CHECK(attr_index >= 0 && first + attr_index < last,
            "PatchAttributeDropped: attr_index out of range");
  const int dense = first + attr_index;

  EraseRowEdges(dense);
  adjacency_.erase(adjacency_.begin() + dense);
  attr_ids_.erase(attr_ids_.begin() + dense);
  name_of_.erase(name_of_.begin() + dense);

  // No row points at `dense` anymore; shift every later index down. The
  // mapping is monotonic, so rows stay sorted by neighbor.
  for (auto& edges : adjacency_) {
    for (Edge& edge : edges) {
      if (edge.neighbor > dense) edge.neighbor -= 1;
    }
  }
  for (size_t t = static_cast<size_t>(source) + 1; t < source_offsets_.size();
       ++t) {
    source_offsets_[t] -= 1;
  }
  // Later attributes of this source shifted down by one in the schema.
  for (int i = dense; i < last - 1; ++i) {
    attr_ids_[static_cast<size_t>(i)].attr_index -= 1;
  }
}

uint64_t SimilarityGraph::Fingerprint() const {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) { h = SplitMix64(h ^ v); };
  mix(static_cast<uint64_t>(attr_ids_.size()));
  mix(static_cast<uint64_t>(num_edges_));
  for (int offset : source_offsets_) mix(static_cast<uint64_t>(offset));
  for (const AttributeId& id : attr_ids_) {
    mix((static_cast<uint64_t>(static_cast<uint32_t>(id.source)) << 32) |
        static_cast<uint32_t>(id.attr_index));
  }
  for (int32_t name_id : name_of_) {
    const std::string& name = names_[static_cast<size_t>(name_id)];
    uint64_t inner = 1469598103934665603ull;
    for (char c : name) inner = (inner ^ static_cast<uint8_t>(c)) * 1099511628211ull;
    mix(inner);
  }
  for (const auto& edges : adjacency_) {
    mix(static_cast<uint64_t>(edges.size()));
    for (const Edge& edge : edges) {
      mix((static_cast<uint64_t>(static_cast<uint32_t>(edge.neighbor)) << 32) |
          std::bit_cast<uint32_t>(edge.similarity));
    }
  }
  return h;
}

double SimilarityGraph::PairSimilarity(int a, int b) const {
  UBE_DCHECK(a >= 0 && a < num_attributes() && b >= 0 && b < num_attributes(),
             "dense index out of range");
  const size_t x = static_cast<size_t>(name_of_[static_cast<size_t>(a)]);
  const size_t y = static_cast<size_t>(name_of_[static_cast<size_t>(b)]);
  if (ngram_n_ > 0) return ngram_sets_[x].Jaccard(ngram_sets_[y]);
  return measure_->Score(names_[x], names_[y]);
}

}  // namespace ube
