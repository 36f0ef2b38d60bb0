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

  // Dense attribute indexing, names interned (and scored) in dense order.
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

const std::string& SimilarityGraph::InternedName(int32_t name) const {
  UBE_CHECK(name >= 0 && name < num_names(), "name id out of range");
  return names_[static_cast<size_t>(name)];
}

std::vector<SimilarityGraph::Edge> SimilarityGraph::EdgesOf(
    int dense_index) const {
  UBE_CHECK(dense_index >= 0 && dense_index < num_attributes(),
            "dense index out of range");
  std::vector<float> sim_of(names_.size(), -1.0f);
  for (const NameEdge& e : NameRow(NameId(dense_index))) {
    sim_of[static_cast<size_t>(e.name)] = e.similarity;
  }
  const SourceId source = attr_ids_[static_cast<size_t>(dense_index)].source;
  std::vector<Edge> edges;
  for (int b = 0; b < num_attributes(); ++b) {
    const float sim = sim_of[static_cast<size_t>(NameId(b))];
    if (sim >= 0.0f && attr_ids_[static_cast<size_t>(b)].source != source) {
      edges.push_back(Edge{b, sim});
    }
  }
  return edges;
}

size_t SimilarityGraph::num_edges() const {
  size_t endpoints = 0;
  for (int a = 0; a < num_attributes(); ++a) endpoints += EdgesOf(a).size();
  return endpoints / 2;
}

void SimilarityGraph::ShiftOffsetsAfter(SourceId source, int delta) {
  for (size_t t = static_cast<size_t>(source) + 1; t < source_offsets_.size();
       ++t) {
    source_offsets_[t] += delta;
  }
}

void SimilarityGraph::PatchSourceRemoved(SourceId source) {
  UBE_CHECK(source >= 0 && source < num_source_slots(),
            "PatchSourceRemoved: source out of range");
  const int first = source_offsets_[static_cast<size_t>(source)];
  const int last = source_offsets_[static_cast<size_t>(source) + 1];
  attr_ids_.erase(attr_ids_.begin() + first, attr_ids_.begin() + last);
  name_of_.erase(name_of_.begin() + first, name_of_.begin() + last);
  ShiftOffsetsAfter(source, first - last);
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
  const int first = source_offsets_[static_cast<size_t>(source)];
  for (int a = 0; a < schema.num_attributes(); ++a) {
    attr_ids_.insert(attr_ids_.begin() + first + a, AttributeId{source, a});
    name_of_.insert(name_of_.begin() + first + a,
                    Intern(schema.attribute_name(a)));
  }
  ShiftOffsetsAfter(source, schema.num_attributes());
}

int32_t SimilarityGraph::Intern(const std::string& name) {
  const auto [it, inserted] =
      name_ids_.try_emplace(name, static_cast<int32_t>(names_.size()));
  if (!inserted) return it->second;
  const int32_t x = it->second;
  names_.push_back(name);
  name_rows_.emplace_back();

  // Score x against every earlier name y and itself, as Score(x, y).
  std::vector<NameEdge> row;
  auto keep = [&](int32_t y, double sim) {
    if (sim >= floor_ && sim > 0.0) {
      row.push_back(NameEdge{y, static_cast<float>(sim)});
    }
  };
  if (ngram_n_ > 0) {
    // Candidates come from the postings, and the shared-gram count is
    // exactly IntersectionSize. Names with no gram in common score 0 (no
    // edge), except two empty sets, whose Jaccard is 1.
    NgramSet grams = NgramSet::Build(NormalizeAttributeName(name), ngram_n_);
    if (grams.empty()) empty_names_.push_back(x);
    for (uint64_t gram : grams.grams()) postings_[gram].push_back(x);
    ngram_sets_.push_back(std::move(grams));
    const NgramSet& mine = ngram_sets_.back();
    if (mine.empty()) {
      for (int32_t y : empty_names_) keep(y, JaccardFromCounts(0, 0, 0));
    } else {
      shared_.resize(names_.size(), 0);
      std::vector<int32_t> touched;
      for (uint64_t gram : mine.grams()) {
        for (int32_t y : postings_.find(gram)->second) {
          if (shared_[static_cast<size_t>(y)]++ == 0) touched.push_back(y);
        }
      }
      for (int32_t y : touched) {
        keep(y, JaccardFromCounts(
                    static_cast<size_t>(shared_[static_cast<size_t>(y)]),
                    mine.size(), ngram_sets_[static_cast<size_t>(y)].size()));
        shared_[static_cast<size_t>(y)] = 0;
      }
    }
  } else {
    for (int32_t y = 0; y <= x; ++y) {
      keep(y, measure_->Score(name, names_[static_cast<size_t>(y)]));
    }
  }

  // Rows run highest similarity first, ties by ascending id; x has the
  // highest id, so in an earlier name's row it goes after its equals.
  auto row_order = [](const NameEdge& a, const NameEdge& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.name < b.name;
  };
  std::sort(row.begin(), row.end(), row_order);
  for (const NameEdge& e : row) {
    if (e.name == x) continue;
    auto& other = name_rows_[static_cast<size_t>(e.name)];
    const NameEdge mirror{x, e.similarity};
    other.insert(
        std::upper_bound(other.begin(), other.end(), mirror, row_order),
        mirror);
  }
  name_rows_[static_cast<size_t>(x)] = std::move(row);
  return x;
}

void SimilarityGraph::PatchAttributeRenamed(const Universe& universe,
                                            SourceId source, int attr_index) {
  UBE_CHECK(source >= 0 && source < num_source_slots(),
            "PatchAttributeRenamed: source out of range");
  const int first = source_offsets_[static_cast<size_t>(source)];
  const int last = source_offsets_[static_cast<size_t>(source) + 1];
  UBE_CHECK(attr_index >= 0 && first + attr_index < last,
            "PatchAttributeRenamed: attr_index out of range");
  name_of_[static_cast<size_t>(first + attr_index)] =
      Intern(universe.source(source).schema().attribute_name(attr_index));
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
  attr_ids_.insert(attr_ids_.begin() + dense, AttributeId{source, attr_index});
  name_of_.insert(name_of_.begin() + dense,
                  Intern(schema.attribute_name(attr_index)));
  ShiftOffsetsAfter(source, 1);
}

void SimilarityGraph::PatchAttributeDropped(SourceId source, int attr_index) {
  UBE_CHECK(source >= 0 && source < num_source_slots(),
            "PatchAttributeDropped: source out of range");
  const int first = source_offsets_[static_cast<size_t>(source)];
  const int last = source_offsets_[static_cast<size_t>(source) + 1];
  UBE_CHECK(attr_index >= 0 && first + attr_index < last,
            "PatchAttributeDropped: attr_index out of range");
  const int dense = first + attr_index;
  attr_ids_.erase(attr_ids_.begin() + dense);
  name_of_.erase(name_of_.begin() + dense);
  ShiftOffsetsAfter(source, -1);
  // Later attributes of this source shifted down by one in the schema.
  for (int i = dense; i < last - 1; ++i) {
    attr_ids_[static_cast<size_t>(i)].attr_index -= 1;
  }
}

uint64_t SimilarityGraph::Fingerprint() const {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) { h = SplitMix64(h ^ v); };
  mix(static_cast<uint64_t>(attr_ids_.size()));
  mix(static_cast<uint64_t>(num_edges()));
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
  for (int a = 0; a < num_attributes(); ++a) {
    const std::vector<Edge> edges = EdgesOf(a);
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
