#include "baselines/rya.h"

#include <algorithm>
#include <span>

#include "common/compression.h"
#include "common/io.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "core/modifiers.h"
#include "core/translator.h"
#include "engine/relation.h"

namespace prost::baselines {

using core::JoinTree;
using core::JoinTreeNode;
using core::NodePattern;
using core::PatternTerm;
using core::QueryResult;
using engine::Relation;
using engine::Row;
using kvstore::BigEndianKey;
using kvstore::DecodeBigEndianKey;

std::string RyaSystem::IndexKey(Layout layout, rdf::TermId a, rdf::TermId b,
                                rdf::TermId c) {
  std::string key;
  key.reserve(25);
  key.push_back(static_cast<char>(layout));
  key += BigEndianKey(a);
  key += BigEndianKey(b);
  key += BigEndianKey(c);
  return key;
}

Result<std::unique_ptr<RdfSystem>> RyaSystem::Load(
    SharedGraph graph, const cluster::ClusterConfig& cluster) {
  WallTimer timer;
  auto system = std::unique_ptr<RyaSystem>(new RyaSystem());
  system->graph_ = std::move(graph);
  const rdf::EncodedGraph& g = *system->graph_;
  const uint32_t workers = cluster.num_workers;

  system->stats_ = core::DatasetStatistics::Compute(g);

  // Accumulo execution profile: no Spark job scheduling; range scans
  // start in tens of milliseconds. This is why Rya beats everyone on the
  // most selective queries and still loses catastrophically on average.
  system->cluster_ = cluster;
  system->cluster_.stage_overhead_sec = 0.05;
  system->cluster_.query_overhead_sec = 0.02;

  // Three index layouts, bulk-loaded into one sorted key store.
  std::vector<std::string> keys;
  keys.reserve(g.size() * 3);
  for (const rdf::EncodedTriple& t : g.triples()) {
    keys.push_back(IndexKey(Layout::kSpo, t.subject, t.predicate, t.object));
    keys.push_back(IndexKey(Layout::kPos, t.predicate, t.object, t.subject));
    keys.push_back(IndexKey(Layout::kOsp, t.object, t.subject, t.predicate));
  }
  system->store_.BulkLoad(std::move(keys));
  system->metrics_.counter("rya.index.entries")
      .Add(system->store_.num_entries());
  system->metrics_.counter("rya.index.layouts").Add(3);

  // Loading simulation: parse pass + one Accumulo ingest (batch write +
  // sort) per index layout, each ~35% of a full pass.
  cluster::CostModel cost(cluster);
  uint64_t input_bytes = core::EstimateNTriplesBytes(g);
  cost.BeginStage("load: parse");
  for (uint32_t w = 0; w < workers; ++w) {
    cost.ChargeScan(w, input_bytes / workers);
    cost.ChargeLoadRows(w, g.size() / workers);
  }
  cost.EndStage();
  for (int layout = 0; layout < 3; ++layout) {
    cost.BeginStage("load: index ingest");
    for (uint32_t w = 0; w < workers; ++w) {
      cost.ChargeLoadRows(w, g.size() * 35 / 100 / workers);
    }
    cost.EndStage();
  }

  system->load_report_.input_triples = g.size();
  system->load_report_.input_bytes = input_bytes;
  system->load_report_.simulated_load_millis = cost.ElapsedMillis();
  // Accumulo stores whole lexical triples as keys, three times over.
  system->load_report_.storage_bytes = 3 * (input_bytes + 12 * g.size());
  system->load_report_.real_load_millis = timer.ElapsedMillis();
  return std::unique_ptr<RdfSystem>(std::move(system));
}

namespace {

/// A resolved position for one nested-loop step: a concrete id (constant
/// or already-bound variable) or a free variable.
struct Position {
  bool bound = false;
  rdf::TermId id = rdf::kNullTermId;
  int column = -1;  // Output/binding column when variable.
};

}  // namespace

Result<QueryResult> RyaSystem::Execute(const sparql::Query& query,
                                       obs::QueryProfile* /*profile*/) const {
  // Rya reorders joins by selectivity; reuse the translator's VP-only,
  // statistics-ordered plan as the nested-loop order.
  core::TranslatorOptions options;
  options.use_property_table = false;
  options.enable_stats_ordering = true;
  PROST_ASSIGN_OR_RETURN(
      JoinTree tree,
      core::Translate(query, stats_, graph_->dictionary(), options));

  cluster::CostModel cost(cluster_);
  cost.ChargeQueryOverhead();
  cost.BeginStage("rya index nested loop");

  std::vector<std::string> names;
  std::vector<Row> rows;
  bool first = true;
  for (const JoinTreeNode& node : tree.nodes) {
    const NodePattern& p = node.patterns[0];
    if (p.predicate == rdf::kNullTermId || p.subject.IsImpossibleConstant() ||
        p.object.IsImpossibleConstant()) {
      rows.clear();  // Unknown constant: no matches, but keep columns.
    }
    // Column resolution for this step.
    auto resolve = [&](const PatternTerm& term) {
      Position position;
      if (!term.is_variable) {
        position.bound = true;
        position.id = term.id;
        return position;
      }
      auto it = std::find(names.begin(), names.end(), term.name);
      if (it != names.end()) {
        position.bound = true;  // Bound per row; id filled in the loop.
        position.column = static_cast<int>(it - names.begin());
      } else {
        position.column = static_cast<int>(names.size());
        names.push_back(term.name);
        position.bound = false;
      }
      return position;
    };
    const bool same_var = p.subject.is_variable && p.object.is_variable &&
                          p.subject.name == p.object.name;
    Position subject = resolve(p.subject);
    // "?x p ?x": the object aliases the subject column; s == o is
    // enforced in the scan and only the subject position is written.
    Position object = same_var ? subject : resolve(p.object);

    // Probe the best index for each current binding.
    auto scan_one = [&](rdf::TermId s_id, bool s_known, rdf::TermId o_id,
                        bool o_known, const Row& base,
                        std::vector<Row>& out) {
      std::string prefix;
      Layout layout;
      if (s_known) {
        layout = Layout::kSpo;
        prefix.push_back(static_cast<char>(layout));
        prefix += BigEndianKey(s_id);
        prefix += BigEndianKey(p.predicate);
        if (o_known) prefix += BigEndianKey(o_id);
      } else if (o_known) {
        layout = Layout::kPos;
        prefix.push_back(static_cast<char>(layout));
        prefix += BigEndianKey(p.predicate);
        prefix += BigEndianKey(o_id);
      } else {
        layout = Layout::kPos;
        prefix.push_back(static_cast<char>(layout));
        prefix += BigEndianKey(p.predicate);
      }
      std::span<const std::string> keys = store_.ScanPrefix(prefix);
      // The whole nested loop runs through the client (worker 0): this
      // serialization is Rya's Achilles heel on large intermediates.
      cost.ChargeKvSeek(0, keys.size());
      for (std::string_view key : keys) {
        rdf::TermId a = DecodeBigEndianKey(key.substr(1, 8));
        rdf::TermId b = DecodeBigEndianKey(key.substr(9, 8));
        rdf::TermId c = DecodeBigEndianKey(key.substr(17, 8));
        rdf::TermId s, o;
        if (layout == Layout::kSpo) {
          s = a;
          o = c;
        } else {  // kPos: p, o, s
          o = b;
          s = c;
        }
        if (same_var && s != o) continue;
        Row row = base;
        row.resize(names.size(), rdf::kNullTermId);
        if (p.subject.is_variable && !s_known && subject.column >= 0) {
          row[static_cast<size_t>(subject.column)] = s;
        }
        if (!same_var && p.object.is_variable && !o_known &&
            object.column >= 0) {
          row[static_cast<size_t>(object.column)] = o;
        }
        out.push_back(std::move(row));
      }
    };

    std::vector<Row> next;
    if (first) {
      // Constants are "known" even when they resolve to the impossible id
      // 0 — the index prefix then simply matches nothing.
      Row empty_base;
      bool s_known = !p.subject.is_variable;
      bool o_known = !p.object.is_variable;
      scan_one(s_known ? subject.id : rdf::kNullTermId, s_known,
               o_known ? object.id : rdf::kNullTermId, o_known, empty_base,
               next);
      first = false;
    } else {
      for (const Row& base : rows) {
        rdf::TermId s_id = rdf::kNullTermId;
        bool s_known = false;
        if (!p.subject.is_variable) {
          s_id = subject.id;
          s_known = true;
        } else if (subject.bound && subject.column >= 0 &&
                   static_cast<size_t>(subject.column) < base.size()) {
          s_id = base[static_cast<size_t>(subject.column)];
          s_known = true;
        }
        rdf::TermId o_id = rdf::kNullTermId;
        bool o_known = false;
        if (!p.object.is_variable) {
          o_id = object.id;
          o_known = true;
        } else if (object.bound && object.column >= 0 &&
                   static_cast<size_t>(object.column) < base.size()) {
          o_id = base[static_cast<size_t>(object.column)];
          o_known = true;
        }
        scan_one(s_id, s_known, o_id, o_known, base, next);
      }
    }
    rows = std::move(next);
  }

  // Client-side FILTERs and solution modifiers (shared semantics),
  // charged into the same single-client stage.
  Relation bound = Relation::FromRows(names, rows, cluster_.num_workers);
  PROST_ASSIGN_OR_RETURN(
      Relation finalized,
      core::ApplyFiltersAndModifiers(std::move(bound), query,
                                     graph_->dictionary(), cost));
  cost.EndStage();

  QueryResult result;
  result.relation = std::move(finalized);
  result.simulated_millis = cost.ElapsedMillis();
  result.counters = cost.counters();
  return result;
}

Result<uint64_t> RyaSystem::PersistTo(const std::string& dir) const {
  PROST_RETURN_IF_ERROR(RemoveAllRecursively(dir));
  PROST_RETURN_IF_ERROR(MakeDirectories(dir));
  // Accumulo RFiles hold lexical triples as keys; persist each layout as
  // its key sequence in index order.
  const rdf::Dictionary& dictionary = graph_->dictionary();
  uint64_t timestamp = 0;
  for (char layout : {'s', 'p', 'o'}) {
    std::string text;
    for (std::string_view key : store_.ScanPrefix(std::string(1, layout))) {
      for (int i = 0; i < 3; ++i) {
        rdf::TermId id = DecodeBigEndianKey(key.substr(1 + 8 * i, 8));
        text += std::string(dictionary.MustLookupId(id));
        text.push_back(i == 2 ? '\n' : '\x00');
      }
      // Accumulo key metadata: every entry carries a distinct ingest
      // timestamp (plus empty column-family/visibility fields).
      ++timestamp;
      text += BigEndianKey(timestamp);
    }
    // Accumulo RFiles are block-compressed (gzip by default).
    PROST_ASSIGN_OR_RETURN(std::string compressed, DeflateCompress(text));
    std::string path = StrFormat("%s/index_%c.rf", dir.c_str(), layout);
    PROST_RETURN_IF_ERROR(WriteStringToFile(path, compressed));
  }
  return DirectorySize(dir);
}

}  // namespace prost::baselines
