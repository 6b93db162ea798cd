#include "core/translator.h"

#include <algorithm>
#include <map>

namespace prost::core {
namespace {

/// Minimum same-subject group size that becomes a PT node. The paper
/// uses 2 ("all the other groups with a single triple pattern are
/// translated to nodes that will use the vertical partitioning tables").
constexpr size_t kMinGroupSize = 2;

PatternTerm Resolve(const rdf::Term& term, const rdf::Dictionary& dictionary) {
  if (term.is_variable()) return PatternTerm::Var(term.value);
  // Unknown constants resolve to id 0, which matches nothing.
  return PatternTerm::Const(dictionary.Lookup(term.ToNTriples()));
}

/// Grouping key for a pattern position: variables key by name, constants
/// by lexical form.
std::string GroupKey(const rdf::Term& term) {
  return term.is_variable() ? "?" + term.value : term.ToNTriples();
}

/// §3.3 cardinality estimate for a node.
double EstimateNode(const JoinTreeNode& node, const DatasetStatistics& stats) {
  if (node.kind == NodeKind::kVerticalPartitioning) {
    return stats.EstimatePatternCardinality(node.patterns[0].source,
                                            node.patterns[0].predicate);
  }
  // Property Table group: the row driver is the most selective pattern.
  // A constant object ("literal") caps the estimate hard, implementing
  // "the presence of a triple pattern with a literal is weighted heavily".
  double best = -1;
  for (const NodePattern& p : node.patterns) {
    rdf::PredicateStats s = stats.ForPredicate(p.predicate);
    double estimate;
    if (s.triple_count == 0) {
      estimate = 0;
    } else if (node.kind == NodeKind::kPropertyTable) {
      estimate = p.object.is_variable
                     ? static_cast<double>(s.distinct_subjects)
                     : static_cast<double>(s.triple_count) /
                           std::max<uint64_t>(1, s.distinct_objects);
      if (!p.subject.is_variable) estimate = std::min(estimate, 1.0);
    } else {  // Reverse PT: symmetric, keyed on objects.
      estimate = p.subject.is_variable
                     ? static_cast<double>(s.distinct_objects)
                     : static_cast<double>(s.triple_count) /
                           std::max<uint64_t>(1, s.distinct_subjects);
      if (!p.object.is_variable) estimate = std::min(estimate, 1.0);
    }
    if (best < 0 || estimate < best) best = estimate;
  }
  return best < 0 ? 0 : best;
}

bool SharesVariable(const std::set<std::string>& bound,
                    const JoinTreeNode& node) {
  for (const std::string& v : node.Variables()) {
    if (bound.count(v)) return true;
  }
  return false;
}

}  // namespace

Result<JoinTree> Translate(const sparql::Query& query,
                           const DatasetStatistics& stats,
                           const rdf::Dictionary& dictionary,
                           const TranslatorOptions& options) {
  PROST_RETURN_IF_ERROR(sparql::ValidateQuery(query));
  for (const sparql::TriplePattern& pattern : query.bgp.patterns) {
    if (pattern.Variables().empty()) {
      return Status::Unimplemented(
          "fully-constant triple patterns are not supported: " +
          pattern.ToString());
    }
  }

  // 1. Group by subject, in first-appearance order.
  std::vector<std::string> group_order;
  std::map<std::string, std::vector<const sparql::TriplePattern*>> groups;
  for (const sparql::TriplePattern& pattern : query.bgp.patterns) {
    std::string key = GroupKey(pattern.subject);
    auto [it, inserted] = groups.emplace(
        key, std::vector<const sparql::TriplePattern*>{});
    if (inserted) group_order.push_back(key);
    it->second.push_back(&pattern);
  }

  auto make_pattern = [&](const sparql::TriplePattern& p) {
    NodePattern node_pattern;
    node_pattern.source = p;
    node_pattern.subject = Resolve(p.subject, dictionary);
    node_pattern.object = Resolve(p.object, dictionary);
    node_pattern.predicate = dictionary.Lookup(p.predicate.ToNTriples());
    return node_pattern;
  };

  std::vector<JoinTreeNode> nodes;
  std::vector<const sparql::TriplePattern*> leftovers;
  for (const std::string& key : group_order) {
    const auto& group = groups[key];
    if (options.use_property_table && group.size() >= kMinGroupSize) {
      JoinTreeNode node;
      node.kind = NodeKind::kPropertyTable;
      for (const sparql::TriplePattern* p : group) {
        node.patterns.push_back(make_pattern(*p));
      }
      nodes.push_back(std::move(node));
    } else {
      for (const sparql::TriplePattern* p : group) leftovers.push_back(p);
    }
  }

  // 1b. Optional reverse-PT grouping of leftovers by shared object.
  if (options.use_reverse_property_table && !leftovers.empty()) {
    // Gate (a lesson the F4 measurement teaches): a reverse-PT node
    // materializes the full per-object cross product of its patterns
    // *before* any other constraint applies. If the shared object
    // variable is also constrained selectively elsewhere — it is the
    // subject of a pattern with a constant object, or the subject of a
    // same-subject PT group — a well-ordered plan filters it down first,
    // and grouping would explode instead of help. Skip those variables.
    std::set<std::string> selectively_bound;
    for (const sparql::TriplePattern& p : query.bgp.patterns) {
      if (!p.subject.is_variable()) continue;
      bool in_pt_group =
          options.use_property_table &&
          groups.at(GroupKey(p.subject)).size() >= kMinGroupSize;
      if (in_pt_group || p.object.is_concrete()) {
        selectively_bound.insert(p.subject.value);
      }
    }
    std::vector<std::string> object_order;
    std::map<std::string, std::vector<const sparql::TriplePattern*>>
        object_groups;
    for (const sparql::TriplePattern* p : leftovers) {
      // Only variable objects benefit: a constant object is already a
      // maximally selective VP scan.
      if (!p->object.is_variable()) continue;
      if (selectively_bound.count(p->object.value)) continue;
      std::string key = GroupKey(p->object);
      auto [it, inserted] = object_groups.emplace(
          key, std::vector<const sparql::TriplePattern*>{});
      if (inserted) object_order.push_back(key);
      it->second.push_back(p);
    }
    std::vector<const sparql::TriplePattern*> remaining;
    std::set<const sparql::TriplePattern*> grouped;
    for (const std::string& key : object_order) {
      const auto& group = object_groups[key];
      if (group.size() >= kMinGroupSize) {
        JoinTreeNode node;
        node.kind = NodeKind::kReversePropertyTable;
        for (const sparql::TriplePattern* p : group) {
          node.patterns.push_back(make_pattern(*p));
          grouped.insert(p);
        }
        nodes.push_back(std::move(node));
      }
    }
    for (const sparql::TriplePattern* p : leftovers) {
      if (!grouped.count(p)) remaining.push_back(p);
    }
    leftovers = std::move(remaining);
  }

  for (const sparql::TriplePattern* p : leftovers) {
    JoinTreeNode node;
    node.kind = NodeKind::kVerticalPartitioning;
    node.patterns.push_back(make_pattern(*p));
    nodes.push_back(std::move(node));
  }

  // 2. Cardinality estimates.
  for (JoinTreeNode& node : nodes) {
    node.estimated_cardinality = EstimateNode(node, stats);
  }

  // 3. Order: ascending cardinality (stats) or query order (ablation),
  // constrained to keep the accumulated tree connected.
  std::vector<size_t> order(nodes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (options.enable_stats_ordering) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return nodes[a].estimated_cardinality <
             nodes[b].estimated_cardinality;
    });
  }

  JoinTree tree;
  std::vector<bool> used(nodes.size(), false);
  std::set<std::string> bound;
  for (size_t step = 0; step < nodes.size(); ++step) {
    size_t chosen = nodes.size();
    for (size_t index : order) {
      if (used[index]) continue;
      if (step == 0 || SharesVariable(bound, nodes[index])) {
        chosen = index;
        break;
      }
    }
    if (chosen == nodes.size()) {
      // Disconnected BGPs are rejected by validation, so every remaining
      // node must eventually connect; defensively take the first unused.
      for (size_t index : order) {
        if (!used[index]) {
          chosen = index;
          break;
        }
      }
    }
    used[chosen] = true;
    for (const std::string& v : nodes[chosen].Variables()) bound.insert(v);
    tree.nodes.push_back(std::move(nodes[chosen]));
  }
  return tree;
}

}  // namespace prost::core
