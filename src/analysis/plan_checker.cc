#include "analysis/plan_checker.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/str_util.h"

namespace prost::analysis {
namespace {

using core::JoinTree;
using core::JoinTreeNode;
using core::NodeKind;
using core::NodePattern;
using core::PatternTerm;

const char* KindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kVerticalPartitioning:
      return "VP";
    case NodeKind::kPropertyTable:
      return "PT";
    case NodeKind::kReversePropertyTable:
      return "RPT";
  }
  return "?";
}

/// "node 2 PT(?x <p1> ?y; ?x <p2> ?z)" — every diagnostic names the
/// offending node this way.
std::string NodeLabel(size_t index, const JoinTreeNode& node) {
  std::string label =
      StrFormat("node %zu %s(", index, KindName(node.kind));
  for (size_t i = 0; i < node.patterns.size(); ++i) {
    if (i > 0) label += "; ";
    label += node.patterns[i].source.ToString();
  }
  label += ")";
  return label;
}

Status NodeError(size_t index, const JoinTreeNode& node,
                 const std::string& message) {
  return Status::InvalidArgument("plan check: " + NodeLabel(index, node) +
                                 ": " + message);
}

bool SameTerm(const PatternTerm& a, const PatternTerm& b) {
  if (a.is_variable != b.is_variable) return false;
  return a.is_variable ? a.name == b.name : a.id == b.id;
}

/// The key position of a node's pattern: subject for VP/PT scans, object
/// for the reverse (object-keyed) Property Table.
const PatternTerm& KeyTerm(NodeKind kind, const NodePattern& pattern) {
  return kind == NodeKind::kReversePropertyTable ? pattern.object
                                                 : pattern.subject;
}
const PatternTerm& ValueTerm(NodeKind kind, const NodePattern& pattern) {
  return kind == NodeKind::kReversePropertyTable ? pattern.subject
                                                 : pattern.object;
}

/// The node's output schema, in exactly the order the engine's scans emit
/// it: key variable first, then each pattern's value variable, repeated
/// names collapsed (VpStore::ScanTable / PropertyTable::Scan layout).
std::vector<std::string> NodeOutputColumns(const JoinTreeNode& node) {
  std::vector<std::string> names;
  auto add = [&](const PatternTerm& term) {
    if (!term.is_variable) return;
    if (std::find(names.begin(), names.end(), term.name) == names.end()) {
      names.push_back(term.name);
    }
  };
  if (node.patterns.empty()) return names;
  add(KeyTerm(node.kind, node.patterns[0]));
  for (const NodePattern& pattern : node.patterns) {
    add(ValueTerm(node.kind, pattern));
  }
  return names;
}

/// Per-node shape: arity, key sharing, resolution coherence with the
/// source patterns, no literal subjects, non-empty output schema.
Status CheckNodeShape(size_t index, const JoinTreeNode& node) {
  if (node.patterns.empty()) {
    return NodeError(index, node, "node has no triple patterns");
  }
  if (node.kind == NodeKind::kVerticalPartitioning &&
      node.patterns.size() != 1) {
    return NodeError(index, node,
                     StrFormat("VP nodes evaluate exactly one pattern, got "
                               "%zu",
                               node.patterns.size()));
  }
  for (const NodePattern& pattern : node.patterns) {
    if (pattern.source.predicate.is_variable()) {
      return NodeError(index, node,
                       "variable predicate " +
                           pattern.source.predicate.ToNTriples() +
                           " has no partitioned table");
    }
    if (pattern.source.subject.is_literal()) {
      return NodeError(index, node,
                       "literal " + pattern.source.subject.ToNTriples() +
                           " in subject position can never match");
    }
    // Resolved terms must mirror the source pattern: same variable-ness,
    // same variable names. (Constant ids are checked against the
    // dictionary in CheckPlan when one is available.)
    struct Position {
      const rdf::Term& source;
      const PatternTerm& resolved;
      const char* where;
    };
    const Position positions[] = {
        {pattern.source.subject, pattern.subject, "subject"},
        {pattern.source.object, pattern.object, "object"},
    };
    for (const Position& p : positions) {
      if (p.source.is_variable() != p.resolved.is_variable) {
        return NodeError(index, node,
                         StrFormat("%s resolution disagrees with the source "
                                   "pattern (variable vs constant)",
                                   p.where));
      }
      if (p.resolved.is_variable && p.resolved.name.empty()) {
        return NodeError(index, node,
                         StrFormat("%s variable has an empty name", p.where));
      }
      if (p.resolved.is_variable && p.resolved.name != p.source.value) {
        return NodeError(index, node,
                         StrFormat("%s variable renamed during resolution "
                                   "('%s' vs '?%s')",
                                   p.where, p.resolved.name.c_str(),
                                   p.source.value.c_str()));
      }
    }
  }
  if (node.kind != NodeKind::kVerticalPartitioning) {
    const PatternTerm& key = KeyTerm(node.kind, node.patterns[0]);
    for (const NodePattern& pattern : node.patterns) {
      if (!SameTerm(key, KeyTerm(node.kind, pattern))) {
        return NodeError(
            index, node,
            StrFormat("%s-node patterns do not share one %s key; the scan "
                      "would silently key every pattern on the first one's",
                      KindName(node.kind),
                      node.kind == NodeKind::kReversePropertyTable
                          ? "object"
                          : "subject"));
      }
    }
  }
  if (NodeOutputColumns(node).empty()) {
    return NodeError(index, node,
                     "node binds no variables (fully-constant sub-queries "
                     "are not executable)");
  }
  return Status::OK();
}

/// Every BGP triple pattern must be covered by exactly one node, and no
/// node may evaluate a pattern the query does not contain.
Status CheckPatternCoverage(const JoinTree& tree, const sparql::Query& query) {
  std::vector<const NodePattern*> plan_patterns;
  for (const JoinTreeNode& node : tree.nodes) {
    for (const NodePattern& pattern : node.patterns) {
      plan_patterns.push_back(&pattern);
    }
  }
  std::vector<bool> used(plan_patterns.size(), false);
  for (const sparql::TriplePattern& pattern : query.bgp.patterns) {
    size_t matches = 0;
    for (size_t i = 0; i < plan_patterns.size(); ++i) {
      if (!used[i] && plan_patterns[i]->source == pattern) {
        used[i] = true;
        ++matches;
        break;
      }
    }
    if (matches == 0) {
      // Either genuinely missing or already claimed by an earlier
      // duplicate; distinguish for the diagnostic.
      bool duplicate = false;
      for (const sparql::TriplePattern& other : query.bgp.patterns) {
        if (&other != &pattern && other == pattern) duplicate = true;
      }
      return Status::InvalidArgument(
          "plan check: triple pattern " + pattern.ToString() +
          (duplicate ? " appears more often in the query than in the plan"
                     : " is not covered by any Join Tree node"));
    }
  }
  for (size_t i = 0; i < plan_patterns.size(); ++i) {
    if (!used[i]) {
      return Status::InvalidArgument(
          "plan check: plan evaluates " + plan_patterns[i]->source.ToString() +
          " which the query's BGP does not contain (or contains fewer "
          "times)");
    }
  }
  return Status::OK();
}

/// Left-deep fold: each node after the first must share a join variable
/// with the accumulated result, or the executor would face a cross
/// product (HashJoin rejects those at runtime; we reject them statically).
Status CheckConnectivity(const JoinTree& tree) {
  std::set<std::string> bound;
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    std::vector<std::string> columns = NodeOutputColumns(tree.nodes[i]);
    if (i > 0) {
      bool shares = std::any_of(columns.begin(), columns.end(),
                                [&](const std::string& name) {
                                  return bound.count(name) > 0;
                                });
      if (!shares) {
        return NodeError(i, tree.nodes[i],
                         "no join key: node shares no variable with the "
                         "already-planned sub-tree {" +
                             StrJoin(std::vector<std::string>(bound.begin(),
                                                              bound.end()),
                                     ",") +
                             "} (cross product)");
      }
    }
    bound.insert(columns.begin(), columns.end());
  }
  return Status::OK();
}

/// Projection / filters / ORDER BY / COUNT may only use variables some
/// node binds, and the final output schema must be duplicate-free.
Status CheckVariableCoverage(const JoinTree& tree,
                             const sparql::Query& query) {
  std::set<std::string> bound;
  for (const JoinTreeNode& node : tree.nodes) {
    std::vector<std::string> columns = NodeOutputColumns(node);
    bound.insert(columns.begin(), columns.end());
  }
  std::set<std::string> projected;
  for (const std::string& name : query.EffectiveProjection()) {
    if (!bound.count(name)) {
      return Status::InvalidArgument(
          "plan check: projected variable ?" + name +
          " is not bound by any Join Tree node");
    }
    if (!projected.insert(name).second) {
      return Status::InvalidArgument(
          "plan check: duplicate output column ?" + name +
          " in the projection");
    }
  }
  for (const sparql::FilterConstraint& filter : query.filters) {
    if (!bound.count(filter.variable)) {
      return Status::InvalidArgument("plan check: filter variable ?" +
                                     filter.variable +
                                     " is not bound by any Join Tree node");
    }
    if (filter.rhs_is_variable && !bound.count(filter.rhs_variable)) {
      return Status::InvalidArgument("plan check: filter variable ?" +
                                     filter.rhs_variable +
                                     " is not bound by any Join Tree node");
    }
  }
  for (const sparql::OrderKey& key : query.order_by) {
    if (!bound.count(key.variable)) {
      return Status::InvalidArgument("plan check: ORDER BY variable ?" +
                                     key.variable +
                                     " is not bound by any Join Tree node");
    }
  }
  if (query.count.has_value() && !query.count->variable.empty() &&
      !bound.count(query.count->variable)) {
    return Status::InvalidArgument("plan check: COUNT variable ?" +
                                   query.count->variable +
                                   " is not bound by any Join Tree node");
  }
  return Status::OK();
}

rdf::PredicateStats StatsFor(const core::DatasetStatistics& stats,
                             rdf::TermId predicate) {
  auto it = stats.per_predicate().find(predicate);
  return it == stats.per_predicate().end() ? rdf::PredicateStats{}
                                           : it->second;
}

/// Storage-side resolution: every non-null predicate must have its table
/// (VP) or column (PT/RPT), shaped for the right worker count. Null
/// predicate ids are constants the dictionary has never seen — a legal
/// always-empty scan, mirroring the runtime semantics.
Status CheckStorageResolution(const JoinTree& tree,
                              const PlanContext& context) {
  const uint32_t workers =
      context.cluster != nullptr ? context.cluster->num_workers
                                 : context.vp->num_workers();
  if (context.vp->num_workers() != workers) {
    return Status::InvalidArgument(
        StrFormat("plan check: VP store is partitioned %u ways but the "
                  "cluster has %u workers",
                  context.vp->num_workers(), workers));
  }
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const JoinTreeNode& node = tree.nodes[i];
    const core::PropertyTable* table = nullptr;
    if (node.kind == NodeKind::kPropertyTable) {
      table = context.property_table;
      if (table == nullptr) {
        return NodeError(i, node,
                         "plan uses the Property Table but none is loaded");
      }
    } else if (node.kind == NodeKind::kReversePropertyTable) {
      table = context.reverse_property_table;
      if (table == nullptr) {
        return NodeError(
            i, node,
            "plan uses the reverse Property Table but none is loaded");
      }
    }
    if (table != nullptr && table->num_workers() != workers) {
      return NodeError(i, node,
                       StrFormat("%s is partitioned %u ways but the cluster "
                                 "has %u workers",
                                 KindName(node.kind), table->num_workers(),
                                 workers));
    }
    for (const NodePattern& pattern : node.patterns) {
      if (pattern.predicate == rdf::kNullTermId) {
        if (pattern.source.predicate.is_concrete()) continue;  // Absent term.
        return NodeError(i, node, "null predicate id for " +
                                      pattern.source.predicate.ToNTriples());
      }
      if (node.kind == NodeKind::kVerticalPartitioning) {
        auto it = context.vp->tables().find(pattern.predicate);
        if (it == context.vp->tables().end()) {
          return NodeError(i, node,
                           "unknown predicate table: no VP table for " +
                               pattern.source.predicate.ToNTriples());
        }
        const core::VpStore::PredicateTable& vp_table = it->second;
        if (vp_table.paged.size() != workers ||
            vp_table.partition_bytes.size() != vp_table.paged.size()) {
          return NodeError(
              i, node,
              StrFormat("VP table for %s has %zu partitions / %zu size "
                        "entries, expected %u",
                        pattern.source.predicate.ToNTriples().c_str(),
                        vp_table.paged.size(),
                        vp_table.partition_bytes.size(), workers));
        }
      } else if (!table->HasPredicate(pattern.predicate)) {
        return NodeError(i, node,
                         "unknown predicate table: no " +
                             std::string(KindName(node.kind)) +
                             " column for " +
                             pattern.source.predicate.ToNTriples());
      }
    }
  }
  return Status::OK();
}

/// Resolved constant ids must agree with the dictionary (a translator that
/// resolves against a stale or foreign dictionary produces silently wrong
/// — usually empty — results).
Status CheckDictionaryAgreement(const JoinTree& tree,
                                const rdf::Dictionary& dictionary) {
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const JoinTreeNode& node = tree.nodes[i];
    for (const NodePattern& pattern : node.patterns) {
      struct Position {
        const rdf::Term& source;
        rdf::TermId resolved;
        const char* where;
      };
      const Position positions[] = {
          {pattern.source.subject, pattern.subject.id, "subject"},
          {pattern.source.predicate, pattern.predicate, "predicate"},
          {pattern.source.object, pattern.object.id, "object"},
      };
      for (const Position& p : positions) {
        if (p.source.is_variable()) continue;
        rdf::TermId expected = dictionary.Lookup(p.source.ToNTriples());
        if (p.resolved != expected) {
          return NodeError(
              i, node,
              StrFormat("%s %s resolved to term id %llu but the dictionary "
                        "says %llu",
                        p.where, p.source.ToNTriples().c_str(),
                        static_cast<unsigned long long>(p.resolved),
                        static_cast<unsigned long long>(expected)));
        }
      }
    }
  }
  return Status::OK();
}

/// §3.3 statistics agreement. Node ordering is planned from the
/// statistics while join strategies (broadcast vs shuffle) are planned
/// from storage-derived planner sizes; both must describe the same
/// physical data, and every cardinality estimate must stay inside its
/// statistics upper bound.
Status CheckStatisticsAgreement(const JoinTree& tree,
                                const PlanContext& context) {
  const core::DatasetStatistics& stats = *context.stats;
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const JoinTreeNode& node = tree.nodes[i];
    if (!std::isfinite(node.estimated_cardinality) ||
        node.estimated_cardinality < 0) {
      return NodeError(i, node,
                       StrFormat("cardinality estimate %g is not a finite "
                                 "non-negative number",
                                 node.estimated_cardinality));
    }
    uint64_t upper_bound = ~0ull;
    for (const NodePattern& pattern : node.patterns) {
      rdf::PredicateStats predicate_stats =
          StatsFor(stats, pattern.predicate);
      upper_bound = std::min(upper_bound, predicate_stats.triple_count);
      if (context.vp != nullptr &&
          pattern.predicate != rdf::kNullTermId) {
        auto it = context.vp->tables().find(pattern.predicate);
        uint64_t stored_rows =
            it == context.vp->tables().end() ? 0 : it->second.total_rows;
        if (node.kind == NodeKind::kVerticalPartitioning &&
            stored_rows != predicate_stats.triple_count) {
          return NodeError(
              i, node,
              StrFormat("statistics/storage disagreement for %s: statistics "
                        "count %llu triples but the VP table holds %llu — "
                        "broadcast eligibility and node ordering would be "
                        "planned against stale sizes",
                        pattern.source.predicate.ToNTriples().c_str(),
                        static_cast<unsigned long long>(
                            predicate_stats.triple_count),
                        static_cast<unsigned long long>(stored_rows)));
        }
      }
    }
    if (node.estimated_cardinality >
        static_cast<double>(upper_bound)) {
      return NodeError(
          i, node,
          StrFormat("cardinality estimate %g exceeds the statistics upper "
                    "bound of %llu rows",
                    node.estimated_cardinality,
                    static_cast<unsigned long long>(upper_bound)));
    }
  }
  return Status::OK();
}

/// Join-key type agreement. A variable bound in subject position binds
/// entities (IRIs / blank nodes); a variable bound as the object of a
/// predicate whose objects are all literals binds literals only. If one
/// variable carries both kinds of evidence (or literal-only meets
/// entity-only object domains), every join on it is empty by schema —
/// almost certainly a translation bug, and exactly what S2RDF-style
/// schema-driven table selection guards against.
Status CheckJoinKeyTypes(const JoinTree& tree, const PlanContext& context) {
  const core::DatasetStatistics& stats = *context.stats;
  struct Evidence {
    size_t node = 0;
    std::string description;
  };
  std::map<std::string, Evidence> entity_evidence;
  std::map<std::string, Evidence> literal_evidence;
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const JoinTreeNode& node = tree.nodes[i];
    for (const NodePattern& pattern : node.patterns) {
      if (pattern.subject.is_variable) {
        entity_evidence.emplace(
            pattern.subject.name,
            Evidence{i, "subject of " + pattern.source.ToString()});
      }
      if (!pattern.object.is_variable) continue;
      rdf::PredicateStats predicate_stats =
          StatsFor(stats, pattern.predicate);
      if (predicate_stats.objects_all_literals()) {
        literal_evidence.emplace(
            pattern.object.name,
            Evidence{i, "object of " + pattern.source.ToString() +
                            " whose objects are all literals"});
      } else if (predicate_stats.objects_all_entities()) {
        entity_evidence.emplace(
            pattern.object.name,
            Evidence{i, "object of " + pattern.source.ToString() +
                            " whose objects are all IRIs/blanks"});
      }
    }
  }
  for (const auto& [name, literal] : literal_evidence) {
    auto it = entity_evidence.find(name);
    if (it == entity_evidence.end()) continue;
    const Evidence& entity = it->second;
    return Status::InvalidArgument(StrFormat(
        "plan check: join-key type mismatch for ?%s: bound to entities as "
        "the %s (node %zu) but to literals as the %s (node %zu); every "
        "join on it is empty by schema",
        name.c_str(), entity.description.c_str(), entity.node,
        literal.description.c_str(), literal.node));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Physical-plan invariants (plan::PlanNode trees).
// ---------------------------------------------------------------------

bool ContainsName(const std::vector<std::string>& names,
                  const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

Status PhysicalError(const plan::PlanNode& node, const std::string& message) {
  std::string label = node.Label();
  return Status::InvalidArgument(
      "physical plan check: " +
      std::string(plan::PlanNodeKindName(node.kind)) +
      (label.empty() ? "" : " " + label) + ": " + message);
}

/// Everything CheckPhysicalNode accumulates on its way down.
struct PhysicalWalk {
  std::vector<const plan::ScanNodeBase*> scans;  // Left-to-right.
  std::vector<const sparql::FilterConstraint*> filters;  // Tail + pushed.
};

Status CheckFilterBound(const plan::PlanNode& node,
                        const sparql::FilterConstraint& constraint,
                        const std::vector<std::string>& bound) {
  if (!ContainsName(bound, constraint.variable)) {
    return PhysicalError(node, "filter variable ?" + constraint.variable +
                                   " is not bound here");
  }
  if (constraint.rhs_is_variable &&
      !ContainsName(bound, constraint.rhs_variable)) {
    return PhysicalError(node, "filter variable ?" + constraint.rhs_variable +
                                   " is not bound here");
  }
  return Status::OK();
}

Status CheckPhysicalNode(const plan::PlanNode& node, bool is_root,
                         PhysicalWalk& walk) {
  const bool is_scan = node.kind == plan::PlanNodeKind::kVpScan ||
                       node.kind == plan::PlanNodeKind::kPtScan;
  const size_t expected_children =
      is_scan ? 0 : (node.kind == plan::PlanNodeKind::kHashJoin ? 2 : 1);
  if (node.children.size() != expected_children) {
    return PhysicalError(node, StrFormat("expected %zu children, got %zu",
                                         expected_children,
                                         node.children.size()));
  }
  for (const std::unique_ptr<plan::PlanNode>& child : node.children) {
    if (child == nullptr) return PhysicalError(node, "null child");
    PROST_RETURN_IF_ERROR(CheckPhysicalNode(*child, /*is_root=*/false, walk));
  }

  // Scans must carry a real estimate (checked below); everywhere else the
  // join_order pass either annotated a finite estimate or left the "no
  // estimate" sentinel (any negative value). NaN/infinity is a bug in the
  // estimator arithmetic wherever it appears.
  if (!is_scan && !std::isfinite(node.estimated_rows)) {
    return PhysicalError(
        node, StrFormat("cardinality estimate %g is not finite",
                        node.estimated_rows));
  }

  switch (node.kind) {
    case plan::PlanNodeKind::kVpScan:
    case plan::PlanNodeKind::kPtScan: {
      const auto& scan = static_cast<const plan::ScanNodeBase&>(node);
      const bool vp_kind =
          scan.source.kind == NodeKind::kVerticalPartitioning;
      if (vp_kind != (node.kind == plan::PlanNodeKind::kVpScan)) {
        return PhysicalError(node,
                             "scan node kind disagrees with its Join Tree "
                             "node's storage kind");
      }
      if (node.output_columns !=
          plan::PlanBuilder::ScanOutputColumns(scan.source)) {
        return PhysicalError(node,
                             "output schema does not match the scan layout");
      }
      if (!std::isfinite(node.estimated_rows) || node.estimated_rows < 0) {
        return PhysicalError(
            node, StrFormat("cardinality estimate %g is not a finite "
                            "non-negative number",
                            node.estimated_rows));
      }
      for (const sparql::FilterConstraint& pushed : scan.pushed_filters) {
        if (pushed.rhs_is_variable) {
          return PhysicalError(node,
                               "pushed filter " + pushed.ToString() +
                                   " compares two variables; only constant "
                                   "filters may move below a join");
        }
        PROST_RETURN_IF_ERROR(
            CheckFilterBound(node, pushed, node.output_columns));
        walk.filters.push_back(&pushed);
      }
      walk.scans.push_back(&scan);
      return Status::OK();
    }
    case plan::PlanNodeKind::kHashJoin: {
      const auto& join = static_cast<const plan::HashJoinNode&>(node);
      const plan::PlanNode& left = *join.children[0];
      const plan::PlanNode& right = *join.children[1];
      std::vector<std::string> shared;
      for (const std::string& name : left.output_columns) {
        if (ContainsName(right.output_columns, name)) shared.push_back(name);
      }
      if (shared.empty()) {
        return PhysicalError(node, "children share no column (cross "
                                   "product)");
      }
      if (join.join_columns != shared) {
        return PhysicalError(node,
                             "join_columns [" +
                                 StrJoin(join.join_columns, ",") +
                                 "] != shared columns [" +
                                 StrJoin(shared, ",") + "]");
      }
      std::vector<std::string> expected = left.output_columns;
      for (const std::string& name : right.output_columns) {
        if (!ContainsName(expected, name)) expected.push_back(name);
      }
      if (node.output_columns != expected) {
        return PhysicalError(node,
                             "output schema is not the left-major join "
                             "layout [" +
                                 StrJoin(expected, ",") + "]");
      }
      // Join outputs default to an unknown planner size; the join_order
      // pass may stamp an exact-statistics estimate so joins above can
      // broadcast small intermediates. An annotated size without the
      // matching cardinality estimate means some other component wrote it.
      if (node.planner_bytes != engine::Relation::kUnknownPlannerBytes &&
          node.estimated_rows < 0) {
        return PhysicalError(node,
                             "join carries a planner size but no "
                             "cardinality estimate");
      }
      return Status::OK();
    }
    case plan::PlanNodeKind::kFilter: {
      const auto& filter = static_cast<const plan::FilterNode&>(node);
      PROST_RETURN_IF_ERROR(CheckFilterBound(
          node, filter.constraint, node.children[0]->output_columns));
      walk.filters.push_back(&filter.constraint);
      break;
    }
    case plan::PlanNodeKind::kProject: {
      const auto& project = static_cast<const plan::ProjectNode&>(node);
      if (node.output_columns != project.columns) {
        return PhysicalError(node,
                             "output schema differs from the projection "
                             "list");
      }
      const std::vector<std::string>& child_columns =
          node.children[0]->output_columns;
      std::set<std::string> seen;
      for (const std::string& name : project.columns) {
        if (!ContainsName(child_columns, name)) {
          return PhysicalError(
              node, "projected column ?" + name + " is not bound here");
        }
        if (!seen.insert(name).second) {
          return PhysicalError(node,
                               "duplicate projected column ?" + name);
        }
      }
      if (project.optimizer_inserted) {
        // A prune must be a pure column drop: kept columns stay in the
        // child's order (PruneColumns preserves row layout per column).
        size_t at = 0;
        for (const std::string& name : child_columns) {
          if (at < project.columns.size() && project.columns[at] == name) {
            ++at;
          }
        }
        if (at != project.columns.size()) {
          return PhysicalError(node,
                               "optimizer-inserted prune reorders the "
                               "child's columns");
        }
      }
      return Status::OK();
    }
    case plan::PlanNodeKind::kOrderBy: {
      const auto& order = static_cast<const plan::OrderByNode&>(node);
      for (const sparql::OrderKey& key : order.keys) {
        if (!ContainsName(node.children[0]->output_columns, key.variable)) {
          return PhysicalError(node, "ORDER BY variable ?" + key.variable +
                                         " is not bound here");
        }
      }
      break;
    }
    case plan::PlanNodeKind::kAggregate: {
      const auto& aggregate = static_cast<const plan::AggregateNode&>(node);
      if (!is_root) {
        return PhysicalError(node,
                             "COUNT aggregates must be the plan root");
      }
      if (node.output_columns !=
          std::vector<std::string>{aggregate.count.alias}) {
        return PhysicalError(node,
                             "output schema is not the COUNT alias");
      }
      if (!aggregate.count.variable.empty() &&
          !ContainsName(node.children[0]->output_columns,
                        aggregate.count.variable)) {
        return PhysicalError(node, "COUNT variable ?" +
                                       aggregate.count.variable +
                                       " is not bound here");
      }
      return Status::OK();
    }
    case plan::PlanNodeKind::kDistinct:
    case plan::PlanNodeKind::kLimit:
      break;
  }
  // Unary pass-through nodes: schema carries over unchanged.
  if (node.output_columns != node.children[0]->output_columns) {
    return PhysicalError(node, "output schema differs from its child's");
  }
  return Status::OK();
}

}  // namespace

Status CheckPlanStructure(const JoinTree& tree, const sparql::Query& query) {
  if (tree.nodes.empty()) {
    return Status::InvalidArgument("plan check: empty join tree");
  }
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    PROST_RETURN_IF_ERROR(CheckNodeShape(i, tree.nodes[i]));
  }
  PROST_RETURN_IF_ERROR(CheckPatternCoverage(tree, query));
  PROST_RETURN_IF_ERROR(CheckConnectivity(tree));
  return CheckVariableCoverage(tree, query);
}

Status CheckPlan(const JoinTree& tree, const sparql::Query& query,
                 const PlanContext& context,
                 const PlanCheckerOptions& options) {
  PROST_RETURN_IF_ERROR(CheckPlanStructure(tree, query));
  if (context.vp != nullptr) {
    PROST_RETURN_IF_ERROR(CheckStorageResolution(tree, context));
  }
  if (context.dictionary != nullptr) {
    PROST_RETURN_IF_ERROR(CheckDictionaryAgreement(tree, *context.dictionary));
  }
  if (context.stats != nullptr) {
    if (options.check_statistics) {
      PROST_RETURN_IF_ERROR(CheckStatisticsAgreement(tree, context));
    }
    if (options.check_types) {
      PROST_RETURN_IF_ERROR(CheckJoinKeyTypes(tree, context));
    }
  }
  return Status::OK();
}

Status CheckPhysicalPlan(const plan::PhysicalPlan& physical,
                         const sparql::Query& query) {
  if (physical.root == nullptr) {
    return Status::InvalidArgument("physical plan check: empty plan");
  }
  PhysicalWalk walk;
  PROST_RETURN_IF_ERROR(
      CheckPhysicalNode(*physical.root, /*is_root=*/true, walk));

  // The scans' Join Tree nodes must pass the same shape and coverage
  // rules as the tree they were lowered from.
  JoinTree tree;
  for (const plan::ScanNodeBase* scan : walk.scans) {
    tree.nodes.push_back(scan->source);
  }
  if (tree.nodes.empty()) {
    return Status::InvalidArgument("physical plan check: plan has no scans");
  }
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    PROST_RETURN_IF_ERROR(CheckNodeShape(i, tree.nodes[i]));
  }
  PROST_RETURN_IF_ERROR(CheckPatternCoverage(tree, query));

  // Filter conservation: a pass may move or duplicate a constraint (one
  // copy per scan binding its variable) but never invent or drop one.
  for (const sparql::FilterConstraint* constraint : walk.filters) {
    bool known = false;
    for (const sparql::FilterConstraint& filter : query.filters) {
      if (filter == *constraint) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument(
          "physical plan check: plan evaluates " + constraint->ToString() +
          " which the query does not contain");
    }
  }
  for (const sparql::FilterConstraint& filter : query.filters) {
    bool present = false;
    for (const sparql::FilterConstraint* constraint : walk.filters) {
      if (filter == *constraint) {
        present = true;
        break;
      }
    }
    if (!present) {
      return Status::InvalidArgument("physical plan check: query filter " +
                                     filter.ToString() +
                                     " was dropped from the plan");
    }
  }

  // The root must produce exactly what the query asks for.
  const std::vector<std::string> expected =
      query.count.has_value()
          ? std::vector<std::string>{query.count->alias}
          : query.EffectiveProjection();
  if (physical.root->output_columns != expected) {
    return Status::InvalidArgument(
        "physical plan check: root schema [" +
        StrJoin(physical.root->output_columns, ",") +
        "] does not match the query's output [" + StrJoin(expected, ",") +
        "]");
  }
  return Status::OK();
}

}  // namespace prost::analysis
