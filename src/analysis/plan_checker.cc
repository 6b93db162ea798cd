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

using core::JoinTreeNode;
using core::NodeKind;
using core::NodePattern;
using core::PatternTerm;

// ---------------------------------------------------------------------
// Scan sources (the Join Tree nodes under a freshly built plan).
// ---------------------------------------------------------------------

/// A plan's scan sources, left to right: the order BuildPlan folds them.
using ScanSources = std::vector<const JoinTreeNode*>;

void CollectScanSources(const plan::PlanNode& node, ScanSources& sources) {
  if (node.kind == plan::PlanNodeKind::kVpScan ||
      node.kind == plan::PlanNodeKind::kPtScan) {
    sources.push_back(&static_cast<const plan::ScanNodeBase&>(node).source);
    return;
  }
  for (const std::unique_ptr<plan::PlanNode>& child : node.children) {
    if (child != nullptr) CollectScanSources(*child, sources);
  }
}

/// "plan check: scan 2 PT(?x <p1> ?y ; ?x <p2> ?z): ..." — every
/// diagnostic names the offending scan this way.
Status ScanError(size_t index, const JoinTreeNode& node,
                 const std::string& message) {
  return Status::InvalidArgument(StrFormat("plan check: scan %zu ", index) +
                                 node.Label() + ": " + message);
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

/// Per-node shape: arity, key sharing, resolution coherence with the
/// source patterns, no literal subjects, at least one bound variable.
Status CheckNodeShape(size_t index, const JoinTreeNode& node) {
  if (node.patterns.empty()) {
    return ScanError(index, node, "node has no triple patterns");
  }
  if (node.kind == NodeKind::kVerticalPartitioning &&
      node.patterns.size() != 1) {
    return ScanError(index, node,
                     StrFormat("VP nodes evaluate exactly one pattern, got "
                               "%zu",
                               node.patterns.size()));
  }
  for (const NodePattern& pattern : node.patterns) {
    if (pattern.source.predicate.is_variable()) {
      return ScanError(index, node,
                       "variable predicate " +
                           pattern.source.predicate.ToNTriples() +
                           " has no partitioned table");
    }
    if (pattern.source.subject.is_literal()) {
      return ScanError(index, node,
                       "literal " + pattern.source.subject.ToNTriples() +
                           " in subject position can never match");
    }
    // Resolved terms must mirror the source pattern: same variable-ness,
    // same variable names. (Constant ids are checked against the
    // dictionary when one is available.)
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
        return ScanError(index, node,
                         StrFormat("%s resolution disagrees with the source "
                                   "pattern (variable vs constant)",
                                   p.where));
      }
      if (p.resolved.is_variable && p.resolved.name.empty()) {
        return ScanError(index, node,
                         StrFormat("%s variable has an empty name", p.where));
      }
      if (p.resolved.is_variable && p.resolved.name != p.source.value) {
        return ScanError(index, node,
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
        return ScanError(
            index, node,
            StrFormat("%s-node patterns do not share one %s key; the scan "
                      "would silently key every pattern on the first one's",
                      core::NodeKindToString(node.kind),
                      node.kind == NodeKind::kReversePropertyTable
                          ? "object"
                          : "subject"));
      }
    }
  }
  if (node.Variables().empty()) {
    return ScanError(index, node,
                     "node binds no variables (fully-constant sub-queries "
                     "are not executable)");
  }
  return Status::OK();
}

/// Every BGP triple pattern must be covered by exactly one scan, and no
/// scan may evaluate a pattern the query does not contain.
Status CheckPatternCoverage(const ScanSources& sources,
                            const sparql::Query& query) {
  std::vector<const NodePattern*> plan_patterns;
  for (const JoinTreeNode* node : sources) {
    for (const NodePattern& pattern : node->patterns) {
      plan_patterns.push_back(&pattern);
    }
  }
  std::vector<bool> used(plan_patterns.size(), false);
  for (const sparql::TriplePattern& pattern : query.bgp.patterns) {
    bool matched = false;
    for (size_t i = 0; i < plan_patterns.size() && !matched; ++i) {
      if (!used[i] && plan_patterns[i]->source == pattern) {
        used[i] = matched = true;
      }
    }
    if (!matched) {
      // Either genuinely missing or already claimed by an earlier
      // duplicate; distinguish for the diagnostic.
      bool duplicate = false;
      for (const sparql::TriplePattern& other : query.bgp.patterns) {
        if (&other != &pattern && other == pattern) duplicate = true;
      }
      return Status::InvalidArgument(
          "plan check: triple pattern " + pattern.ToString() +
          (duplicate ? " appears more often in the query than in the plan"
                     : " is not covered by any scan"));
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
Status CheckStorageResolution(const ScanSources& sources,
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
  for (size_t i = 0; i < sources.size(); ++i) {
    const JoinTreeNode& node = *sources[i];
    const core::PropertyTable* table = nullptr;
    if (node.kind == NodeKind::kPropertyTable) {
      table = context.property_table;
      if (table == nullptr) {
        return ScanError(i, node,
                         "plan uses the Property Table but none is loaded");
      }
    } else if (node.kind == NodeKind::kReversePropertyTable) {
      table = context.reverse_property_table;
      if (table == nullptr) {
        return ScanError(
            i, node,
            "plan uses the reverse Property Table but none is loaded");
      }
    }
    if (table != nullptr && table->num_workers() != workers) {
      return ScanError(i, node,
                       StrFormat("%s is partitioned %u ways but the cluster "
                                 "has %u workers",
                                 core::NodeKindToString(node.kind),
                                 table->num_workers(), workers));
    }
    for (const NodePattern& pattern : node.patterns) {
      if (pattern.predicate == rdf::kNullTermId) {
        if (pattern.source.predicate.is_concrete()) continue;  // Absent term.
        return ScanError(i, node, "null predicate id for " +
                                      pattern.source.predicate.ToNTriples());
      }
      if (node.kind == NodeKind::kVerticalPartitioning) {
        auto it = context.vp->tables().find(pattern.predicate);
        if (it == context.vp->tables().end()) {
          return ScanError(i, node,
                           "unknown predicate table: no VP table for " +
                               pattern.source.predicate.ToNTriples());
        }
        const core::VpStore::PredicateTable& vp_table = it->second;
        if (vp_table.paged.size() != workers ||
            vp_table.partition_bytes.size() != vp_table.paged.size()) {
          return ScanError(
              i, node,
              StrFormat("VP table for %s has %zu partitions / %zu size "
                        "entries, expected %u",
                        pattern.source.predicate.ToNTriples().c_str(),
                        vp_table.paged.size(),
                        vp_table.partition_bytes.size(), workers));
        }
      } else if (!table->HasPredicate(pattern.predicate)) {
        return ScanError(i, node,
                         "unknown predicate table: no " +
                             std::string(core::NodeKindToString(node.kind)) +
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
Status CheckDictionaryAgreement(const ScanSources& sources,
                                const rdf::Dictionary& dictionary) {
  for (size_t i = 0; i < sources.size(); ++i) {
    const JoinTreeNode& node = *sources[i];
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
          return ScanError(
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
/// statistics upper bound. (Finiteness is CheckPhysicalPlan's.)
Status CheckStatisticsAgreement(const ScanSources& sources,
                                const PlanContext& context) {
  const core::DatasetStatistics& stats = *context.stats;
  for (size_t i = 0; i < sources.size(); ++i) {
    const JoinTreeNode& node = *sources[i];
    uint64_t upper_bound = ~0ull;
    for (const NodePattern& pattern : node.patterns) {
      rdf::PredicateStats predicate_stats =
          StatsFor(stats, pattern.predicate);
      upper_bound = std::min(upper_bound, predicate_stats.triple_count);
      if (context.vp != nullptr &&
          node.kind == NodeKind::kVerticalPartitioning &&
          pattern.predicate != rdf::kNullTermId) {
        auto it = context.vp->tables().find(pattern.predicate);
        uint64_t stored_rows =
            it == context.vp->tables().end() ? 0 : it->second.total_rows;
        if (stored_rows != predicate_stats.triple_count) {
          return ScanError(
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
    if (node.estimated_cardinality > static_cast<double>(upper_bound)) {
      return ScanError(
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
Status CheckJoinKeyTypes(const ScanSources& sources,
                         const PlanContext& context) {
  const core::DatasetStatistics& stats = *context.stats;
  struct Evidence {
    size_t scan = 0;
    std::string description;
  };
  std::map<std::string, Evidence> entity_evidence;
  std::map<std::string, Evidence> literal_evidence;
  for (size_t i = 0; i < sources.size(); ++i) {
    for (const NodePattern& pattern : sources[i]->patterns) {
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
        "the %s (scan %zu) but to literals as the %s (scan %zu); every "
        "join on it is empty by schema",
        name.c_str(), entity.description.c_str(), entity.scan,
        literal.description.c_str(), literal.scan));
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

/// Checks `node`'s subtree, collecting every tail and pushed filter it
/// evaluates into `filters`.
Status CheckPhysicalNode(
    const plan::PlanNode& node, bool is_root,
    std::vector<const sparql::FilterConstraint*>& filters) {
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
    PROST_RETURN_IF_ERROR(
        CheckPhysicalNode(*child, /*is_root=*/false, filters));
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
        filters.push_back(&pushed);
      }
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
      filters.push_back(&filter.constraint);
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

Status CheckScanSources(const plan::PhysicalPlan& physical,
                        const sparql::Query& query,
                        const PlanContext& context) {
  ScanSources sources;
  if (physical.root != nullptr) CollectScanSources(*physical.root, sources);
  for (size_t i = 0; i < sources.size(); ++i) {
    PROST_RETURN_IF_ERROR(CheckNodeShape(i, *sources[i]));
  }
  PROST_RETURN_IF_ERROR(CheckPatternCoverage(sources, query));
  if (context.vp != nullptr) {
    PROST_RETURN_IF_ERROR(CheckStorageResolution(sources, context));
  }
  if (context.dictionary != nullptr) {
    PROST_RETURN_IF_ERROR(
        CheckDictionaryAgreement(sources, *context.dictionary));
  }
  if (context.stats != nullptr) {
    PROST_RETURN_IF_ERROR(CheckStatisticsAgreement(sources, context));
    PROST_RETURN_IF_ERROR(CheckJoinKeyTypes(sources, context));
  }
  return Status::OK();
}

Status CheckPhysicalPlan(const plan::PhysicalPlan& physical,
                         const sparql::Query& query) {
  if (physical.root == nullptr) {
    return Status::InvalidArgument("physical plan check: empty plan");
  }
  std::vector<const sparql::FilterConstraint*> filters;
  PROST_RETURN_IF_ERROR(
      CheckPhysicalNode(*physical.root, /*is_root=*/true, filters));

  // Filter conservation: a pass may move or duplicate a constraint (one
  // copy per scan binding its variable) but never invent or drop one.
  for (const sparql::FilterConstraint* constraint : filters) {
    if (std::find(query.filters.begin(), query.filters.end(), *constraint) ==
        query.filters.end()) {
      return Status::InvalidArgument(
          "physical plan check: plan evaluates " + constraint->ToString() +
          " which the query does not contain");
    }
  }
  for (const sparql::FilterConstraint& filter : query.filters) {
    if (std::none_of(filters.begin(), filters.end(),
                     [&](const sparql::FilterConstraint* constraint) {
                       return *constraint == filter;
                     })) {
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
