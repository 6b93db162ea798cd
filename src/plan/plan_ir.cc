#include "plan/plan_ir.h"

#include <utility>

#include "common/str_util.h"

namespace prost::plan {
namespace {

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  for (const std::string& existing : names) {
    if (existing == name) return true;
  }
  return false;
}

std::string ColumnList(const std::vector<std::string>& names) {
  std::string out = "(";
  out.append(StrJoin(names, ",")).append(")");
  return out;
}

std::string NodeLine(const PlanNode& node) {
  std::string out = PlanNodeKindName(node.kind);
  switch (node.kind) {
    case PlanNodeKind::kVpScan:
    case PlanNodeKind::kPtScan: {
      const auto& scan = static_cast<const ScanNodeBase&>(node);
      out.append(" ").append(scan.Label());
      out += StrFormat("  est=%.0f", scan.estimated_rows);
      if (scan.planner_bytes != engine::kUnknownPlannerBytes) {
        out += StrFormat("  bytes=%llu",
                         static_cast<unsigned long long>(scan.planner_bytes));
      }
      for (const sparql::FilterConstraint& filter : scan.pushed_filters) {
        out.append("  pushed[").append(filter.ToString()).append("]");
      }
      break;
    }
    case PlanNodeKind::kHashJoin: {
      const auto& join = static_cast<const HashJoinNode&>(node);
      if (!join.decision.has_value()) {
        out += "[unresolved]";
      } else if (join.decision->strategy == engine::JoinStrategy::kBroadcast) {
        out += "[broadcast]";
      } else {
        out += "[shuffle]";
      }
      out.append(" ").append(join.Label()).append(" on ");
      out.append(ColumnList(join.join_columns));
      break;
    }
    case PlanNodeKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(node);
      out.append(" ").append(filter.constraint.ToString());
      break;
    }
    case PlanNodeKind::kProject: {
      const auto& project = static_cast<const ProjectNode&>(node);
      if (project.optimizer_inserted) out += "[pruned]";
      break;
    }
    case PlanNodeKind::kOrderBy: {
      const auto& order = static_cast<const OrderByNode&>(node);
      std::vector<std::string> keys;
      keys.reserve(order.keys.size());
      for (const sparql::OrderKey& key : order.keys) {
        keys.push_back("?" + key.variable + (key.descending ? " DESC" : ""));
      }
      out.append(" ").append(StrJoin(keys, ", "));
      break;
    }
    case PlanNodeKind::kAggregate: {
      const auto& aggregate = static_cast<const AggregateNode&>(node);
      out += aggregate.count.distinct ? " COUNT(DISTINCT " : " COUNT(";
      out += aggregate.count.variable.empty()
                 ? "*"
                 : "?" + aggregate.count.variable;
      out += ") AS ?" + aggregate.count.alias;
      if (aggregate.offset > 0) {
        out += StrFormat("  offset=%llu",
                         static_cast<unsigned long long>(aggregate.offset));
      }
      break;
    }
    case PlanNodeKind::kDistinct: {
      const auto& distinct = static_cast<const DistinctNode&>(node);
      if (distinct.order_preserving) out += "[order-preserving]";
      break;
    }
    case PlanNodeKind::kLimit: {
      out.append(" ").append(node.Label());
      break;
    }
  }
  // Scans always render their translator estimate above; every other node
  // gains an estimate only once the join_order pass has annotated it.
  if (node.kind != PlanNodeKind::kVpScan && node.kind != PlanNodeKind::kPtScan &&
      node.estimated_rows >= 0) {
    out += StrFormat("  est=%.1f", node.estimated_rows);
  }
  out += "  cols=" + ColumnList(node.output_columns);
  return out;
}

void RenderTree(const PlanNode& node, const std::string& line_prefix,
                const std::string& child_prefix, std::string& out) {
  out += line_prefix + NodeLine(node) + "\n";
  for (size_t i = 0; i < node.children.size(); ++i) {
    const bool last = i + 1 == node.children.size();
    RenderTree(*node.children[i], child_prefix + (last ? "`- " : "|- "),
               child_prefix + (last ? "   " : "|  "), out);
  }
}

}  // namespace

const char* PlanNodeKindName(PlanNodeKind kind) {
  switch (kind) {
    case PlanNodeKind::kVpScan:
      return "VpScan";
    case PlanNodeKind::kPtScan:
      return "PtScan";
    case PlanNodeKind::kHashJoin:
      return "HashJoin";
    case PlanNodeKind::kFilter:
      return "Filter";
    case PlanNodeKind::kProject:
      return "Project";
    case PlanNodeKind::kOrderBy:
      return "OrderBy";
    case PlanNodeKind::kAggregate:
      return "Aggregate";
    case PlanNodeKind::kDistinct:
      return "Distinct";
    case PlanNodeKind::kLimit:
      return "Limit";
  }
  return "unknown";
}

std::string ProjectNode::Label() const { return StrJoin(columns, ","); }

std::string LimitNode::Label() const {
  std::string out;
  if (offset > 0) {
    out += StrFormat("offset=%llu", static_cast<unsigned long long>(offset));
  }
  if (limit > 0) {
    if (!out.empty()) out += " ";
    out += StrFormat("limit=%llu", static_cast<unsigned long long>(limit));
  }
  return out;
}

std::string PhysicalPlan::ToString() const {
  std::string out;
  if (root != nullptr) RenderTree(*root, "", "", out);
  return out;
}

std::vector<std::string> PlanBuilder::ScanOutputColumns(
    const core::JoinTreeNode& node) {
  std::vector<std::string> names;
  auto add = [&names](const std::string& name) {
    if (!Contains(names, name)) names.push_back(name);
  };
  if (node.patterns.empty()) return names;
  const bool reverse = node.kind == core::NodeKind::kReversePropertyTable;
  const core::PatternTerm& key =
      reverse ? node.patterns[0].object : node.patterns[0].subject;
  if (key.is_variable) add(key.name);
  for (const core::NodePattern& pattern : node.patterns) {
    const core::PatternTerm& value =
        reverse ? pattern.subject : pattern.object;
    if (value.is_variable) add(value.name);
  }
  return names;
}

std::unique_ptr<PlanNode> PlanBuilder::MakeScan(core::JoinTreeNode source,
                                                uint64_t planner_bytes) {
  std::unique_ptr<ScanNodeBase> node;
  if (source.kind == core::NodeKind::kVerticalPartitioning) {
    node = std::unique_ptr<ScanNodeBase>(new VpScanNode(std::move(source)));
  } else {
    node = std::unique_ptr<ScanNodeBase>(new PtScanNode(std::move(source)));
  }
  node->output_columns = ScanOutputColumns(node->source);
  node->estimated_rows = node->source.estimated_cardinality;
  node->planner_bytes = planner_bytes;
  return node;
}

Result<std::unique_ptr<PlanNode>> PlanBuilder::MakeHashJoin(
    std::unique_ptr<PlanNode> left, std::unique_ptr<PlanNode> right) {
  std::vector<std::string> shared;
  for (const std::string& name : left->output_columns) {
    if (Contains(right->output_columns, name)) shared.push_back(name);
  }
  if (shared.empty()) {
    return Status::InvalidArgument(
        "join requires at least one shared column; got [" +
        StrJoin(left->output_columns, ",") + "] vs [" +
        StrJoin(right->output_columns, ",") + "]");
  }
  auto node = std::unique_ptr<HashJoinNode>(new HashJoinNode(right->Label()));
  node->join_columns = std::move(shared);
  node->output_columns = left->output_columns;
  for (const std::string& name : right->output_columns) {
    if (!Contains(node->output_columns, name)) {
      node->output_columns.push_back(name);
    }
  }
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return std::unique_ptr<PlanNode>(std::move(node));
}

std::unique_ptr<PlanNode> PlanBuilder::MakeFilter(
    std::unique_ptr<PlanNode> child, sparql::FilterConstraint constraint) {
  auto node =
      std::unique_ptr<FilterNode>(new FilterNode(std::move(constraint)));
  node->output_columns = child->output_columns;
  node->planner_bytes = child->planner_bytes;
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PlanNode> PlanBuilder::MakeProject(
    std::unique_ptr<PlanNode> child, std::vector<std::string> columns,
    bool optimizer_inserted) {
  auto node = std::unique_ptr<ProjectNode>(
      new ProjectNode(std::move(columns), optimizer_inserted));
  node->output_columns = node->columns;
  node->planner_bytes = child->planner_bytes;
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PlanNode> PlanBuilder::MakeOrderBy(
    std::unique_ptr<PlanNode> child, std::vector<sparql::OrderKey> keys) {
  auto node = std::unique_ptr<OrderByNode>(new OrderByNode(std::move(keys)));
  node->output_columns = child->output_columns;
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PlanNode> PlanBuilder::MakeAggregate(
    std::unique_ptr<PlanNode> child, sparql::CountAggregate count,
    uint64_t offset) {
  auto node = std::unique_ptr<AggregateNode>(
      new AggregateNode(std::move(count), offset));
  node->output_columns = {node->count.alias};
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PlanNode> PlanBuilder::MakeDistinct(
    std::unique_ptr<PlanNode> child, bool order_preserving) {
  auto node =
      std::unique_ptr<DistinctNode>(new DistinctNode(order_preserving));
  node->output_columns = child->output_columns;
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PlanNode> PlanBuilder::MakeLimit(
    std::unique_ptr<PlanNode> child, uint64_t offset, uint64_t limit) {
  auto node = std::unique_ptr<LimitNode>(new LimitNode(offset, limit));
  node->output_columns = child->output_columns;
  node->children.push_back(std::move(child));
  return node;
}

void PlanBuilder::RecomputeSchemas(PlanNode& node) {
  for (const std::unique_ptr<PlanNode>& child : node.children) {
    RecomputeSchemas(*child);
  }
  switch (node.kind) {
    case PlanNodeKind::kVpScan:
    case PlanNodeKind::kPtScan: {
      auto& scan = static_cast<ScanNodeBase&>(node);
      scan.output_columns = ScanOutputColumns(scan.source);
      break;
    }
    case PlanNodeKind::kHashJoin: {
      auto& join = static_cast<HashJoinNode&>(node);
      const PlanNode& left = *join.children[0];
      const PlanNode& right = *join.children[1];
      join.join_columns.clear();
      for (const std::string& name : left.output_columns) {
        if (Contains(right.output_columns, name)) {
          join.join_columns.push_back(name);
        }
      }
      join.output_columns = left.output_columns;
      for (const std::string& name : right.output_columns) {
        if (!Contains(join.output_columns, name)) {
          join.output_columns.push_back(name);
        }
      }
      break;
    }
    case PlanNodeKind::kProject: {
      auto& project = static_cast<ProjectNode&>(node);
      project.output_columns = project.columns;
      break;
    }
    case PlanNodeKind::kAggregate: {
      auto& aggregate = static_cast<AggregateNode&>(node);
      aggregate.output_columns = {aggregate.count.alias};
      break;
    }
    case PlanNodeKind::kFilter:
    case PlanNodeKind::kOrderBy:
    case PlanNodeKind::kDistinct:
    case PlanNodeKind::kLimit:
      node.output_columns = node.children[0]->output_columns;
      break;
  }
}

}  // namespace prost::plan
