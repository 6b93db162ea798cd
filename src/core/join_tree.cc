#include "core/join_tree.h"

#include "common/str_util.h"

namespace prost::core {

const char* NodeKindToString(NodeKind kind) {
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

std::set<std::string> JoinTreeNode::Variables() const {
  std::set<std::string> vars;
  for (const NodePattern& p : patterns) {
    if (p.subject.is_variable) vars.insert(p.subject.name);
    if (p.object.is_variable) vars.insert(p.object.name);
  }
  return vars;
}

std::string JoinTreeNode::Label() const {
  std::string out = NodeKindToString(kind);
  out += "(";
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (i > 0) out += " ; ";
    out += patterns[i].source.ToString();
  }
  out += ")";
  return out;
}

std::string JoinTree::ToString() const {
  std::string out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    out += StrFormat("%s%zu: %s [est %.1f]%s\n",
                     i + 1 == nodes.size() ? "root " : "node ", i,
                     nodes[i].Label().c_str(),
                     nodes[i].estimated_cardinality,
                     i == 0 ? " (highest priority)" : "");
  }
  return out;
}

}  // namespace prost::core
