#ifndef PROST_CORE_JOIN_TREE_H_
#define PROST_CORE_JOIN_TREE_H_

#include <set>
#include <string>
#include <vector>

#include "core/pattern_term.h"
#include "rdf/triple.h"
#include "sparql/algebra.h"

namespace prost::core {

/// How a Join Tree node's sub-query is evaluated (§3.2): from the
/// Property Table (same-subject groups), from a Vertical Partitioning
/// table (single patterns), or from the reverse (object-keyed) Property
/// Table (§5 future work, same-object groups).
enum class NodeKind {
  kVerticalPartitioning,
  kPropertyTable,
  kReversePropertyTable,
};

const char* NodeKindToString(NodeKind kind);

/// One triple pattern with its positions resolved against the dictionary.
struct NodePattern {
  sparql::TriplePattern source;  // Original pattern (diagnostics).
  rdf::TermId predicate = rdf::kNullTermId;
  PatternTerm subject;
  PatternTerm object;
};

/// A node of the Join Tree: a sub-query answered by one storage structure.
struct JoinTreeNode {
  NodeKind kind = NodeKind::kVerticalPartitioning;
  std::vector<NodePattern> patterns;
  /// §3.3 priority signal; larger = computed later (the largest node is
  /// the root).
  double estimated_cardinality = 0;

  /// Variables this node binds.
  std::set<std::string> Variables() const;

  /// "PT(?v0: <p1>,<p2>)" / "VP(?s <p> ?o)" style label.
  std::string Label() const;
};

/// The Join Tree in execution order: nodes[0] is evaluated first and
/// nodes.back() is the root; execution folds left-deep, joining each
/// node's relation into the accumulated result.
struct JoinTree {
  std::vector<JoinTreeNode> nodes;

  std::string ToString() const;
};

}  // namespace prost::core

#endif  // PROST_CORE_JOIN_TREE_H_
