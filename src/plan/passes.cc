#include "plan/passes.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "stats/cardinality_estimator.h"

namespace prost::plan {
namespace {

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  for (const std::string& existing : names) {
    if (existing == name) return true;
  }
  return false;
}

void CollectScans(PlanNode& node, std::vector<ScanNodeBase*>& scans) {
  if (node.kind == PlanNodeKind::kVpScan ||
      node.kind == PlanNodeKind::kPtScan) {
    scans.push_back(static_cast<ScanNodeBase*>(&node));
    return;
  }
  for (const std::unique_ptr<PlanNode>& child : node.children) {
    CollectScans(*child, scans);
  }
}

/// Constant-filter pushdown. FILTERs sit in the unary tail above the top
/// join; each constant one whose variable some scan binds is appended to
/// every such scan's pushed_filters and spliced out of the tail.
/// Filtering before the join is equivalent for per-row predicates, and
/// surviving rows keep their relative order, so results stay
/// bit-identical.
class FilterPushdownPass final : public OptimizerPass {
 public:
  const char* name() const override { return "filter_pushdown"; }

  Status Run(PhysicalPlan& plan, const PassContext&) override {
    std::vector<ScanNodeBase*> scans;
    CollectScans(*plan.root, scans);
    std::unique_ptr<PlanNode>* link = &plan.root;
    while (*link != nullptr) {
      PlanNode& node = **link;
      if (node.children.size() != 1) break;  // Reached the joins/scan.
      if (node.kind == PlanNodeKind::kFilter) {
        auto& filter = static_cast<FilterNode&>(node);
        if (!filter.constraint.rhs_is_variable) {
          bool pushed = false;
          for (ScanNodeBase* scan : scans) {
            if (Contains(scan->output_columns, filter.constraint.variable)) {
              scan->pushed_filters.push_back(filter.constraint);
              pushed = true;
            }
          }
          if (pushed) {
            std::unique_ptr<PlanNode> child = std::move(node.children[0]);
            *link = std::move(child);
            continue;  // Re-examine the spliced-in child.
          }
        }
      }
      link = &node.children[0];
    }
    return Status::OK();
  }
};

/// Estimated selectivity of a non-equality pushed filter (range and
/// inequality comparisons), the classic System R default.
constexpr double kRangeFilterSelectivity = 1.0 / 3.0;

/// The columns unary tail node `node` reads from its child, given the
/// columns its parent needs from it. The one liveness rule of the tail:
/// join ordering prices exchanges by what reaches the top of the joins,
/// and early projection prunes everything else.
std::vector<std::string> TailReads(const PlanNode& node,
                                   std::vector<std::string> needed) {
  auto add = [&needed](const std::string& name) {
    if (!Contains(needed, name)) needed.push_back(name);
  };
  switch (node.kind) {
    case PlanNodeKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(node);
      add(filter.constraint.variable);
      if (filter.constraint.rhs_is_variable) {
        add(filter.constraint.rhs_variable);
      }
      return needed;
    }
    case PlanNodeKind::kProject:
      return static_cast<const ProjectNode&>(node).columns;
    case PlanNodeKind::kOrderBy:
      for (const sparql::OrderKey& key :
           static_cast<const OrderByNode&>(node).keys) {
        add(key.variable);
      }
      return needed;
    case PlanNodeKind::kAggregate: {
      const auto& aggregate = static_cast<const AggregateNode&>(node);
      // COUNT(*) counts rows; a zero-column relation holds none, so
      // everything the child produces must survive.
      if (aggregate.count.variable.empty()) {
        return node.children[0]->output_columns;
      }
      return {aggregate.count.variable};
    }
    case PlanNodeKind::kDistinct:
      // DISTINCT compares whole rows: every input column is live.
      return node.children[0]->output_columns;
    default:
      return needed;  // LIMIT is a pure slice: liveness passes through.
  }
}

/// Cost-based join ordering (see DESIGN.md §14). The translator's §3.3
/// heuristic sorts scans by cardinality estimate; this pass re-enumerates
/// the join tree with real statistics instead: DPsize over connected
/// subgraphs (greedy operator ordering above kJoinOrderDpThreshold
/// leaves), bushy trees allowed, every candidate priced with the
/// cluster::CostModel charge recipe the executor will actually apply
/// (scan / broadcast / shuffle / per-row CPU). The heuristic order is
/// itself costed as a candidate, and the pass only rewrites when the
/// model predicts a strictly cheaper tree — so it can refine the paper's
/// order but never regress it under its own model.
///
/// The segment's variables are numbered once, in name order, and every
/// per-plan fact about a variable lives in an array indexed by that
/// number, so enumeration itself never touches a variable name.
class JoinOrderPass final : public OptimizerPass {
 public:
  const char* name() const override { return "join_order"; }

  Status Run(PhysicalPlan& plan, const PassContext& context) override {
    if (context.cluster == nullptr) {
      return Status::Internal("join order pass needs a cluster config");
    }
    // No statistics, no cost model: keep the translator's order.
    if (context.estimator == nullptr) return Status::OK();

    // Walk the unary tail above the join segment with early projection's
    // rule: what it needs at the top of the joins is what will flow
    // through the exchanges.
    std::unique_ptr<PlanNode>* link = &plan.root;
    std::vector<std::string> live = plan.root->output_columns;
    while ((*link)->children.size() == 1) {
      live = TailReads(**link, std::move(live));
      link = &(*link)->children[0];
    }

    // Gather the join leaves. Anything but hash joins over scans means
    // some other component already reshaped this subtree; leave it be.
    std::vector<ScanNodeBase*> scans;
    if (!CollectJoinLeaves(**link, scans) || scans.empty()) {
      return Status::OK();
    }
    const size_t n = scans.size();
    // Leaf sets are 32-bit masks; a larger segment keeps the translator's
    // order and estimates.
    if (n > kJoinOrderMaxLeaves) return Status::OK();

    // Number the variables in name order, so ascending numbers visit
    // them in the order Join divides its row estimate in.
    Enumeration e;
    e.context = &context;
    for (const ScanNodeBase* scan : scans) {
      for (const core::NodePattern& p : scan->source.patterns) {
        if (p.subject.is_variable) e.variables.push_back(p.subject.name);
        if (p.object.is_variable) e.variables.push_back(p.object.name);
      }
    }
    std::sort(e.variables.begin(), e.variables.end());
    e.variables.erase(std::unique(e.variables.begin(), e.variables.end()),
                      e.variables.end());
    e.required.assign(e.variables.size(), 0);
    for (const std::string& name : live) {
      const size_t var = e.Number(name);
      if (var < e.variables.size()) e.required[var] = 1;
    }
    e.var_leaves.assign(e.variables.size(), 0);
    for (size_t i = 0; i < n; ++i) {
      for (const core::NodePattern& p : scans[i]->source.patterns) {
        if (p.subject.is_variable) {
          e.var_leaves[e.Number(p.subject.name)] |= 1u << i;
        }
        if (p.object.is_variable) {
          e.var_leaves[e.Number(p.object.name)] |= 1u << i;
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      e.leaves.push_back(EstimateLeaf(*scans[i], i, e));
    }

    if (n >= 2) {
      // Price the translator's order (the left-deep fold over the leaves
      // in their current left-to-right sequence) as the baseline.
      EnumeratedPlan heuristic = e.leaves[0];
      bool heuristic_ok = true;
      for (size_t i = 1; i < n && heuristic_ok; ++i) {
        EnumeratedPlan next;
        if (!e.Join(heuristic, e.leaves[i], &next)) heuristic_ok = false;
        heuristic = std::move(next);
      }

      std::vector<Merge> merges;
      EnumeratedPlan best;
      const bool found = n <= kJoinOrderDpThreshold
                             ? EnumerateDp(e, &best, &merges)
                             : EnumerateGreedy(e, &best, &merges);
      if (found && heuristic_ok &&
          best.cost < heuristic.cost * (1.0 - kJoinOrderRewriteMargin)) {
        // Detach the leaves and rebuild the tree the enumerator chose.
        auto rebuilt =
            BuildTree(merges, DetachJoinLeaves(std::move(*link)));
        if (!rebuilt.ok()) return rebuilt.status();
        *link = std::move(rebuilt.value());
        PlanBuilder::RecomputeSchemas(*plan.root);
      }
    }

    // Annotate estimated_rows over the final shape: refined scan
    // estimates, independence-estimated joins, then the unary tail.
    AnnotateSegment(**link, e, scans);
    AnnotateTail(*plan.root);
    return Status::OK();
  }

 private:
  static constexpr size_t kNoStar = std::numeric_limits<size_t>::max();

  /// One join input during enumeration: modeled cost of everything below
  /// it, estimated output rows, per-variable distinct-value estimates, and
  /// the planner bytes the join decision is resolved from (scans keep
  /// their storage bytes; join outputs are unknown unless exact). The
  /// per-variable arrays are indexed by variable number and hold a value
  /// only for the variables the covered leaves bind.
  struct EnumeratedPlan {
    double cost = 0.0;
    double rows = 0.0;
    uint64_t planner_bytes = engine::kUnknownPlannerBytes;
    uint32_t mask = 0;  // Leaves covered.
    std::vector<double> distinct;
    /// Worst-case output rows, from per-predicate max-fanout caps (and
    /// characteristic sets where they apply). `rows` is the expectation
    /// under independence; skewed joins land anywhere between the two,
    /// so exchanges are priced at their geometric mean — see CostRows.
    double rows_upper = 0.0;
    /// Per-variable cap: no single value of the variable can occur on
    /// more rows than this. This is what lets a join bound its fan-out.
    std::vector<double> max_fanout;
    /// The subject variable's number when this plan is a pure subject
    /// star: every covered scan is keyed by it and joined only on it
    /// (kNoStar otherwise). Characteristic sets then price the star
    /// merge exactly instead of by independence — `star_predicates` are
    /// the star's columns and `star_selectivity` the fraction the
    /// leaves' constants and filters keep of the raw star.
    size_t star_key = kNoStar;
    std::vector<rdf::TermId> star_predicates;
    double star_selectivity = 1.0;
  };

  /// One join of the chosen tree: the leaf masks of its (left, right)
  /// inputs.
  using Merge = std::pair<uint32_t, uint32_t>;

  struct Enumeration {
    const PassContext* context = nullptr;
    /// The segment's variable names, sorted; a variable's number is its
    /// index here.
    std::vector<std::string> variables;
    /// Per variable: whether the tail reads it, and the leaves binding it.
    std::vector<char> required;
    std::vector<uint32_t> var_leaves;
    std::vector<EnumeratedPlan> leaves;

    /// The number of variable `name`, or variables.size() when the
    /// segment does not bind it.
    size_t Number(const std::string& name) const {
      const auto it =
          std::lower_bound(variables.begin(), variables.end(), name);
      return it != variables.end() && *it == name
                 ? static_cast<size_t>(it - variables.begin())
                 : variables.size();
    }

    /// True when one of the leaves `p` covers binds variable `var`.
    bool Binds(const EnumeratedPlan& p, size_t var) const {
      return (var_leaves[var] & p.mask) != 0;
    }

    /// True when `var` must flow out of the side covering `side_mask`:
    /// either the tail reads it or a leaf outside the side binds it.
    bool Live(size_t var, uint32_t side_mask) const {
      return required[var] != 0 || (var_leaves[var] & ~side_mask) != 0;
    }

    /// Row count an exchange of `p` is priced at: the geometric mean of
    /// the independence estimate and the fan-out upper bound. For exact
    /// star intermediates the two coincide and this is just the truth;
    /// for correlation-prone joins (the estimate trusts independence,
    /// the bound trusts nothing) the hedge keeps the model from calling
    /// a potentially huge shuffle cheap.
    static double CostRows(const EnumeratedPlan& p) {
      const double upper = std::max(p.rows_upper, p.rows);
      if (!std::isfinite(upper)) return p.rows;
      return std::sqrt(p.rows * upper);
    }

    /// Bytes of `p` that an exchange must move, counting only live
    /// columns (early projection prunes the rest before bytes travel).
    double LiveBytes(const EnumeratedPlan& p) const {
      size_t columns = 0;
      for (size_t var = 0; var < variables.size(); ++var) {
        if (Binds(p, var) && Live(var, p.mask)) ++columns;
      }
      columns = std::max<size_t>(columns, 1);
      return CostRows(p) * static_cast<double>(columns) *
             context->cluster->bytes_per_value;
    }

    /// Models joining `l` and `r` with the CostModel charge recipe.
    /// Returns false when the sides share no variable (a cross join the
    /// enumerator must not take).
    bool Join(const EnumeratedPlan& l, const EnumeratedPlan& r,
              EnumeratedPlan* out) const {
      const cluster::ClusterConfig& cc = *context->cluster;
      const double workers = std::max<uint32_t>(cc.num_workers, 1);
      const size_t num_vars = variables.size();

      double rows = l.rows * r.rows;
      bool shared = false;
      bool only_star_key = true;
      // Max matches any one row finds on the other side: the tightest
      // per-value cap among the shared variables.
      double l_match = std::numeric_limits<double>::infinity();
      double r_match = std::numeric_limits<double>::infinity();
      for (size_t var = 0; var < num_vars; ++var) {
        if (!Binds(l, var) || !Binds(r, var)) continue;
        shared = true;
        if (var != l.star_key) only_star_key = false;
        rows /= std::max(std::max(l.distinct[var], r.distinct[var]), 1.0);
        l_match = std::min(l_match, r.max_fanout[var]);
        r_match = std::min(r_match, l.max_fanout[var]);
      }
      if (!shared) return false;
      double rows_upper =
          std::min(l.rows_upper * r.rows_upper,
                   std::min(l.rows_upper * l_match, r.rows_upper * r_match));
      // The bound is a hard cap: an independence estimate above it is
      // provably too high.
      if (std::isfinite(rows_upper)) rows = std::min(rows, rows_upper);
      rows = std::max(rows, stats::kMinEstimatedRows);

      // Two halves of one subject star, meeting only on their shared
      // key: characteristic sets price the merged star exactly, so use
      // that instead of the independence product.
      bool star = l.star_key != kNoStar && l.star_key == r.star_key &&
                  only_star_key;
      std::vector<rdf::TermId> merged_predicates;
      double merged_selectivity = 1.0;
      std::optional<stats::CharacteristicSets::StarEstimate> exact;
      if (star) {
        merged_predicates = l.star_predicates;
        merged_predicates.insert(merged_predicates.end(),
                                 r.star_predicates.begin(),
                                 r.star_predicates.end());
        std::sort(merged_predicates.begin(), merged_predicates.end());
        merged_predicates.erase(
            std::unique(merged_predicates.begin(), merged_predicates.end()),
            merged_predicates.end());
        exact = context->estimator->StarExact(merged_predicates);
        if (exact.has_value()) {
          const double raw = exact->rows;
          merged_selectivity = l.star_selectivity * r.star_selectivity;
          rows = std::max(raw * merged_selectivity, stats::kMinEstimatedRows);
          // The unconstrained star is exact, and constants and filters
          // only shrink it.
          rows_upper = std::min(rows_upper, std::max(raw, rows));
        } else {
          star = false;
        }
      }
      out->rows_upper = std::max(rows_upper, rows);

      out->mask = l.mask | r.mask;
      out->rows = rows;
      out->planner_bytes = engine::kUnknownPlannerBytes;
      if (star) {
        out->star_key = l.star_key;
        out->star_predicates = std::move(merged_predicates);
        out->star_selectivity = merged_selectivity;
      } else {
        out->star_key = kNoStar;
        out->star_predicates.clear();
        out->star_selectivity = 1.0;
      }
      // Distinct values cannot exceed the output rows. Per-value caps:
      // rows carrying one value of a variable are its side's cap times
      // the matches each such row finds on the other side.
      out->distinct.resize(num_vars);
      out->max_fanout.resize(num_vars);
      const double max_distinct = std::max(rows, 1.0);
      for (size_t var = 0; var < num_vars; ++var) {
        const bool in_l = Binds(l, var);
        const bool in_r = Binds(r, var);
        if (!in_l && !in_r) continue;
        const double d = !in_r   ? l.distinct[var]
                         : !in_l ? r.distinct[var]
                                 : std::min(l.distinct[var], r.distinct[var]);
        out->distinct[var] = std::min(d, max_distinct);
        double cap = std::numeric_limits<double>::infinity();
        if (in_l) cap = l.max_fanout[var] * l_match;
        if (in_r) cap = std::min(cap, r.max_fanout[var] * r_match);
        out->max_fanout[var] = std::min(cap, out->rows_upper);
      }
      if (star) {
        // The surviving key values are exactly the subjects carrying
        // every merged predicate (scaled by the constants' selectivity).
        const double subjects = static_cast<double>(exact->subjects);
        double& key_distinct = out->distinct[out->star_key];
        key_distinct = std::min(
            key_distinct,
            std::max(subjects * merged_selectivity, stats::kMinEstimatedRows));
        // A star merge untouched by constants or filters is priced
        // *exactly* by the characteristic sets, so its output size is a
        // fact, not a guess: publish it as the planner size, letting
        // joins above broadcast a provably small intermediate (the
        // heuristic plan leaves it unknown and always shuffles).
        if (merged_selectivity >= 1.0 - 1e-9) {
          out->planner_bytes = static_cast<uint64_t>(LiveBytes(*out));
        }
      }

      // The decision the join will execute on these planner bytes.
      const engine::JoinDecision decision = engine::ResolveJoinStrategy(
          l.planner_bytes, r.planner_bytes, context->join, cc);
      const double l_bytes = LiveBytes(l);
      const double r_bytes = LiveBytes(r);
      double increment = 0.0;
      if (decision.strategy == engine::JoinStrategy::kBroadcast) {
        // The decided side ships to every worker and each worker builds
        // its table; probe + emit spread across the cluster.
        const bool l_small = decision.broadcast_left;
        const double small_bytes = l_small ? l_bytes : r_bytes;
        const double small_rows = l_small ? l.rows : r.rows;
        const double big_rows = l_small ? r.rows : l.rows;
        increment = small_bytes / cc.network_bytes_per_sec +
                    small_rows / cc.cpu_rows_per_sec +
                    (big_rows + rows) / (cc.cpu_rows_per_sec * workers);
      } else {
        // A shuffle join closes the stage and repartitions both sides.
        increment = cc.stage_overhead_sec + 2.0 * cc.shuffle_latency_sec +
                    (l_bytes + r_bytes) / (cc.network_bytes_per_sec * workers) +
                    (l.rows + r.rows + rows) / (cc.cpu_rows_per_sec * workers);
      }
      out->cost = l.cost + r.cost + increment;
      return true;
    }
  };

  /// Collects the scan leaves of the join segment in left-to-right
  /// order. Returns false when the segment is not hash joins over scans.
  static bool CollectJoinLeaves(PlanNode& node,
                                std::vector<ScanNodeBase*>& scans) {
    if (node.kind == PlanNodeKind::kVpScan ||
        node.kind == PlanNodeKind::kPtScan) {
      scans.push_back(static_cast<ScanNodeBase*>(&node));
      return true;
    }
    if (node.kind != PlanNodeKind::kHashJoin) return false;
    for (const std::unique_ptr<PlanNode>& child : node.children) {
      if (!CollectJoinLeaves(*child, scans)) return false;
    }
    return true;
  }

  /// Moves the scan leaves out of `segment` (left-to-right), discarding
  /// the join shells around them.
  static std::vector<std::unique_ptr<PlanNode>> DetachJoinLeaves(
      std::unique_ptr<PlanNode> segment) {
    std::vector<std::unique_ptr<PlanNode>> leaves;
    if (segment->kind == PlanNodeKind::kHashJoin) {
      for (std::unique_ptr<PlanNode>& child : segment->children) {
        auto sub = DetachJoinLeaves(std::move(child));
        for (auto& leaf : sub) leaves.push_back(std::move(leaf));
      }
    } else {
      leaves.push_back(std::move(segment));
    }
    return leaves;
  }

  /// Converts a scan's source node into the estimator's descriptor.
  static stats::StarDescriptor Describe(const core::JoinTreeNode& source) {
    stats::StarDescriptor desc;
    desc.key_is_object = source.kind == core::NodeKind::kReversePropertyTable;
    desc.patterns.reserve(source.patterns.size());
    for (const core::NodePattern& p : source.patterns) {
      stats::PatternDescriptor pd;
      pd.predicate = p.predicate;
      pd.subject_is_constant = !p.subject.is_variable;
      pd.object_is_constant = !p.object.is_variable;
      desc.patterns.push_back(pd);
    }
    return desc;
  }

  /// Estimates scan leaf `index`: output rows, per-variable distinct
  /// values and fan-out caps, and the thinning effect of its pushed
  /// constant filters. A variable bound twice in one scan is an
  /// implicit self-join, so it keeps the smaller of its estimates.
  static EnumeratedPlan EstimateLeaf(const ScanNodeBase& scan, size_t index,
                                     const Enumeration& e) {
    const stats::CardinalityEstimator& est = *e.context->estimator;
    const stats::StarDescriptor desc = Describe(scan.source);
    const double inf = std::numeric_limits<double>::infinity();
    const stats::CardinalityEstimator::ScanEstimate estimate =
        est.EstimateScan(desc);
    EnumeratedPlan out;
    out.mask = 1u << index;
    out.rows = estimate.rows;
    out.planner_bytes = scan.planner_bytes;
    out.distinct.assign(e.variables.size(), inf);
    out.max_fanout.assign(e.variables.size(), inf);
    const double key_distinct = estimate.key_distinct;
    for (size_t i = 0; i < scan.source.patterns.size(); ++i) {
      const core::NodePattern& p = scan.source.patterns[i];
      const core::PatternTerm& key = desc.key_is_object ? p.object : p.subject;
      const core::PatternTerm& value =
          desc.key_is_object ? p.subject : p.object;
      if (key.is_variable) {
        double& d = out.distinct[e.Number(key.name)];
        d = std::min(d, key_distinct);
      }
      if (value.is_variable) {
        double& d = out.distinct[e.Number(value.name)];
        d = std::min(d, est.EstimateValueDistinct(desc, i, out.rows));
      }
    }
    for (const sparql::FilterConstraint& f : scan.pushed_filters) {
      const size_t var = e.Number(f.variable);
      double* distinct = var < e.variables.size() && e.Binds(out, var)
                             ? &out.distinct[var]
                             : nullptr;
      const double d = distinct == nullptr ? 1.0 : *distinct;
      double selectivity = 1.0;
      switch (f.op) {
        case sparql::CompareOp::kEq:
          selectivity = 1.0 / std::max(d, 1.0);
          if (distinct != nullptr) *distinct = 1.0;
          break;
        case sparql::CompareOp::kNe:
          selectivity = d <= 1.0 ? 1.0 : 1.0 - 1.0 / d;
          break;
        default:
          selectivity = kRangeFilterSelectivity;
          if (distinct != nullptr) {
            *distinct = std::max(*distinct * selectivity, 1.0);
          }
          break;
      }
      out.rows = std::max(out.rows * selectivity, stats::kMinEstimatedRows);
    }
    for (double& d : out.distinct) d = std::min(d, std::max(out.rows, 1.0));
    // Worst-case size: per-pattern max-fanout caps compose into a bound
    // no skew can exceed — each extra pattern multiplies the rows one
    // key value contributes by at most its key-side fanout.
    const size_t np = desc.patterns.size();
    std::vector<double> f_key(np, inf);
    std::vector<double> f_val(np, inf);
    std::vector<double> tc(np, inf);
    for (size_t i = 0; i < np; ++i) {
      const rdf::PredicateStats* ps = est.Lookup(desc.patterns[i].predicate);
      if (ps == nullptr) continue;
      const double fs = static_cast<double>(
          std::max<uint64_t>(ps->max_subject_fanout, 1));
      const double fo = static_cast<double>(
          std::max<uint64_t>(ps->max_object_fanout, 1));
      f_key[i] = desc.key_is_object ? fo : fs;
      f_val[i] = desc.key_is_object ? fs : fo;
      tc[i] = static_cast<double>(ps->triple_count);
    }
    out.rows_upper = inf;
    for (size_t i = 0; i < np; ++i) {
      const stats::PatternDescriptor& pd = desc.patterns[i];
      const bool key_const =
          desc.key_is_object ? pd.object_is_constant : pd.subject_is_constant;
      const bool val_const =
          desc.key_is_object ? pd.subject_is_constant : pd.object_is_constant;
      double bound = tc[i];
      if (key_const && val_const) {
        bound = 1.0;  // Deduplicated graph: one row per (s, o) pair.
      } else if (key_const) {
        bound = f_key[i];
      } else if (val_const) {
        bound = f_val[i];
      }
      for (size_t j = 0; j < np; ++j) {
        if (j != i) bound *= f_key[j];
      }
      out.rows_upper = std::min(out.rows_upper, bound);
    }
    for (size_t i = 0; i < np; ++i) {
      const core::NodePattern& p = scan.source.patterns[i];
      const core::PatternTerm& key = desc.key_is_object ? p.object : p.subject;
      const core::PatternTerm& value =
          desc.key_is_object ? p.subject : p.object;
      if (key.is_variable) {
        double cap = 1.0;
        for (size_t j = 0; j < np; ++j) cap *= f_key[j];
        double& f = out.max_fanout[e.Number(key.name)];
        f = std::min(f, cap);
      }
      if (value.is_variable) {
        double cap = f_val[i];
        for (size_t j = 0; j < np; ++j) {
          if (j != i) cap *= f_key[j];
        }
        double& f = out.max_fanout[e.Number(value.name)];
        f = std::min(f, cap);
      }
    }
    if (std::isfinite(out.rows_upper)) {
      out.rows = std::min(out.rows,
                          std::max(out.rows_upper, stats::kMinEstimatedRows));
    }
    // A subject-keyed scan whose patterns all hang off one subject
    // variable is a star fragment; remember its columns so later joins
    // on that key can be priced exactly from the characteristic sets.
    if (!desc.key_is_object && !scan.source.patterns.empty() &&
        scan.source.patterns[0].subject.is_variable) {
      const std::string& key = scan.source.patterns[0].subject.name;
      bool pure = true;
      std::vector<rdf::TermId> predicates;
      predicates.reserve(scan.source.patterns.size());
      for (const core::NodePattern& p : scan.source.patterns) {
        if (!p.subject.is_variable || p.subject.name != key) {
          pure = false;
          break;
        }
        predicates.push_back(p.predicate);
      }
      if (pure) {
        std::sort(predicates.begin(), predicates.end());
        predicates.erase(std::unique(predicates.begin(), predicates.end()),
                         predicates.end());
        // A pure star's predicates are the scan's own, so the star count
        // behind its row estimate is StarExact(predicates).
        const std::optional<stats::CharacteristicSets::StarEstimate>&
            exact = estimate.star;
        if (exact.has_value() && exact->rows > 0.0) {
          const double raw = exact->rows;
          out.star_key = e.Number(key);
          out.star_predicates = std::move(predicates);
          out.star_selectivity = out.rows / raw;
          // The unconstrained star count is exact; constants and
          // filters only shrink it.
          out.rows_upper = std::min(out.rows_upper, raw);
        }
      }
    }
    out.rows_upper = std::max(out.rows_upper, out.rows);
    for (double& f : out.max_fanout) f = std::min(f, out.rows_upper);
    return out;
  }

  /// DPsize over connected subgraphs. Fills `best` with the optimum for
  /// the full leaf set and `merges` with its joins, inputs before the
  /// joins over them. Returns false when the join graph is disconnected.
  static bool EnumerateDp(const Enumeration& e, EnumeratedPlan* best,
                          std::vector<Merge>* merges) {
    const size_t n = e.leaves.size();
    const uint32_t full = (1u << n) - 1;
    std::vector<EnumeratedPlan> table(full + 1);
    std::vector<char> valid(full + 1, 0);
    std::vector<Merge> split(full + 1);  // The winning split per subset.
    for (size_t i = 0; i < n; ++i) {
      table[1u << i] = e.leaves[i];
      valid[1u << i] = 1;
    }
    EnumeratedPlan joined;
    for (uint32_t mask = 3; mask <= full; ++mask) {
      if (std::popcount(mask) < 2) continue;
      for (uint32_t sub = (mask - 1) & mask; sub != 0;
           sub = (sub - 1) & mask) {
        const uint32_t other = mask ^ sub;
        if (sub > other) continue;  // Unordered split: visit each once.
        if (valid[sub] == 0 || valid[other] == 0) continue;
        if (!e.Join(table[sub], table[other], &joined)) continue;
        if (valid[mask] == 0 || joined.cost < table[mask].cost) {
          table[mask] = joined;
          split[mask] = {sub, other};
          valid[mask] = 1;
        }
      }
    }
    if (valid[full] == 0) return false;
    *best = std::move(table[full]);
    AppendMerges(split, full, merges);
    return true;
  }

  /// Appends the joins building `mask` from the split table, post-order.
  static void AppendMerges(const std::vector<Merge>& split, uint32_t mask,
                           std::vector<Merge>* merges) {
    if (std::popcount(mask) == 1) return;
    AppendMerges(split, split[mask].first, merges);
    AppendMerges(split, split[mask].second, merges);
    merges->push_back(split[mask]);
  }

  /// Greedy operator ordering for joins too wide for DPsize: repeatedly
  /// merge the connected pair with the cheapest modeled join, recording
  /// each merge in the order it happened.
  static bool EnumerateGreedy(const Enumeration& e, EnumeratedPlan* best,
                              std::vector<Merge>* merges) {
    std::vector<EnumeratedPlan> components = e.leaves;
    while (components.size() > 1) {
      size_t best_i = 0;
      size_t best_j = 0;
      EnumeratedPlan best_joined;
      bool found = false;
      EnumeratedPlan joined;
      for (size_t i = 0; i < components.size(); ++i) {
        for (size_t j = i + 1; j < components.size(); ++j) {
          if (!e.Join(components[i], components[j], &joined)) continue;
          if (!found || joined.cost < best_joined.cost) {
            found = true;
            best_i = i;
            best_j = j;
            best_joined = joined;
          }
        }
      }
      if (!found) return false;  // Disconnected join graph.
      merges->push_back({components[best_i].mask, components[best_j].mask});
      components.erase(components.begin() + best_j);
      components[best_i] = std::move(best_joined);
    }
    *best = std::move(components[0]);
    return true;
  }

  /// Rebuilds the physical join tree by replaying `merges` over the
  /// detached leaves. Each partial tree sits at the index of its lowest
  /// leaf, so the last merge leaves the whole tree at index 0.
  static Result<std::unique_ptr<PlanNode>> BuildTree(
      const std::vector<Merge>& merges,
      std::vector<std::unique_ptr<PlanNode>> parts) {
    for (const auto& [left, right] : merges) {
      PROST_ASSIGN_OR_RETURN(
          parts[std::countr_zero(left | right)],
          PlanBuilder::MakeHashJoin(std::move(parts[std::countr_zero(left)]),
                                    std::move(parts[std::countr_zero(right)])));
    }
    return std::move(parts[0]);
  }

  /// Bottom-up estimate annotation over the final join segment; `scans`
  /// are the leaves in their enumeration order.
  static EnumeratedPlan AnnotateSegment(
      PlanNode& node, const Enumeration& e,
      const std::vector<ScanNodeBase*>& scans) {
    if (node.kind != PlanNodeKind::kHashJoin) {
      const auto it = std::find(scans.begin(), scans.end(), &node);
      if (it == scans.end()) return EnumeratedPlan{};
      const EnumeratedPlan& leaf = e.leaves[it - scans.begin()];
      node.estimated_rows = leaf.rows;
      return leaf;
    }
    EnumeratedPlan left = AnnotateSegment(*node.children[0], e, scans);
    EnumeratedPlan right = AnnotateSegment(*node.children[1], e, scans);
    EnumeratedPlan joined;
    if (e.Join(left, right, &joined)) {
      node.estimated_rows = joined.rows;
      // Exact star intermediates publish their size so the join above
      // may broadcast them (ResolveJoinStrategy reads it, in the
      // join_strategy pass or in the executor).
      node.planner_bytes = joined.planner_bytes;
      return joined;
    }
    return EnumeratedPlan{};
  }

  /// Propagates estimates up the unary tail above the (already
  /// annotated) join segment. Returns the node's estimate.
  static double AnnotateTail(PlanNode& node) {
    if (node.children.size() != 1) return node.estimated_rows;
    const double child = AnnotateTail(*node.children[0]);
    if (child < 0) return node.estimated_rows;
    double rows = child;
    switch (node.kind) {
      case PlanNodeKind::kFilter:
        // Tail filters are variable-vs-variable (constants were pushed);
        // apply the default comparison selectivity.
        rows = std::max(child * kRangeFilterSelectivity,
                        stats::kMinEstimatedRows);
        break;
      case PlanNodeKind::kAggregate:
        rows = 1.0;
        break;
      case PlanNodeKind::kLimit: {
        const auto& limit = static_cast<const LimitNode&>(node);
        if (limit.limit > 0) {
          rows = std::min(child, static_cast<double>(limit.limit));
        }
        break;
      }
      default:
        break;  // Project / OrderBy / Distinct: pass through (upper bound).
    }
    node.estimated_rows = rows;
    return rows;
  }
};

/// Plan-time join-strategy resolution: engine::ResolveJoinStrategy over
/// each join's children's planner_bytes. HashJoin executes the decision
/// as given.
class JoinStrategyPass final : public OptimizerPass {
 public:
  const char* name() const override { return "join_strategy"; }

  Status Run(PhysicalPlan& plan, const PassContext& context) override {
    if (context.cluster == nullptr) {
      return Status::Internal("join strategy pass needs a cluster config");
    }
    Resolve(*plan.root, context);
    return Status::OK();
  }

 private:
  void Resolve(PlanNode& node, const PassContext& context) {
    for (const std::unique_ptr<PlanNode>& child : node.children) {
      Resolve(*child, context);
    }
    if (node.kind != PlanNodeKind::kHashJoin) return;
    auto& join = static_cast<HashJoinNode&>(node);
    join.decision = engine::ResolveJoinStrategy(
        join.children[0]->planner_bytes, join.children[1]->planner_bytes,
        context.join, *context.cluster);
  }
};

/// Early projection (the S2RDF lesson: what flows between joins dominates
/// cost). Computes, top-down, the columns each subtree must still
/// produce; at every join input carrying dead columns it inserts a
/// zero-cost prune ProjectNode. Join columns always survive, so join
/// results are unchanged — only the bytes the exchanges charge shrink.
class EarlyProjectionPass final : public OptimizerPass {
 public:
  const char* name() const override { return "early_projection"; }

  Status Run(PhysicalPlan& plan, const PassContext&) override {
    Prune(plan.root, plan.root->output_columns);
    PlanBuilder::RecomputeSchemas(*plan.root);
    // Recomputation shrinks join outputs above deeper prunes, which can
    // turn an inserted prune into a no-op; splice those out so every
    // surviving prune drops at least one column.
    RemoveNoOpPrunes(plan.root);
    return Status::OK();
  }

 private:
  static void RemoveNoOpPrunes(std::unique_ptr<PlanNode>& node) {
    for (std::unique_ptr<PlanNode>& child : node->children) {
      RemoveNoOpPrunes(child);
    }
    if (node->kind != PlanNodeKind::kProject) return;
    const auto& project = static_cast<const ProjectNode&>(*node);
    if (project.optimizer_inserted &&
        project.columns == project.children[0]->output_columns) {
      node = std::move(node->children[0]);
    }
  }

  void Prune(std::unique_ptr<PlanNode>& node,
             std::vector<std::string> required) {
    if (node->kind == PlanNodeKind::kVpScan ||
        node->kind == PlanNodeKind::kPtScan) {
      return;  // Scans already emit only pattern variables.
    }
    if (node->kind != PlanNodeKind::kHashJoin) {
      Prune(node->children[0], TailReads(*node, std::move(required)));
      return;
    }
    auto& join = static_cast<HashJoinNode&>(*node);
    for (std::unique_ptr<PlanNode>& child : join.children) {
      // A join input must keep what downstream reads plus the join keys
      // themselves.
      std::vector<std::string> child_required;
      for (const std::string& name : child->output_columns) {
        if (Contains(required, name) || Contains(join.join_columns, name)) {
          child_required.push_back(name);
        }
      }
      if (child_required.size() < child->output_columns.size()) {
        child = PlanBuilder::MakeProject(std::move(child), child_required,
                                         /*optimizer_inserted=*/true);
        Prune(child->children[0], std::move(child_required));
      } else {
        Prune(child, std::move(child_required));
      }
    }
  }
};

}  // namespace

PassManager::PassManager(PassManagerOptions options)
    : options_(std::move(options)) {}

void PassManager::AddPass(std::unique_ptr<OptimizerPass> pass) {
  passes_.push_back(std::move(pass));
}

Status PassManager::Run(PhysicalPlan& plan, const PassContext& context) {
  snapshots_.clear();
  if (options_.validate) {
    PROST_RETURN_IF_ERROR(options_.validate(plan));
  }
  for (const std::unique_ptr<OptimizerPass>& pass : passes_) {
    // A pass starts from the plan the previous pass left, so its "before"
    // is that pass's "after": render each plan once.
    std::string before;
    if (options_.record_snapshots) {
      before = snapshots_.empty() ? plan.ToString() : snapshots_.back().after;
    }
    PROST_RETURN_IF_ERROR(pass->Run(plan, context));
    if (options_.record_snapshots) {
      snapshots_.push_back(
          PassSnapshot{pass->name(), std::move(before), plan.ToString()});
    }
    if (options_.validate) {
      PROST_RETURN_IF_ERROR(options_.validate(plan));
    }
  }
  return Status::OK();
}

std::unique_ptr<OptimizerPass> MakeFilterPushdownPass() {
  return std::make_unique<FilterPushdownPass>();
}

std::unique_ptr<OptimizerPass> MakeJoinOrderPass() {
  return std::make_unique<JoinOrderPass>();
}

std::unique_ptr<OptimizerPass> MakeJoinStrategyPass() {
  return std::make_unique<JoinStrategyPass>();
}

std::unique_ptr<OptimizerPass> MakeEarlyProjectionPass() {
  return std::make_unique<EarlyProjectionPass>();
}

void AddDefaultPasses(PassManager& manager, const PassOptions& options) {
  if (options.filter_pushdown) manager.AddPass(MakeFilterPushdownPass());
  if (options.join_order) manager.AddPass(MakeJoinOrderPass());
  if (options.resolve_join_strategy) manager.AddPass(MakeJoinStrategyPass());
  if (options.early_projection) manager.AddPass(MakeEarlyProjectionPass());
}

}  // namespace prost::plan
