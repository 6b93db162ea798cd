#include "plan/passes.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
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
class JoinOrderPass final : public OptimizerPass {
 public:
  const char* name() const override { return "join_order"; }

  Status Run(PhysicalPlan& plan, const PassContext& context) override {
    if (context.cluster == nullptr) {
      return Status::Internal("join order pass needs a cluster config");
    }
    // No statistics, no cost model: keep the translator's order.
    if (context.estimator == nullptr) return Status::OK();

    // Walk the unary tail above the join segment, collecting the columns
    // it still reads — the live set at the top of the joins, which is
    // what early projection will let flow through the exchanges.
    std::unique_ptr<PlanNode>* link = &plan.root;
    std::set<std::string> required(plan.root->output_columns.begin(),
                                   plan.root->output_columns.end());
    while ((*link)->children.size() == 1) {
      CollectTailRequirements(**link, required);
      link = &(*link)->children[0];
    }

    Enumeration e;
    e.context = &context;
    e.required = &required;

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
    for (size_t i = 0; i < n; ++i) {
      e.leaves.push_back(EstimateLeaf(*scans[i], *context.estimator));
      e.leaves.back().mask = 1u << i;
      for (const auto& [var, d] : e.leaves.back().distinct) {
        (void)d;
        e.var_leaves[var] |= 1u << i;
      }
      e.leaf_index[scans[i]] = i;
    }
    for (auto& leaf : e.leaves) {
      for (const auto& [var, d] : leaf.distinct) {
        (void)d;
        leaf.adjacency |= e.var_leaves[var];
      }
      leaf.adjacency &= ~leaf.mask;
    }

    if (n >= 2) {
      // Price the translator's order (the left-deep fold over the leaves
      // in their current left-to-right sequence) as the baseline.
      EnumeratedPlan heuristic = e.leaves[0];
      bool heuristic_ok = true;
      for (size_t i = 1; i < n && heuristic_ok; ++i) {
        EnumeratedPlan next;
        if (!e.Join(heuristic, e.leaves[i], &next)) heuristic_ok = false;
        heuristic = next;
      }

      std::vector<std::pair<uint32_t, uint32_t>> split;
      EnumeratedPlan best;
      const bool found = n <= kJoinOrderDpThreshold
                             ? EnumerateDp(e, &best, &split)
                             : EnumerateGreedy(e, &best, &split);
      if (found && heuristic_ok &&
          best.cost < heuristic.cost * (1.0 - kJoinOrderRewriteMargin)) {
        // Detach the leaves and rebuild the tree the enumerator chose.
        std::vector<std::unique_ptr<PlanNode>> leaf_nodes =
            DetachJoinLeaves(std::move(*link));
        auto rebuilt = BuildTree(split, leaf_nodes, (1u << n) - 1);
        if (!rebuilt.ok()) return rebuilt.status();
        *link = std::move(rebuilt.value());
        PlanBuilder::RecomputeSchemas(*plan.root);
      }
    }

    // Annotate estimated_rows over the final shape: refined scan
    // estimates, independence-estimated joins, then the unary tail.
    AnnotateSegment(**link, e);
    AnnotateTail(*plan.root);
    return Status::OK();
  }

 private:
  /// One join input during enumeration: modeled cost of everything below
  /// it, estimated output rows, per-column distinct-value estimates, and
  /// the planner bytes the join decision is resolved from (scans keep
  /// their storage bytes; join outputs are unknown unless exact).
  struct EnumeratedPlan {
    double cost = 0.0;
    double rows = 0.0;
    uint64_t planner_bytes = engine::kUnknownPlannerBytes;
    uint32_t mask = 0;       // Leaves covered.
    uint32_t adjacency = 0;  // Leaves sharing a variable (leaf-only).
    std::map<std::string, double> distinct;
    /// Worst-case output rows, from per-predicate max-fanout caps (and
    /// characteristic sets where they apply). `rows` is the expectation
    /// under independence; skewed joins land anywhere between the two,
    /// so exchanges are priced at their geometric mean — see CostRows.
    double rows_upper = 0.0;
    /// Per-variable cap: no single value of the variable can occur on
    /// more rows than this. This is what lets a join bound its fan-out.
    std::map<std::string, double> max_fanout;
    /// Non-empty when this plan is a pure subject star: every covered
    /// scan is keyed by this subject variable and joined only on it.
    /// Characteristic sets then price the star merge exactly instead of
    /// by independence — `star_predicates` are the star's columns and
    /// `star_selectivity` the fraction the leaves' constants and filters
    /// keep of the raw star.
    std::string star_key;
    std::vector<rdf::TermId> star_predicates;
    double star_selectivity = 1.0;
  };

  struct Enumeration {
    const PassContext* context = nullptr;
    const std::set<std::string>* required = nullptr;
    std::vector<EnumeratedPlan> leaves;
    std::map<std::string, uint32_t> var_leaves;
    std::map<const PlanNode*, size_t> leaf_index;

    /// Per-value row cap of `var` in `p` (infinite when untracked).
    static double FanoutOf(const EnumeratedPlan& p, const std::string& var) {
      const auto it = p.max_fanout.find(var);
      return it == p.max_fanout.end()
                 ? std::numeric_limits<double>::infinity()
                 : it->second;
    }

    /// True when `var` must flow out of the side covering `side_mask`:
    /// either the tail reads it or a leaf outside the side binds it.
    bool Live(const std::string& var, uint32_t side_mask) const {
      if (required->count(var) != 0) return true;
      const auto it = var_leaves.find(var);
      return it != var_leaves.end() && (it->second & ~side_mask) != 0;
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
      for (const auto& [var, d] : p.distinct) {
        (void)d;
        if (Live(var, p.mask)) ++columns;
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

      double rows = l.rows * r.rows;
      bool shared = false;
      bool only_star_key = true;
      // Max matches any one row finds on the other side: the tightest
      // per-value cap among the shared variables.
      double l_match = std::numeric_limits<double>::infinity();
      double r_match = std::numeric_limits<double>::infinity();
      for (const auto& [var, dl] : l.distinct) {
        const auto it = r.distinct.find(var);
        if (it == r.distinct.end()) continue;
        shared = true;
        if (var != l.star_key) only_star_key = false;
        rows /= std::max(std::max(dl, it->second), 1.0);
        l_match = std::min(l_match, FanoutOf(r, var));
        r_match = std::min(r_match, FanoutOf(l, var));
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
      bool star = context->estimator != nullptr && !l.star_key.empty() &&
                  l.star_key == r.star_key && only_star_key;
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
        out->star_key.clear();
        out->star_predicates.clear();
        out->star_selectivity = 1.0;
      }
      out->distinct.clear();
      for (const auto& [var, dl] : l.distinct) {
        const auto it = r.distinct.find(var);
        const double d = it == r.distinct.end() ? dl : std::min(dl, it->second);
        out->distinct[var] = std::min(d, std::max(rows, 1.0));
      }
      for (const auto& [var, dr] : r.distinct) {
        if (out->distinct.count(var) != 0) continue;
        out->distinct[var] = std::min(dr, std::max(rows, 1.0));
      }
      // Per-value caps: rows carrying one value of `var` are its side's
      // cap times the matches each such row finds on the other side.
      out->max_fanout.clear();
      for (const auto& [var, fl] : l.max_fanout) {
        double cap = fl * l_match;
        const auto it = r.max_fanout.find(var);
        if (it != r.max_fanout.end()) {
          cap = std::min(cap, it->second * r_match);
        }
        out->max_fanout[var] = std::min(cap, out->rows_upper);
      }
      for (const auto& [var, fr] : r.max_fanout) {
        if (out->max_fanout.count(var) != 0) continue;
        out->max_fanout[var] = std::min(fr * r_match, out->rows_upper);
      }
      if (star) {
        // The surviving key values are exactly the subjects carrying
        // every merged predicate (scaled by the constants' selectivity).
        const double subjects = static_cast<double>(exact->subjects);
        const auto it = out->distinct.find(out->star_key);
        if (it != out->distinct.end()) {
          it->second = std::min(
              it->second, std::max(subjects * merged_selectivity,
                                   stats::kMinEstimatedRows));
        }
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

  /// Adds the columns one unary tail node reads to `required`.
  static void CollectTailRequirements(const PlanNode& node,
                                      std::set<std::string>& required) {
    switch (node.kind) {
      case PlanNodeKind::kFilter: {
        const auto& filter = static_cast<const FilterNode&>(node);
        required.insert(filter.constraint.variable);
        if (filter.constraint.rhs_is_variable) {
          required.insert(filter.constraint.rhs_variable);
        }
        break;
      }
      case PlanNodeKind::kProject: {
        const auto& project = static_cast<const ProjectNode&>(node);
        required.insert(project.columns.begin(), project.columns.end());
        break;
      }
      case PlanNodeKind::kOrderBy: {
        const auto& order = static_cast<const OrderByNode&>(node);
        for (const sparql::OrderKey& key : order.keys) {
          required.insert(key.variable);
        }
        break;
      }
      case PlanNodeKind::kAggregate: {
        const auto& aggregate = static_cast<const AggregateNode&>(node);
        if (aggregate.count.variable.empty()) {
          // COUNT(*) counts rows: every child column is live.
          required.insert(node.children[0]->output_columns.begin(),
                          node.children[0]->output_columns.end());
        } else {
          required.insert(aggregate.count.variable);
        }
        break;
      }
      case PlanNodeKind::kDistinct:
        // DISTINCT compares whole rows.
        required.insert(node.children[0]->output_columns.begin(),
                        node.children[0]->output_columns.end());
        break;
      default:
        break;
    }
  }

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

  /// Takes the smaller of an existing and a new distinct estimate (a
  /// variable bound twice in one scan is an implicit self-join).
  static void MergeDistinct(std::map<std::string, double>& distinct,
                            const std::string& var, double value) {
    const auto it = distinct.find(var);
    if (it == distinct.end()) {
      distinct[var] = value;
    } else {
      it->second = std::min(it->second, value);
    }
  }

  /// Estimates one scan leaf: output rows, per-column distinct values,
  /// and the thinning effect of its pushed constant filters.
  static EnumeratedPlan EstimateLeaf(
      const ScanNodeBase& scan, const stats::CardinalityEstimator& est) {
    const stats::StarDescriptor desc = Describe(scan.source);
    EnumeratedPlan out;
    out.rows = est.EstimateScanRows(desc);
    out.planner_bytes = scan.planner_bytes;
    const double key_distinct = est.EstimateKeyDistinct(desc);
    for (size_t i = 0; i < scan.source.patterns.size(); ++i) {
      const core::NodePattern& p = scan.source.patterns[i];
      const core::PatternTerm& key = desc.key_is_object ? p.object : p.subject;
      const core::PatternTerm& value =
          desc.key_is_object ? p.subject : p.object;
      if (key.is_variable) {
        MergeDistinct(out.distinct, key.name, key_distinct);
      }
      if (value.is_variable) {
        MergeDistinct(out.distinct, value.name,
                      est.EstimateValueDistinct(desc, i, out.rows));
      }
    }
    for (const sparql::FilterConstraint& f : scan.pushed_filters) {
      const auto it = out.distinct.find(f.variable);
      const double d = it == out.distinct.end() ? 1.0 : it->second;
      double selectivity = 1.0;
      switch (f.op) {
        case sparql::CompareOp::kEq:
          selectivity = 1.0 / std::max(d, 1.0);
          if (it != out.distinct.end()) it->second = 1.0;
          break;
        case sparql::CompareOp::kNe:
          selectivity = d <= 1.0 ? 1.0 : 1.0 - 1.0 / d;
          break;
        default:
          selectivity = kRangeFilterSelectivity;
          if (it != out.distinct.end()) {
            it->second = std::max(it->second * selectivity, 1.0);
          }
          break;
      }
      out.rows = std::max(out.rows * selectivity, stats::kMinEstimatedRows);
    }
    for (auto& [var, dv] : out.distinct) {
      (void)var;
      dv = std::min(dv, std::max(out.rows, 1.0));
    }
    // Worst-case size: per-pattern max-fanout caps compose into a bound
    // no skew can exceed — each extra pattern multiplies the rows one
    // key value contributes by at most its key-side fanout.
    const double inf = std::numeric_limits<double>::infinity();
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
        MergeDistinct(out.max_fanout, key.name, cap);
      }
      if (value.is_variable) {
        double cap = f_val[i];
        for (size_t j = 0; j < np; ++j) {
          if (j != i) cap *= f_key[j];
        }
        MergeDistinct(out.max_fanout, value.name, cap);
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
        const auto exact = est.StarExact(predicates);
        if (exact.has_value() && exact->rows > 0.0) {
          const double raw = exact->rows;
          out.star_key = key;
          out.star_predicates = std::move(predicates);
          out.star_selectivity = out.rows / raw;
          // The unconstrained star count is exact; constants and
          // filters only shrink it.
          out.rows_upper = std::min(out.rows_upper, raw);
        }
      }
    }
    out.rows_upper = std::max(out.rows_upper, out.rows);
    for (auto& [var, f] : out.max_fanout) {
      (void)var;
      f = std::min(f, out.rows_upper);
    }
    return out;
  }

  /// DPsize over connected subgraphs. Fills `best` with the optimum for
  /// the full leaf set and `split` with the winning (left, right) mask
  /// per subset (indexed by mask). Returns false when the join graph is
  /// disconnected.
  static bool EnumerateDp(const Enumeration& e, EnumeratedPlan* best,
                          std::vector<std::pair<uint32_t, uint32_t>>* split) {
    const size_t n = e.leaves.size();
    const uint32_t full = (1u << n) - 1;
    std::vector<EnumeratedPlan> table(full + 1);
    std::vector<char> valid(full + 1, 0);
    split->assign(full + 1, {0, 0});
    for (size_t i = 0; i < n; ++i) {
      table[1u << i] = e.leaves[i];
      valid[1u << i] = 1;
    }
    for (uint32_t mask = 3; mask <= full; ++mask) {
      if (std::popcount(mask) < 2) continue;
      for (uint32_t sub = (mask - 1) & mask; sub != 0;
           sub = (sub - 1) & mask) {
        const uint32_t other = mask ^ sub;
        if (sub > other) continue;  // Unordered split: visit each once.
        if (valid[sub] == 0 || valid[other] == 0) continue;
        EnumeratedPlan joined;
        if (!e.Join(table[sub], table[other], &joined)) continue;
        if (valid[mask] == 0 || joined.cost < table[mask].cost) {
          table[mask] = joined;
          (*split)[mask] = {sub, other};
          valid[mask] = 1;
        }
      }
    }
    if (valid[full] == 0) return false;
    *best = table[full];
    return true;
  }

  /// Greedy operator ordering for joins too wide for DPsize: repeatedly
  /// merge the connected pair with the cheapest modeled join, recording
  /// each merge as a split entry appended past the leaf masks so
  /// BuildTree can replay it.
  static bool EnumerateGreedy(
      const Enumeration& e, EnumeratedPlan* best,
      std::vector<std::pair<uint32_t, uint32_t>>* split) {
    std::vector<EnumeratedPlan> components = e.leaves;
    std::map<uint32_t, std::pair<uint32_t, uint32_t>> merges;
    while (components.size() > 1) {
      double best_cost = 0.0;
      size_t best_i = 0;
      size_t best_j = 0;
      EnumeratedPlan best_joined;
      bool found = false;
      for (size_t i = 0; i < components.size(); ++i) {
        for (size_t j = i + 1; j < components.size(); ++j) {
          EnumeratedPlan joined;
          if (!e.Join(components[i], components[j], &joined)) continue;
          if (!found || joined.cost < best_cost) {
            found = true;
            best_cost = joined.cost;
            best_i = i;
            best_j = j;
            best_joined = joined;
          }
        }
      }
      if (!found) return false;  // Disconnected join graph.
      merges[best_joined.mask] = {components[best_i].mask,
                                  components[best_j].mask};
      components.erase(components.begin() + best_j);
      components[best_i] = best_joined;
    }
    *best = components[0];
    // Re-encode as a mask-indexed split table compatible with BuildTree.
    const uint32_t full = (1u << e.leaves.size()) - 1;
    split->assign(full + 1, {0, 0});
    for (const auto& [mask, halves] : merges) (*split)[mask] = halves;
    return true;
  }

  /// Rebuilds the physical join tree for `mask` from the split table and
  /// the detached leaves.
  static Result<std::unique_ptr<PlanNode>> BuildTree(
      const std::vector<std::pair<uint32_t, uint32_t>>& split,
      std::vector<std::unique_ptr<PlanNode>>& leaves, uint32_t mask) {
    if (std::popcount(mask) == 1) {
      const size_t index = static_cast<size_t>(std::countr_zero(mask));
      return std::move(leaves[index]);
    }
    const auto [left_mask, right_mask] = split[mask];
    PROST_ASSIGN_OR_RETURN(auto left, BuildTree(split, leaves, left_mask));
    PROST_ASSIGN_OR_RETURN(auto right, BuildTree(split, leaves, right_mask));
    return PlanBuilder::MakeHashJoin(std::move(left), std::move(right));
  }

  /// Bottom-up estimate annotation over the final join segment.
  EnumeratedPlan AnnotateSegment(PlanNode& node, const Enumeration& e) {
    if (node.kind != PlanNodeKind::kHashJoin) {
      const auto it = e.leaf_index.find(&node);
      if (it == e.leaf_index.end()) return EnumeratedPlan{};
      node.estimated_rows = e.leaves[it->second].rows;
      return e.leaves[it->second];
    }
    EnumeratedPlan left = AnnotateSegment(*node.children[0], e);
    EnumeratedPlan right = AnnotateSegment(*node.children[1], e);
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
    switch (node->kind) {
      case PlanNodeKind::kVpScan:
      case PlanNodeKind::kPtScan:
        return;  // Scans already emit only pattern variables.
      case PlanNodeKind::kHashJoin: {
        auto& join = static_cast<HashJoinNode&>(*node);
        for (std::unique_ptr<PlanNode>& child : join.children) {
          // A join input must keep what downstream reads plus the join
          // keys themselves.
          std::vector<std::string> child_required;
          for (const std::string& name : child->output_columns) {
            if (Contains(required, name) ||
                Contains(join.join_columns, name)) {
              child_required.push_back(name);
            }
          }
          if (child_required.size() < child->output_columns.size()) {
            child = PlanBuilder::MakeProject(std::move(child),
                                             child_required,
                                             /*optimizer_inserted=*/true);
            Prune(child->children[0], std::move(child_required));
          } else {
            Prune(child, std::move(child_required));
          }
        }
        return;
      }
      case PlanNodeKind::kFilter: {
        const auto& filter = static_cast<const FilterNode&>(*node);
        if (!Contains(required, filter.constraint.variable)) {
          required.push_back(filter.constraint.variable);
        }
        if (filter.constraint.rhs_is_variable &&
            !Contains(required, filter.constraint.rhs_variable)) {
          required.push_back(filter.constraint.rhs_variable);
        }
        break;
      }
      case PlanNodeKind::kProject:
        required = static_cast<const ProjectNode&>(*node).columns;
        break;
      case PlanNodeKind::kOrderBy: {
        const auto& order = static_cast<const OrderByNode&>(*node);
        for (const sparql::OrderKey& key : order.keys) {
          if (!Contains(required, key.variable)) {
            required.push_back(key.variable);
          }
        }
        break;
      }
      case PlanNodeKind::kAggregate: {
        const auto& aggregate = static_cast<const AggregateNode&>(*node);
        if (aggregate.count.variable.empty()) {
          // COUNT(*) counts rows; a zero-column relation holds none, so
          // everything the child produces must survive.
          required = node->children[0]->output_columns;
        } else {
          required = {aggregate.count.variable};
        }
        break;
      }
      case PlanNodeKind::kDistinct:
        // DISTINCT compares whole rows: every input column is live.
        required = node->children[0]->output_columns;
        break;
      case PlanNodeKind::kLimit:
        break;  // Pure slice: liveness passes through.
    }
    Prune(node->children[0], std::move(required));
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
    std::string before;
    if (options_.record_snapshots) before = plan.ToString();
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
