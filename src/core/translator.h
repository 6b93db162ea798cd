#ifndef PROST_CORE_TRANSLATOR_H_
#define PROST_CORE_TRANSLATOR_H_

#include "common/status.h"
#include "core/join_tree.h"
#include "core/statistics.h"
#include "rdf/dictionary.h"
#include "sparql/algebra.h"

namespace prost::core {

/// Knobs of the SPARQL → Join Tree translation. The ablation switches
/// (A1 here, A2/A3 in engine/operators.h, pass toggles in plan/passes.h)
/// are enumerated once, in the DESIGN.md §4 ablation matrix.
struct TranslatorOptions {
  /// When false, every triple pattern becomes a VP node — the paper's
  /// "Vertical Partitioning only" configuration of Figure 2.
  bool use_property_table = true;

  /// §5 future work: also group leftover same-object patterns into
  /// reverse (object-keyed) Property Table nodes.
  bool use_reverse_property_table = false;

  /// When false, nodes keep query order instead of the §3.3
  /// statistics-based priority order (the A1 ablation).
  bool enable_stats_ordering = true;
};

/// Translates a validated query into a Join Tree (§3.2):
///   1. group triple patterns sharing a subject; groups of two or more
///      become Property Table nodes, the rest VP nodes
///      (optionally, leftover same-object groups become reverse-PT nodes);
///   2. estimate each node's cardinality from the dataset statistics
///      (§3.3: literals weigh heavily; tuple counts adjusted by distinct
///      subjects);
///   3. order nodes by ascending cardinality under the constraint that
///      each node shares a variable with the part of the tree already
///      planned (no cross products); the largest node ends up the root.
Result<JoinTree> Translate(const sparql::Query& query,
                           const DatasetStatistics& stats,
                           const rdf::Dictionary& dictionary,
                           const TranslatorOptions& options);

}  // namespace prost::core

#endif  // PROST_CORE_TRANSLATOR_H_
