#ifndef PROST_CORE_VP_STORE_H_
#define PROST_CORE_VP_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "columnar/buffer_pool.h"
#include "columnar/paged_table.h"
#include "columnar/table.h"
#include "common/status.h"
#include "core/pattern_term.h"
#include "core/scan_support.h"
#include "engine/exec_context.h"
#include "engine/relation.h"
#include "rdf/graph.h"

namespace prost::core {

/// Vertical Partitioning storage (§3.1): one two-column (subject, object)
/// table per distinct predicate, each hash-partitioned on the subject
/// across workers. This is the storage model of SPARQLGX and the base
/// layer of both S2RDF and PRoST.
///
/// Every partition is held as PagedTable row groups (zone maps plus a
/// subject bloom filter) and scanned through the store's BufferPool.
class VpStore {
 public:
  /// One predicate's table, split across workers.
  struct PredicateTable {
    /// paged[w]: worker w's (s, o) rows as encoded row groups.
    std::vector<columnar::PagedTable> paged;
    /// Lexical-size estimate per partition (cost-model scan charge).
    std::vector<uint64_t> partition_bytes;
    uint64_t total_rows = 0;
  };

  VpStore() = default;
  VpStore(const VpStore&) = delete;
  VpStore& operator=(const VpStore&) = delete;
  VpStore(VpStore&&) = default;
  VpStore& operator=(VpStore&&) = default;

  /// Builds VP tables from an encoded graph (one pass, grouped by
  /// predicate, subject-hash partitioned over `num_workers`), packed into
  /// row groups of `row_group_rows` rows (0 = columnar::kRowGroupSize).
  /// Scans pin through `pool`, which must outlive the store.
  static VpStore Build(const rdf::EncodedGraph& graph, uint32_t num_workers,
                       columnar::BufferPool& pool,
                       uint32_t row_group_rows = 0);

  /// The table for `predicate`, or nullptr when the predicate does not
  /// occur in the dataset.
  const PredicateTable* Find(rdf::TermId predicate) const;

  /// The planner-visible size of a scan of `table`: its serialized size,
  /// which filters do not discount (Spark 2.1 static planning); 0 for an
  /// absent table (nullptr). Join strategies are resolved from it
  /// (engine::ResolveJoinStrategy).
  static uint64_t ScanTablePlannerBytes(const PredicateTable* table);

  /// Evaluates one triple pattern against the predicate's VP table,
  /// producing a distributed relation over the pattern's variables and
  /// charging scan bytes and CPU rows to `cost` (inside the caller's
  /// stage). An unknown predicate yields an empty relation with the right
  /// columns and charges nothing.
  ///
  /// Row groups whose zone maps exclude a constant term or an equality
  /// `hint`, and partitions whose subject bloom filter excludes a
  /// constant subject, are skipped before decode; skips lower the charge
  /// and are reported through `telemetry` when given. The rest is the
  /// Property Table scan's flat-only case (core::ScanRowGroups): key `s`,
  /// one flat column `o`, and one charge unit of both columns' bytes.
  Result<engine::Relation> Scan(rdf::TermId predicate,
                                const PatternTerm& subject,
                                const PatternTerm& object,
                                cluster::CostModel& cost,
                                const engine::ExecContext* exec = nullptr,
                                const ScanHints* hints = nullptr,
                                ScanTelemetry* telemetry = nullptr) const;

  /// Same evaluation over an arbitrary (s, o) PredicateTable — also used
  /// for S2RDF's ExtVP reductions, which share the VP layout. A null
  /// `table` stands for an absent predicate (empty answer, no scan).
  static Result<engine::Relation> ScanTable(
      const PredicateTable* table, const PatternTerm& subject,
      const PatternTerm& object, uint32_t num_workers,
      columnar::BufferPool& pool, cluster::CostModel& cost,
      const engine::ExecContext* exec = nullptr,
      const ScanHints* hints = nullptr, ScanTelemetry* telemetry = nullptr);

  /// Builds a PredicateTable directly from (subject, object) pairs,
  /// subject-hash partitioned (S2RDF ExtVP construction). `term_lengths`
  /// (rdf::Dictionary::TermLengths) drives the lexical size estimates.
  static PredicateTable BuildTable(
      const std::vector<std::pair<rdf::TermId, rdf::TermId>>& rows,
      uint32_t num_workers, const std::vector<uint32_t>& term_lengths);

  uint32_t num_workers() const { return num_workers_; }
  size_t num_predicates() const { return tables_.size(); }
  const std::map<rdf::TermId, PredicateTable>& tables() const {
    return tables_;
  }

  /// Sum of serialized-size estimates over all tables.
  uint64_t TotalBytesEstimate() const;

  /// Persists every partition as a lexical (Parquet-like) file under
  /// `dir`, named vp_<predicateId>_p<worker>.tbl.
  Status WriteTo(const std::string& dir,
                 const rdf::Dictionary& dictionary) const;

 private:
  uint32_t num_workers_ = 0;
  std::map<rdf::TermId, PredicateTable> tables_;
  columnar::BufferPool* pool_ = nullptr;  // Non-owning.
};

}  // namespace prost::core

#endif  // PROST_CORE_VP_STORE_H_
