#ifndef PROST_ENGINE_KERNELS_H_
#define PROST_ENGINE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "columnar/column.h"
#include "engine/hash_table.h"
#include "engine/relation.h"

namespace prost::engine::kernels {

/// Column-wise batch kernels for the engine's hot loops. The shared
/// vocabulary is the *selection vector*: a std::vector<uint32_t> of row
/// ids (ascending) into a chunk, produced by the Filter/Refine family and
/// consumed by Gather. Operators filter into selections and materialize
/// with per-column bulk gathers instead of pushing rows value-by-value
/// across columns — the inner loops touch one column at a time
/// (cache-friendly) and carry no per-row branches on the append side.
///
/// Contract: every kernel is order-preserving and either appends or
/// writes into storage its caller sized, so a kernel-built output is
/// byte-identical to the row-at-a-time loop it replaced. None of them charge the CostModel — charging stays on the
/// coordinating thread in the operators.

/// Rows processed per probe batch inside join/filter loops. Sized so the
/// scratch (hashes + candidate pairs) of one batch stays L1/L2-resident.
inline constexpr size_t kBatchRows = 1024;

/// Seed of the multi-column key hash (shared by build and probe sides).
inline constexpr uint64_t kKeyHashSeed = 0x9ae16a3b2f90404fULL;

/// Hashes rows [begin, end) of `chunk`'s `key_cols` into `out` (indexed
/// from 0, i.e. out[i] is row begin+i), one column at a time. Equals the
/// per-row KeyHash fold: HashCombine over the key columns in order,
/// seeded with kKeyHashSeed.
void HashColumns(const RelationChunk& chunk, const std::vector<int>& key_cols,
                 size_t begin, size_t end, uint64_t* out);

/// As above, resizing `out` to end - begin first.
void HashColumns(const RelationChunk& chunk, const std::vector<int>& key_cols,
                 size_t begin, size_t end, std::vector<uint64_t>& out);

/// Hash-match verification for a batch of probe rows: probe row
/// probe_rows[i] hashed to the build-row run runs[i]. Writes to counts[i]
/// how many build rows of runs[i] carry key columns `build_cols` equal to
/// that probe row's `probe_cols`, and returns the sum of the counts.
size_t CountKeyMatches(const RelationChunk& build,
                       const std::vector<int>& build_cols,
                       const RelationChunk& probe,
                       const std::vector<int>& probe_cols,
                       const uint32_t* probe_rows,
                       const FlatHashTable::Range* runs, size_t n,
                       uint32_t* counts);

/// As CountKeyMatches, and writes the matching build rows to `out` (room
/// for every run's rows), probe-row-major and in run order. The write is
/// branch-free, like Filter's.
size_t SelectKeyMatches(const RelationChunk& build,
                        const std::vector<int>& build_cols,
                        const RelationChunk& probe,
                        const std::vector<int>& probe_cols,
                        const uint32_t* probe_rows,
                        const FlatHashTable::Range* runs, size_t n,
                        uint32_t* counts, uint32_t* out);

/// Appends row ids begin..end-1 to `sel` (the no-predicate selection).
void Iota(size_t begin, size_t end, std::vector<uint32_t>& sel);

/// Appends to `sel` the ids of rows in [begin, end) where column[r] ==
/// value. The append is branch-free (write then advance by the
/// predicate), so selectivity does not stall the pipeline.
void Filter(const columnar::IdVector& column, rdf::TermId value, size_t begin,
            size_t end, std::vector<uint32_t>& sel);

/// Appends to `sel` the ids of rows in [begin, end) where a[r] == b[r].
void FilterRowsEqual(const columnar::IdVector& a, const columnar::IdVector& b,
                     size_t begin, size_t end, std::vector<uint32_t>& sel);

/// Keeps the entries of `sel` where column[r] == value (stable, in
/// place).
void Refine(const columnar::IdVector& column, rdf::TermId value,
            std::vector<uint32_t>& sel);

/// Keeps the entries of `sel` where column[r] is non-NULL.
void RefineNotNull(const columnar::IdVector& column,
                   std::vector<uint32_t>& sel);

/// Keeps the entries of `sel` whose list cell contains `value` (stable,
/// in place). An empty (NULL) cell contains nothing.
void RefineListContains(const columnar::IdListColumn& lists,
                        rdf::TermId value, std::vector<uint32_t>& sel);

/// Keeps the entries of `sel` whose list cell is non-empty.
void RefineListNotEmpty(const columnar::IdListColumn& lists,
                        std::vector<uint32_t>& sel);

/// Appends to `keep` every i in [0, rows.size()) whose list cell
/// rows[i] contains values[i] — a per-entry membership test.
void FilterListContains(const columnar::IdListColumn& lists,
                        const std::vector<uint32_t>& rows,
                        const columnar::IdVector& values,
                        std::vector<uint32_t>& keep);

/// Unnests list cells by offsets (CSR). Entry i of `rows` names a row
/// whose cell holds n_i values; the kernel appends i to `repeat` n_i
/// times and the cell's value positions (offsets into `lists.values`)
/// to `positions`, entry by entry and value by value, so both outputs
/// keep the input order with each cell's values nested inside it. An
/// empty cell contributes nothing. Gathering any per-entry vector
/// through `repeat` lines it up with `positions`.
void ListExpand(const columnar::IdListColumn& lists,
                const std::vector<uint32_t>& rows,
                std::vector<uint32_t>& repeat,
                std::vector<uint32_t>& positions);

/// Appends src[sel[i]] for every selected row to `dst`, reserving once.
/// The bulk-materialization kernel: callers run it once per column
/// instead of pushing each row across all columns.
void Gather(const columnar::IdVector& src, const std::vector<uint32_t>& sel,
            columnar::IdVector& dst);

/// Writes src[sel[i]] to dst[i] for i in [0, n): a gather into storage
/// the caller has already sized.
void Gather(const columnar::IdVector& src, const uint32_t* sel, size_t n,
            rdf::TermId* dst);

/// Writes src[rows[i]] counts[i] times for every i in [0, n), in order,
/// starting at `dst`: each value repeated over its run.
void Repeat(const columnar::IdVector& src, const uint32_t* rows,
            const uint32_t* counts, size_t n, rdf::TermId* dst);

/// Gather over a row-index vector (e.g. repeating selection entries or
/// value positions through ListExpand's `repeat`).
void Gather(const std::vector<uint32_t>& src,
            const std::vector<uint32_t>& sel, std::vector<uint32_t>& dst);

}  // namespace prost::engine::kernels

#endif  // PROST_ENGINE_KERNELS_H_
