// Beyond-RAM execution harness (DESIGN.md §15): PRoST's mixed strategy
// on its default storage — an unbounded buffer pool over default-size
// row groups — versus the same engine paging 512-row groups through a
// pool capped at a quarter of the columnar footprint.
//
// Two properties are on display (and enforced under --smoke):
//   - identity: every WatDiv query returns a relation *bit-identical*
//     to the unbounded store, chunk layout and row order included —
//     the budget is invisible to semantics; and
//   - skipping: zone maps prune row groups on the constant-heavy C
//     class (zero C-class skips is a FATAL smoke failure — it means
//     the skip machinery is dead code).
// At-rest budget enforcement is asserted in tests/paged_scan_test.cpp;
// here the eviction totals show the pool actually streaming.
//
// Pass --json <path> to emit the per-query BENCH_paged.json feed
// (bytes_scanned shows what the finer row groups let skipping save).
// Pass --smoke to enforce the guards and exit nonzero on violation — the
// bench_paged.smoke ctest behind the Release-bench CI leg.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "columnar/buffer_pool.h"
#include "obs/metrics.h"

namespace {

/// Bit-identity over result relations: same chunk count, every chunk's
/// every column the same vector. Returns false (and reports) otherwise.
bool BitIdentical(const prost::engine::Relation& a,
                  const prost::engine::Relation& b, const std::string& id) {
  if (a.num_chunks() != b.num_chunks() ||
      a.column_names() != b.column_names()) {
    std::fprintf(stderr, "FATAL: %s: relation shape differs\n", id.c_str());
    return false;
  }
  for (uint32_t w = 0; w < a.num_chunks(); ++w) {
    if (a.chunks()[w].columns != b.chunks()[w].columns) {
      std::fprintf(stderr, "FATAL: %s: chunk %u differs\n", id.c_str(), w);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prost;
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::BenchWorkload workload = bench::BuildWorkload();
  cluster::ClusterConfig cluster = bench::ScaledCluster(workload);

  auto unbounded = baselines::MakeProst(workload.graph, cluster);
  if (!unbounded.ok()) {
    std::fprintf(stderr, "FATAL: unbounded build failed\n");
    return 1;
  }
  const uint64_t footprint = (*unbounded)->load_report().storage_bytes;
  const uint64_t budget = footprint / 4;
  // Row groups well below the partition sizes at bench scale, so the
  // pool sees real page traffic and zone maps real pruning granularity.
  const uint32_t row_group_rows = 512;
  auto paged = baselines::MakeProstPaged(workload.graph, cluster, budget,
                                         row_group_rows);
  if (!paged.ok()) {
    std::fprintf(stderr, "FATAL: paged build failed\n");
    return 1;
  }
  std::fprintf(stderr,
               "[bench] columnar footprint %.2f MB, pool budget %.2f MB "
               "(1/4), row groups of %u rows\n",
               footprint / (1024.0 * 1024.0), budget / (1024.0 * 1024.0),
               row_group_rows);

  const obs::MetricsRegistry* metrics = (*paged)->metrics();
  if (metrics == nullptr) {
    std::fprintf(stderr, "FATAL: paged system exposes no metrics\n");
    return 1;
  }

  bench::SystemRun unbounded_run;
  unbounded_run.system = "PRoST (VP + PT)";
  bench::SystemRun paged_run;
  paged_run.system = "PRoST (paged, 1/4 budget)";

  std::printf(
      "\nBeyond-RAM: unbounded vs 1/4 budget pool (simulated ms)\n");
  bench::PrintRule(78);
  std::printf("%-6s | %12s | %12s | %13s | %9s | %7s\n", "Query", "unbounded",
              "1/4 budget", "bytes saved", "rg skips", "bloom");
  bench::PrintRule(78);

  int identity_failures = 0;
  uint64_t c_class_skips = 0;
  for (size_t i = 0; i < workload.queries.size(); ++i) {
    const watdiv::WatDivQuery& q = workload.queries[i];
    obs::MetricsSnapshot before = metrics->Snapshot();

    bench::QueryRun unbounded_qr;
    unbounded_qr.query_id = q.id;
    unbounded_qr.query_class = q.query_class;
    Result<core::QueryResult> unbounded_result = Status::Internal("not run");
    {
      ScopedTimer timer(&unbounded_qr.wall_millis);
      unbounded_result = (*unbounded)->Execute(workload.parsed[i]);
    }
    bench::QueryRun paged_qr;
    paged_qr.query_id = q.id;
    paged_qr.query_class = q.query_class;
    Result<core::QueryResult> paged_result = Status::Internal("not run");
    {
      ScopedTimer timer(&paged_qr.wall_millis);
      paged_result = (*paged)->Execute(workload.parsed[i]);
    }
    if (!unbounded_result.ok() || !paged_result.ok()) {
      std::fprintf(stderr, "FATAL: %s failed: %s / %s\n", q.id.c_str(),
                   unbounded_result.status().ToString().c_str(),
                   paged_result.status().ToString().c_str());
      return 1;
    }
    if (!BitIdentical(paged_result->relation, unbounded_result->relation,
                      q.id)) {
      ++identity_failures;
    }

    obs::MetricsSnapshot after = metrics->Snapshot();
    uint64_t rg_skips = after.counter("storage.row_groups_skipped_zonemap") -
                        before.counter("storage.row_groups_skipped_zonemap");
    uint64_t bloom_skips =
        after.counter("storage.partitions_skipped_bloom") -
        before.counter("storage.partitions_skipped_bloom");
    if (q.query_class == 'C') c_class_skips += rg_skips;

    unbounded_qr.simulated_millis = unbounded_result->simulated_millis;
    unbounded_qr.result_rows = unbounded_result->relation.TotalRows();
    unbounded_qr.counters = unbounded_result->counters;
    paged_qr.simulated_millis = paged_result->simulated_millis;
    paged_qr.result_rows = paged_result->relation.TotalRows();
    paged_qr.counters = paged_result->counters;

    int64_t bytes_saved =
        static_cast<int64_t>(unbounded_qr.counters.bytes_scanned) -
        static_cast<int64_t>(paged_qr.counters.bytes_scanned);
    std::printf("%-6s | %12s | %12s | %10.2f KB | %9llu | %7llu\n",
                q.id.c_str(),
                WithThousands(static_cast<uint64_t>(
                                  unbounded_qr.simulated_millis))
                    .c_str(),
                WithThousands(
                    static_cast<uint64_t>(paged_qr.simulated_millis)).c_str(),
                bytes_saved / 1024.0,
                static_cast<unsigned long long>(rg_skips),
                static_cast<unsigned long long>(bloom_skips));

    unbounded_run.queries.push_back(std::move(unbounded_qr));
    paged_run.queries.push_back(std::move(paged_qr));
  }
  bench::PrintRule(78);

  obs::MetricsSnapshot total = metrics->Snapshot();
  std::printf(
      "paged totals: %llu pins, %llu misses, %llu evictions, "
      "%llu row groups zone-skipped, %llu partitions bloom-skipped\n",
      static_cast<unsigned long long>(total.counter("storage.pages_pinned")),
      static_cast<unsigned long long>(total.counter("storage.page_misses")),
      static_cast<unsigned long long>(total.counter("storage.evictions")),
      static_cast<unsigned long long>(
          total.counter("storage.row_groups_skipped_zonemap")),
      static_cast<unsigned long long>(
          total.counter("storage.partitions_skipped_bloom")));

  if (!json_path.empty()) {
    bench::WriteBenchJson(json_path, "paged_beyond_ram", workload,
                          {unbounded_run, paged_run});
  }

  if (identity_failures > 0) {
    std::fprintf(stderr, "FATAL: %d identity failure(s)\n", identity_failures);
    return 1;
  }
  if (smoke) {
    if (c_class_skips == 0) {
      std::fprintf(stderr,
                   "FATAL: zero zone-map row-group skips across the C-class "
                   "queries — skipping machinery is dead\n");
      return 1;
    }
    std::printf("smoke: identity + C-class skip guards hold\n");
  }
  return 0;
}
