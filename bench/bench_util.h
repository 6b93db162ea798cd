#ifndef PROST_BENCH_BENCH_UTIL_H_
#define PROST_BENCH_BENCH_UTIL_H_

// Shared plumbing for the paper-reproduction benches: dataset scale
// control, system construction, query-set execution, and table printing.
//
// Scale defaults to 250k triples so the full bench suite runs in minutes
// on a laptop; set PROST_BENCH_TRIPLES to reproduce at other scales (the
// paper uses 100M on a 10-node cluster; relative shapes are stable across
// scales because the cost model is driven by per-query work, not by
// wall-clock of this process).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/system.h"
#include "common/io.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "rdf/graph.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace prost::bench {

inline uint64_t BenchTriples() {
  const char* env = std::getenv("PROST_BENCH_TRIPLES");
  if (env != nullptr) {
    uint64_t value = std::strtoull(env, nullptr, 10);
    if (value > 0) return value;
  }
  return 250000;
}

inline uint64_t BenchSeed() {
  const char* env = std::getenv("PROST_BENCH_SEED");
  if (env != nullptr) {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

struct BenchWorkload {
  baselines::SharedGraph graph;
  std::vector<watdiv::WatDivQuery> queries;          // 20 basic queries
  std::vector<sparql::Query> parsed;                 // aligned with queries
};

inline BenchWorkload BuildWorkload() {
  watdiv::WatDivConfig config;
  config.target_triples = BenchTriples();
  config.seed = BenchSeed();
  std::fprintf(stderr, "[bench] generating WatDiv dataset (~%llu triples, seed %llu)...\n",
               static_cast<unsigned long long>(config.target_triples),
               static_cast<unsigned long long>(config.seed));
  watdiv::WatDivDataset dataset = watdiv::Generate(config);
  dataset.graph.SortAndDedupe();
  BenchWorkload workload;
  workload.queries = watdiv::BasicQuerySet(dataset);
  workload.graph = std::make_shared<const rdf::EncodedGraph>(
      std::move(dataset.graph));
  for (const watdiv::WatDivQuery& q : workload.queries) {
    auto parsed = sparql::ParseQuery(q.sparql);
    if (!parsed.ok()) {
      std::fprintf(stderr, "[bench] FATAL: %s: %s\n", q.id.c_str(),
                   parsed.status().ToString().c_str());
      std::exit(1);
    }
    workload.parsed.push_back(std::move(parsed).value());
  }
  std::fprintf(stderr, "[bench] dataset ready: %zu triples, %zu terms\n",
               workload.graph->size(), workload.graph->dictionary().size());
  return workload;
}

/// The paper's cluster, rescaled so this dataset exercises the same
/// work-to-capacity regime as WatDiv100M on 10 machines. Simulated times
/// are then directly comparable to the paper's magnitudes.
inline cluster::ClusterConfig ScaledCluster(const BenchWorkload& workload) {
  cluster::ClusterConfig cluster;
  cluster.ScaleToDataset(workload.graph->size());
  return cluster;
}

/// One query's measurements: simulated time plus the cost-model counters
/// explaining it, and the harness's real wall time for the call.
struct QueryRun {
  std::string query_id;
  char query_class = '?';
  double simulated_millis = 0;
  double wall_millis = 0;
  uint64_t result_rows = 0;
  cluster::ExecutionCounters counters;
};

/// All 20 queries on one system, in workload order.
struct SystemRun {
  std::string system;
  std::vector<QueryRun> queries;
};

/// Runs all 20 queries on `system` with full per-query detail. Exits on
/// error (benches are regeneration scripts, not libraries).
inline SystemRun RunQuerySetDetailed(const baselines::RdfSystem& system,
                                     const BenchWorkload& workload) {
  SystemRun run;
  run.system = system.name();
  for (size_t i = 0; i < workload.queries.size(); ++i) {
    QueryRun qr;
    qr.query_id = workload.queries[i].id;
    qr.query_class = workload.queries[i].query_class;
    Result<core::QueryResult> result = Status::Internal("not run");
    {
      ScopedTimer timer(&qr.wall_millis);
      result = system.Execute(workload.parsed[i]);
    }
    if (!result.ok()) {
      std::fprintf(stderr, "[bench] FATAL: %s on %s: %s\n",
                   workload.queries[i].id.c_str(), system.name().c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    qr.simulated_millis = result->simulated_millis;
    qr.result_rows = result->relation.TotalRows();
    qr.counters = result->counters;
    run.queries.push_back(std::move(qr));
  }
  return run;
}

/// Simulated millis per query id of one run (the shape most benches
/// aggregate from).
inline std::map<std::string, double> SimulatedMillis(const SystemRun& run) {
  std::map<std::string, double> millis;
  for (const QueryRun& qr : run.queries) {
    millis[qr.query_id] = qr.simulated_millis;
  }
  return millis;
}

/// Runs all 20 queries on `system`, returning simulated millis per query
/// id.
inline std::map<std::string, double> RunQuerySet(
    const baselines::RdfSystem& system, const BenchWorkload& workload) {
  return SimulatedMillis(RunQuerySetDetailed(system, workload));
}

/// Writes a BENCH_*.json document; exits on error.
inline void WriteJsonFile(const std::string& path, const std::string& json) {
  Status written = WriteStringToFile(path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "[bench] FATAL: writing %s: %s\n", path.c_str(),
                 written.ToString().c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
}

/// The "benchmark", "triples" and "seed" fields every per-workload
/// BENCH_*.json file opens with.
inline std::string JsonHeader(const std::string& benchmark,
                              const BenchWorkload& workload) {
  std::string out = "{\n";
  out += StrFormat("  \"benchmark\": \"%s\",\n", benchmark.c_str());
  out += StrFormat("  \"triples\": %llu,\n",
                   static_cast<unsigned long long>(workload.graph->size()));
  out += StrFormat("  \"seed\": %llu,\n",
                   static_cast<unsigned long long>(BenchSeed()));
  return out;
}

/// Writes per-query results for several systems as a BENCH_*.json file:
/// {"benchmark": ..., "triples": N, "seed": N, "systems": [{"system": ...,
/// "queries": [{"query": ..., "class": ..., "simulated_millis": ...,
/// "rows": ..., "bytes_scanned": ..., ...}]}]}. Machine-readable feed for
/// the BENCH_*.json trajectory.
inline void WriteBenchJson(const std::string& path,
                           const std::string& benchmark,
                           const BenchWorkload& workload,
                           const std::vector<SystemRun>& runs) {
  std::string out = JsonHeader(benchmark, workload);
  out += "  \"systems\": [";
  for (size_t s = 0; s < runs.size(); ++s) {
    out += s == 0 ? "\n" : ",\n";
    out += StrFormat("    {\"system\": \"%s\", \"queries\": [",
                     runs[s].system.c_str());
    for (size_t i = 0; i < runs[s].queries.size(); ++i) {
      const QueryRun& q = runs[s].queries[i];
      out += i == 0 ? "\n" : ",\n";
      out += StrFormat(
          "      {\"query\": \"%s\", \"class\": \"%c\", "
          "\"simulated_millis\": %.6f, \"wall_millis\": %.3f, "
          "\"rows\": %llu, \"bytes_scanned\": %llu, "
          "\"bytes_shuffled\": %llu, \"bytes_broadcast\": %llu, "
          "\"rows_processed\": %llu, \"stages\": %llu}",
          q.query_id.c_str(), q.query_class, q.simulated_millis,
          q.wall_millis, static_cast<unsigned long long>(q.result_rows),
          static_cast<unsigned long long>(q.counters.bytes_scanned),
          static_cast<unsigned long long>(q.counters.bytes_shuffled),
          static_cast<unsigned long long>(q.counters.bytes_broadcast),
          static_cast<unsigned long long>(q.counters.rows_processed),
          static_cast<unsigned long long>(q.counters.stages));
    }
    out += "\n    ]}";
  }
  out += "\n  ]\n}\n";
  WriteJsonFile(path, out);
}

/// One system's Table 1 row: bytes its persister wrote, and its load.
struct LoadRun {
  std::string system;
  uint64_t size_bytes = 0;
  double simulated_load_millis = 0;
  double real_load_millis = 0;
};

/// Writes Table 1 as a BENCH_*.json file: {"benchmark": ..., "triples": N,
/// "seed": N, "systems": [{"system": ..., "size_bytes": N,
/// "simulated_load_millis": ..., "real_load_millis": ...}]}.
inline void WriteBenchJson(const std::string& path,
                           const std::string& benchmark,
                           const BenchWorkload& workload,
                           const std::vector<LoadRun>& loads) {
  std::string out = JsonHeader(benchmark, workload);
  out += "  \"systems\": [";
  for (size_t i = 0; i < loads.size(); ++i) {
    const LoadRun& load = loads[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat(
        "    {\"system\": \"%s\", \"size_bytes\": %llu, "
        "\"simulated_load_millis\": %.6f, \"real_load_millis\": %.3f}",
        load.system.c_str(), static_cast<unsigned long long>(load.size_bytes),
        load.simulated_load_millis, load.real_load_millis);
  }
  out += "\n  ]\n}\n";
  WriteJsonFile(path, out);
}

/// One kernel micro-benchmark measurement: the vectorized implementation
/// against the row-at-a-time / node-based baseline it replaced, over the
/// same input.
struct KernelRun {
  std::string kernel;     // e.g. "hash_join_build_probe"
  std::string baseline;   // e.g. "std_unordered_map"
  uint64_t rows = 0;      // Input rows per run.
  double baseline_millis = 0;
  double vectorized_millis = 0;
};

/// Writes kernel before/after measurements as a BENCH_*.json file:
/// {"benchmark": ..., "kernels": [{"kernel": ..., "baseline": ...,
/// "rows": N, "baseline_millis": ..., "vectorized_millis": ...,
/// "speedup_vs_baseline": ...}]}. The BENCH_kernels.json feed.
inline void WriteBenchJson(const std::string& path,
                           const std::string& benchmark,
                           const std::vector<KernelRun>& kernels) {
  std::string out = "{\n";
  out += StrFormat("  \"benchmark\": \"%s\",\n", benchmark.c_str());
  out += "  \"kernels\": [";
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelRun& k = kernels[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat(
        "    {\"kernel\": \"%s\", \"baseline\": \"%s\", \"rows\": %llu, "
        "\"baseline_millis\": %.3f, \"vectorized_millis\": %.3f, "
        "\"speedup_vs_baseline\": %.2f}",
        k.kernel.c_str(), k.baseline.c_str(),
        static_cast<unsigned long long>(k.rows), k.baseline_millis,
        k.vectorized_millis,
        k.vectorized_millis > 0 ? k.baseline_millis / k.vectorized_millis
                                : 0.0);
  }
  out += "\n  ]\n}\n";
  WriteJsonFile(path, out);
}

/// Average per query class ('C','F','L','S').
inline std::map<char, double> ClassAverages(
    const std::map<std::string, double>& by_query,
    const std::vector<watdiv::WatDivQuery>& queries) {
  std::map<char, double> sums;
  std::map<char, int> counts;
  for (const watdiv::WatDivQuery& q : queries) {
    sums[q.query_class] += by_query.at(q.id);
    ++counts[q.query_class];
  }
  std::map<char, double> averages;
  for (const auto& [cls, sum] : sums) averages[cls] = sum / counts.at(cls);
  return averages;
}

inline const char* ClassName(char cls) {
  switch (cls) {
    case 'C':
      return "Complex";
    case 'F':
      return "Snowflake";
    case 'L':
      return "Linear";
    case 'S':
      return "Star";
  }
  return "?";
}

inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace prost::bench

#endif  // PROST_BENCH_BENCH_UTIL_H_
