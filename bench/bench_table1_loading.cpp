// Reproduces Table 1 of the paper: database size and loading time for
// PRoST, SPARQLGX, S2RDF and Rya on a WatDiv dataset.
//
// "Size" is real bytes written to disk by each system's persister
// (lexical columnar tables for PRoST/S2RDF, flat text VP for SPARQLGX,
// index key files for Rya); "Time" is the simulated cluster loading time.
//
// Paper (WatDiv100M, 10-node cluster):
//   PRoST     2.1 GB   25m 32s
//   SPARQLGX  0.9 GB   20m 01s
//   S2RDF     6.2 GB   3h 11m 44s
//   Rya       3.1 GB   41m 32s
// Expected shape: size SPARQLGX < PRoST < Rya < S2RDF; loading
// SPARQLGX <~ PRoST << Rya < S2RDF (S2RDF ~an order of magnitude out).
//
// Pass --json <path> to also write the rows as BENCH_table1.json.

#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "common/io.h"
#include "common/str_util.h"
#include "common/timer.h"

int main(int argc, char** argv) {
  using namespace prost;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }
  bench::BenchWorkload workload = bench::BuildWorkload();
  cluster::ClusterConfig cluster = bench::ScaledCluster(workload);

  std::vector<bench::LoadRun> rows;

  auto systems = baselines::MakeAllSystems(workload.graph, cluster);
  if (!systems.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", systems.status().ToString().c_str());
    return 1;
  }
  const std::string scratch = "bench_table1_scratch";
  for (const auto& system : *systems) {
    std::fprintf(stderr, "[bench] persisting %s...\n",
                 system->name().c_str());
    auto size = system->PersistTo(scratch + "/" + system->name());
    if (!size.ok()) {
      std::fprintf(stderr, "FATAL: persist %s: %s\n",
                   system->name().c_str(),
                   size.status().ToString().c_str());
      return 1;
    }
    rows.push_back({system->name(), size.value(),
                    system->load_report().simulated_load_millis,
                    system->load_report().real_load_millis});
  }
  (void)RemoveAllRecursively(scratch);

  std::printf("\nTable 1: Size and loading times using WatDiv%lluk\n",
              static_cast<unsigned long long>(workload.graph->size() / 1000));
  bench::PrintRule(66);
  std::printf("%-10s | %10s | %14s | %16s\n", "System", "Size",
              "Load (sim)", "Build (real ms)");
  bench::PrintRule(66);
  // Paper order: PRoST, SPARQLGX, S2RDF, Rya.
  for (const std::string& name :
       {std::string("PRoST"), std::string("SPARQLGX"), std::string("S2RDF"),
        std::string("Rya")}) {
    for (const bench::LoadRun& row : rows) {
      if (row.system != name) continue;
      std::printf("%-10s | %10s | %14s | %16.0f\n", row.system.c_str(),
                  HumanBytes(row.size_bytes).c_str(),
                  HumanDuration(row.simulated_load_millis).c_str(),
                  row.real_load_millis);
    }
  }
  bench::PrintRule(66);
  std::printf(
      "Paper (100M): PRoST 2.1GB/25m32s, SPARQLGX 0.9GB/20m01s,\n"
      "              S2RDF 6.2GB/3h11m44s, Rya 3.1GB/41m32s\n");
  if (!json_path.empty()) {
    bench::WriteBenchJson(json_path, "table1_loading", workload, rows);
  }
  return 0;
}
