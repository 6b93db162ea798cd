// Reproduces Figure 3 of the paper: per-query time (log scale) on WatDiv
// for PRoST, S2RDF, Rya and SPARQLGX.
//
// Expected shape: S2RDF fastest on C and most F queries (ExtVP
// precomputation), PRoST competitive and consistently good everywhere,
// Rya bimodal (very fast on highly selective queries, orders of magnitude
// slow on large intermediates), SPARQLGX roughly an order of magnitude
// behind PRoST across the board.
//
// Pass --json [path] to also write every system's per-query results
// (simulated time, rows and cost counters) to `path`, BENCH_fig3.json by
// default. tools/check_bench_json.py compares a rerun with the checked-in
// file (the bench_fig3.check ctest).

#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "common/str_util.h"

int main(int argc, char** argv) {
  using namespace prost;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0
                      ? argv[++i]
                      : "BENCH_fig3.json";
    }
  }
  bench::BenchWorkload workload = bench::BuildWorkload();
  cluster::ClusterConfig cluster = bench::ScaledCluster(workload);

  auto systems = baselines::MakeAllSystems(workload.graph, cluster);
  if (!systems.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", systems.status().ToString().c_str());
    return 1;
  }
  std::vector<bench::SystemRun> detailed;
  std::vector<std::pair<std::string, std::map<std::string, double>>> runs;
  for (const auto& system : *systems) {
    std::fprintf(stderr, "[bench] running query set on %s...\n",
                 system->name().c_str());
    detailed.push_back(bench::RunQuerySetDetailed(*system, workload));
    runs.emplace_back(system->name(), bench::SimulatedMillis(detailed.back()));
  }

  std::printf(
      "\nFigure 3: query time per system (ms, simulated; log-scale plot)\n");
  bench::PrintRule(76);
  std::printf("%-6s", "Query");
  for (const auto& [name, ms] : runs) std::printf(" | %12s", name.c_str());
  std::printf("\n");
  bench::PrintRule(76);
  for (const watdiv::WatDivQuery& q : workload.queries) {
    std::printf("%-6s", q.id.c_str());
    for (const auto& [name, ms] : runs) {
      std::printf(" | %12s",
                  WithThousands(static_cast<uint64_t>(ms.at(q.id))).c_str());
    }
    std::printf("\n");
  }
  bench::PrintRule(76);

  // The log-scale series the figure plots.
  std::printf("\nlog10(ms) series:\n%-6s", "Query");
  for (const auto& [name, ms] : runs) std::printf(" | %9s", name.c_str());
  std::printf("\n");
  for (const watdiv::WatDivQuery& q : workload.queries) {
    std::printf("%-6s", q.id.c_str());
    for (const auto& [name, ms] : runs) {
      std::printf(" | %9.2f", std::log10(ms.at(q.id)));
    }
    std::printf("\n");
  }
  if (!json_path.empty()) {
    bench::WriteBenchJson(json_path, "fig3_systems", workload, detailed);
  }
  return 0;
}
