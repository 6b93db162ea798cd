// Interactive SPARQL shell over PRoST: load an N-Triples file (or a
// generated WatDiv dataset), then type queries. Terminate each query with
// an empty line. Commands: .explain toggles plan printing, .analyze
// toggles EXPLAIN ANALYZE, .metrics dumps query metrics, .quit exits.
//
//   ./build/examples/sparql_shell data.nt
//   ./build/examples/sparql_shell --watdiv 50000
//   ./build/examples/sparql_shell --persist mydb data.nt   (load + save)
//   ./build/examples/sparql_shell --open mydb              (reopen)
//   ./build/examples/sparql_shell --threads 4 data.nt      (parallel exec)
//   ./build/examples/sparql_shell --pool-bytes 1048576 --watdiv 100000
//                                           (beyond-RAM: bounded pool)
//   ./build/examples/sparql_shell --explain data.nt        (plan only)
//   ./build/examples/sparql_shell --explain-analyze data.nt
//   ./build/examples/sparql_shell --metrics-json data.nt   (JSON at exit)

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/io.h"
#include "common/str_util.h"
#include "core/prost_db.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "plan/passes.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"

namespace {

/// EXPLAIN, logical half: the translator's Join Tree plus the §3.3
/// statistics that produced its node ordering.
void PrintPlanWithRationale(const prost::core::ProstDb& db,
                            const prost::core::JoinTree& tree) {
  std::printf("%s", tree.ToString().c_str());
  std::printf(
      "ordering rationale (ascending cardinality estimate; "
      "largest node is the root):\n");
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const prost::core::JoinTreeNode& node = tree.nodes[i];
    std::printf("  node %zu: %s  [%s, est %.1f]\n", i, node.Label().c_str(),
                prost::core::NodeKindToString(node.kind),
                node.estimated_cardinality);
    for (const prost::core::NodePattern& pattern : node.patterns) {
      prost::rdf::PredicateStats stats =
          db.statistics().ForPredicate(pattern.predicate);
      std::printf(
          "    %s: triples=%llu distinct_subjects=%llu "
          "distinct_objects=%llu\n",
          pattern.source.predicate.ToNTriples().c_str(),
          static_cast<unsigned long long>(stats.triple_count),
          static_cast<unsigned long long>(stats.distinct_subjects),
          static_cast<unsigned long long>(stats.distinct_objects));
    }
  }
}

/// EXPLAIN, physical half: the optimized plan Execute() will interpret,
/// plus a one-liner per optimizer pass saying whether it rewrote it.
void PrintPhysicalPlan(const prost::plan::PlannedQuery& planned) {
  std::printf("physical plan (what Execute runs):\n%s",
              planned.plan.ToString().c_str());
  for (const prost::plan::PassSnapshot& snapshot : planned.snapshots) {
    std::printf("pass %-16s %s\n", snapshot.pass.c_str(),
                snapshot.before == snapshot.after ? "no change"
                                                  : "rewrote the plan");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prost;

  core::ProstDb::Options options;
  Result<std::unique_ptr<core::ProstDb>> db = Status::InvalidArgument("");
  std::string persist_dir;
  bool explain = false;        // Plan printing (also the plan-only flag).
  bool plan_only = false;      // --explain: never execute.
  bool analyze = false;        // --explain-analyze / .analyze.
  bool metrics_json = false;   // --metrics-json: dump registry at exit.
  while (argc >= 2) {
    if (argc >= 3 && std::strcmp(argv[1], "--threads") == 0) {
      // 1 = serial (default), 0 = cores_per_worker, N > 1 = pool of N.
      options.exec.num_threads =
          static_cast<uint32_t>(std::strtoul(argv[2], nullptr, 10));
      argv += 2;
      argc -= 2;
    } else if (argc >= 3 && std::strcmp(argv[1], "--persist") == 0) {
      persist_dir = argv[2];
      argv += 2;
      argc -= 2;
    } else if (argc >= 3 && std::strcmp(argv[1], "--pool-bytes") == 0) {
      // Beyond-RAM mode (DESIGN.md §15): cap the buffer pool every scan
      // pages through at this byte budget (default unbounded). Results
      // are identical; .analyze shows the zone-map/bloom skips.
      options.storage.buffer_pool_bytes =
          std::strtoull(argv[2], nullptr, 10);
      argv += 2;
      argc -= 2;
    } else if (argc >= 3 && std::strcmp(argv[1], "--row-group-rows") == 0) {
      options.storage.row_group_rows =
          static_cast<uint32_t>(std::strtoul(argv[2], nullptr, 10));
      argv += 2;
      argc -= 2;
    } else if (std::strcmp(argv[1], "--explain") == 0) {
      explain = plan_only = true;
      argv += 1;
      argc -= 1;
    } else if (std::strcmp(argv[1], "--explain-analyze") == 0) {
      analyze = true;
      argv += 1;
      argc -= 1;
    } else if (std::strcmp(argv[1], "--metrics-json") == 0) {
      metrics_json = true;
      argv += 1;
      argc -= 1;
    } else {
      break;
    }
  }
  if (argc >= 3 && std::strcmp(argv[1], "--open") == 0) {
    db = core::ProstDb::OpenFrom(argv[2], options);
  } else if (argc >= 2 && std::strcmp(argv[1], "--watdiv") == 0) {
    watdiv::WatDivConfig config;
    if (argc >= 3) config.target_triples = std::strtoull(argv[2], nullptr, 10);
    std::printf("Generating WatDiv dataset (~%llu triples)...\n",
                static_cast<unsigned long long>(config.target_triples));
    watdiv::WatDivDataset dataset = watdiv::Generate(config);
    db = core::ProstDb::LoadFromGraph(std::move(dataset.graph), options);
  } else if (argc >= 2) {
    std::string text;
    Status read = ReadFileToString(argv[1], &text);
    if (!read.ok()) {
      std::fprintf(stderr, "%s\n", read.ToString().c_str());
      return 1;
    }
    db = core::ProstDb::LoadFromNTriples(text, options);
  } else {
    std::fprintf(stderr,
                 "usage: %s [--threads n] [--persist dir] [--pool-bytes n] "
                 "[--row-group-rows n] [--explain] "
                 "[--explain-analyze] [--metrics-json] "
                 "(<file.nt> | --watdiv [n]) | --open dir\n",
                 argv[0]);
    return 1;
  }
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  if (!persist_dir.empty()) {
    auto bytes = (*db)->PersistTo(persist_dir);
    if (!bytes.ok()) {
      std::fprintf(stderr, "persist failed: %s\n",
                   bytes.status().ToString().c_str());
      return 1;
    }
    std::printf("Persisted database to %s (%s); reopen with --open.\n",
                persist_dir.c_str(), HumanBytes(*bytes).c_str());
  }
  std::printf(
      "Loaded %llu triples (%zu predicates). Enter a SPARQL query followed\n"
      "by an empty line; '.explain' toggles plans; '.analyze' toggles\n"
      "EXPLAIN ANALYZE; '.metrics' dumps metrics; '.quit' exits.\n",
      static_cast<unsigned long long>((*db)->load_report().input_triples),
      (*db)->statistics().num_predicates());

  std::string buffer;
  std::string line;
  while (true) {
    std::printf(buffer.empty() ? "sparql> " : "      > ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = StrTrim(line);
    if (buffer.empty() && trimmed == ".quit") break;
    if (buffer.empty() && trimmed == ".explain") {
      explain = !explain;
      std::printf("explain %s\n", explain ? "on" : "off");
      continue;
    }
    if (buffer.empty() && trimmed == ".analyze") {
      analyze = !analyze;
      std::printf("explain analyze %s\n", analyze ? "on" : "off");
      continue;
    }
    if (buffer.empty() && trimmed == ".metrics") {
      std::printf("%s", (*db)->metrics().Snapshot().ToJson().c_str());
      continue;
    }
    if (!trimmed.empty()) {
      buffer += line;
      buffer.push_back('\n');
      continue;
    }
    if (buffer.empty()) continue;

    std::string query_text;
    query_text.swap(buffer);
    auto query = sparql::ParseQuery(query_text);
    if (!query.ok()) {
      std::printf("parse error: %s\n", query.status().ToString().c_str());
      continue;
    }
    if (explain) {
      auto tree = (*db)->Plan(*query);
      if (!tree.ok()) {
        std::printf("plan error: %s\n", tree.status().ToString().c_str());
        continue;
      }
      PrintPlanWithRationale(**db, *tree);
      auto planned = (*db)->PlanPhysical(*query);
      if (!planned.ok()) {
        std::printf("plan error: %s\n",
                    planned.status().ToString().c_str());
        continue;
      }
      PrintPhysicalPlan(*planned);
      if (plan_only) continue;
    }
    obs::QueryProfile profile;
    auto result = (*db)->Execute(*query, analyze ? &profile : nullptr);
    if (!result.ok()) {
      std::printf("execution error: %s\n",
                  result.status().ToString().c_str());
      continue;
    }
    if (analyze) {
      obs::ReportOptions report_options;
      report_options.include_wall = true;
      std::printf("%s", obs::ExplainAnalyze(profile, report_options).c_str());
    }
    auto rows = (*db)->DecodeRows(result->relation);
    if (!rows.ok()) {
      std::printf("decode error: %s\n", rows.status().ToString().c_str());
      continue;
    }
    for (const auto& name : result->relation.column_names()) {
      std::printf("%-30s", ("?" + name).c_str());
    }
    std::printf("\n");
    size_t shown = 0;
    for (const auto& row : *rows) {
      for (const auto& value : row) std::printf("%-30s", value.c_str());
      std::printf("\n");
      if (++shown == 25 && rows->size() > 25) {
        std::printf("... (%zu more rows)\n", rows->size() - shown);
        break;
      }
    }
    std::printf("%zu rows, %.0f ms simulated cluster time\n", rows->size(),
                result->simulated_millis);
  }
  if (metrics_json) {
    std::printf("%s", (*db)->metrics().Snapshot().ToJson().c_str());
  }
  return 0;
}
