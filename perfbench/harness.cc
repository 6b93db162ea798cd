// End-to-end benchmark harness for the PRoST reproduction. One process,
// one closed-loop client: each run builds its workload's store over a
// seeded WatDiv graph, then sends seeded shuffled rounds of the
// workload's query set for --seconds of measured request time, checks
// every answer against references decoded at set-up, and prints one JSON
// result line (the last line of stdout).
//
//   prost_perfbench --workload paged-evict --seed 1 --seconds 45 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 first measures an
// untraced phase, then a traced phase that drives the same queries
// through the layers' public entry points one by one (parse, translate,
// plan build, each optimizer pass, plan verification, execution,
// serialization) and reports per-layer means per request. Layers are
// timed only from here, never from inside src/. See README.md beside
// this file for the workloads and the layer -> end-to-end map.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/plan_checker.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "core/executor.h"
#include "core/prost_db.h"
#include "net/client.h"
#include "net/http.h"
#include "net/result_writer.h"
#include "net/server.h"
#include "obs/trace.h"
#include "plan/passes.h"
#include "plan/planner.h"
#include "serve/session_manager.h"
#include "sparql/parser.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace prost::perfbench {
namespace {

/// The WatDiv graph every workload runs over: ~250k target triples
/// (274,865 after dedupe) from data seed 42. The workload seed only
/// shuffles request order, so results and simulated times are the same
/// for every seed.
constexpr uint64_t kDataSeed = 42;
constexpr uint64_t kDefaultTriples = 250000;

/// Loads timed per run, before and after measuring; setup_s is their
/// median, since a single 0.1-0.3 s load swings 10-15% from run to run.
constexpr int kLoadsBefore = 5;
constexpr int kLoadsAfter = 4;

/// Samples that must lie beyond the reported tail percentile.
constexpr size_t kTailBeyond = 10;

/// Rounds per tail window: 2 * kTailBeyond + 1, so the tail order
/// statistic of a window always falls inside the slowest query's block,
/// with kTailBeyond of that block's samples on either side. An untraced
/// run measures at least one window and averages the tail over its whole
/// windows, so the percentile is the same however many rounds fit.
constexpr size_t kWindowRounds = 2 * kTailBeyond + 1;

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "[perfbench] FATAL: %s\n", message.c_str());
  std::exit(1);
}

struct WorkloadSpec {
  const char* name;
  bool http;
  uint64_t buffer_pool_bytes;
  bool skip_c2;
};

/// Why each exists is in README.md. Both use the paper's mixed VP + PT
/// store and run serially: on a few shared cores, a second worker thread
/// measures the host's scheduler more than the program.
constexpr WorkloadSpec kWorkloads[] = {
    {"mixed-http", true, 0, true},
    {"paged-evict", false, 1u << 20, false},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 45;
  bool trace = false;
  uint64_t triples = kDefaultTriples;
  std::string out_dir = ".bench_out";
  std::string source_id = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Fatal("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--triples") {
      args.triples = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      Fatal("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0 || args.triples == 0) {
    Fatal("--seconds and --triples must be positive");
  }
  return args;
}

double CpuMillis() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto millis = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return millis(usage.ru_utime) + millis(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Aggregate steal ticks (8th value of the "cpu" line of /proc/stat):
/// time the hypervisor ran someone else while this VM wanted the CPU.
uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  uint64_t values[8] = {};
  stat >> label;
  for (uint64_t& value : values) stat >> value;
  return label == "cpu" ? values[7] : 0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(StrTrim(std::string_view(line).substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// The highest order statistic with kTailBeyond samples beyond it, or the
/// median when that statistic would fall below it (a sample of fewer than
/// 2 * kTailBeyond + 1 supports no tail).
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t beyond = 0;
};

Tail TailOf(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  tail.value = Median(values);
  tail.percentile = 50;
  tail.beyond = n / 2;
  if (n > kTailBeyond && values[n - 1 - kTailBeyond] > tail.value) {
    tail.value = values[n - 1 - kTailBeyond];
    tail.percentile = 100.0 * static_cast<double>(n - kTailBeyond) /
                      static_cast<double>(n);
    tail.beyond = kTailBeyond;
  }
  return tail;
}

/// Order-independent digest of decoded rows: a per-row hash over the
/// lexical terms, summed over rows, so any row-order or formatting-only
/// change passes and any changed, missing or extra row fails.
constexpr uint64_t kRowHashSeed = 0x5bd1e995ULL;

uint64_t RowsDigest(const std::vector<std::vector<std::string>>& rows) {
  uint64_t digest = 0;
  for (const std::vector<std::string>& row : rows) {
    uint64_t hash = kRowHashSeed;
    for (const std::string& term : row) {
      hash = HashCombine(hash, HashBytes(term));
    }
    digest += Mix64(hash);
  }
  return digest;
}

struct Reference {
  uint64_t rows = 0;
  uint64_t digest = 0;
  double simulated_millis = 0;
};

struct Query {
  std::string id;
  std::string text;
  std::string http_target;  // Pre-encoded: the loop times the endpoint.
  sparql::Query parsed;
  Reference reference;
};

/// One measured request. Verification happens after the timed span.
struct Sample {
  size_t query = 0;
  double wall_ms = 0;
  double cpu_ms = 0;
  bool ok = false;
};

/// Per-request layer times of a traced request (all wall ms).
struct LayerTimes {
  double parse = 0;
  double translate = 0;
  double build = 0;
  double verify = 0;
  double pass[4] = {0, 0, 0, 0};
  double execute = 0;
  double scan = 0;
  double join = 0;
  double modifier = 0;
  double serialize = 0;
  double in_process = 0;  // Whole layered pipeline, serialize included.
  double request = 0;     // In-process pipeline, or the HTTP round trip.
  uint64_t response_bytes = 0;
  uint64_t rows_out = 0;
  cluster::ExecutionCounters counters;

  LayerTimes& operator+=(const LayerTimes& t) {
    parse += t.parse;
    translate += t.translate;
    build += t.build;
    verify += t.verify;
    for (int p = 0; p < 4; ++p) pass[p] += t.pass[p];
    execute += t.execute;
    scan += t.scan;
    join += t.join;
    modifier += t.modifier;
    serialize += t.serialize;
    in_process += t.in_process;
    request += t.request;
    response_bytes += t.response_bytes;
    rows_out += t.rows_out;
    counters += t.counters;
    return *this;
  }
};

const char* const kPassNames[4] = {"filter_pushdown", "join_order",
                                   "join_strategy", "early_projection"};

/// Times one optimizer pass from outside: wraps the public Make*Pass()
/// product and adds its Run() wall time to `sink`.
class TimedPass : public plan::OptimizerPass {
 public:
  TimedPass(std::unique_ptr<plan::OptimizerPass> inner, double* sink)
      : inner_(std::move(inner)), sink_(sink) {}

  const char* name() const override { return inner_->name(); }

  Status Run(plan::PhysicalPlan& plan,
             const plan::PassContext& context) override {
    ScopedTimer timer(sink_);
    return inner_->Run(plan, context);
  }

 private:
  std::unique_ptr<plan::OptimizerPass> inner_;
  double* sink_;
};

/// Self wall time per span kind: a span's wall minus its children's.
void AddSelfTimes(const obs::QueryProfile& profile, LayerTimes* times) {
  const std::vector<obs::Span>& spans = profile.spans();
  for (const obs::Span& span : spans) {
    double self = span.wall_millis;
    for (int32_t child : span.children) {
      self -= spans[static_cast<size_t>(child)].wall_millis;
    }
    switch (span.kind) {
      case obs::SpanKind::kScan:
        times->scan += self;
        break;
      case obs::SpanKind::kJoin:
      case obs::SpanKind::kExchange:
        times->join += self;
        break;
      case obs::SpanKind::kQuery:
        break;
      default:
        times->modifier += self;
        break;
    }
  }
}

std::string SpansJson(const obs::QueryProfile& profile) {
  std::string out = "[";
  const std::vector<obs::Span>& spans = profile.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::Span& span = spans[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "{\"id\":%zu,\"parent\":%d,\"kind\":\"%s\",\"label\":\"%s\","
        "\"wall_ms\":%.4f,\"rows_out\":%llu}",
        i, span.parent, obs::SpanKindName(span.kind),
        net::JsonEscape(span.label).c_str(), span.wall_millis,
        static_cast<unsigned long long>(span.rows_out));
  }
  return out + "]";
}

/// Metric list renderer: {"name": {"value": v, "unit": "u"}, ...}.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    out_ += out_.empty() ? "{" : ", ";
    out_ += StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      name.c_str(), value, unit);
  }
  std::string Json() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

struct E2e {
  double qps = 0;
  double p50_ms = 0;
  Tail tail;
  size_t tail_windows = 0;
  double cpu_ms_per_query = 0;
  size_t failed = 0;
};

/// Pooled statistics over all `samples`, except the tail: with
/// window_samples > 0 it is the mean of TailOf over each whole window of
/// that many consecutive samples (rounds left over after the last whole
/// window count for everything else), and over all samples otherwise.
E2e Summarize(const std::vector<Sample>& samples, size_t window_samples) {
  E2e e2e;
  std::vector<double> latencies;
  double wall_ms = 0;
  double cpu_ms = 0;
  for (const Sample& sample : samples) {
    latencies.push_back(sample.wall_ms);
    wall_ms += sample.wall_ms;
    cpu_ms += sample.cpu_ms;
    if (!sample.ok) ++e2e.failed;
  }
  double n = static_cast<double>(samples.size());
  e2e.qps = wall_ms > 0 ? 1000.0 * n / wall_ms : 0;
  e2e.p50_ms = Median(latencies);
  e2e.cpu_ms_per_query = n > 0 ? cpu_ms / n : 0;
  e2e.tail_windows = window_samples > 0 ? samples.size() / window_samples : 0;
  if (e2e.tail_windows == 0) {
    e2e.tail = TailOf(latencies);
    return e2e;
  }
  double tail_sum = 0;
  for (size_t w = 0; w < e2e.tail_windows; ++w) {
    auto begin = latencies.begin() + static_cast<ptrdiff_t>(w * window_samples);
    e2e.tail = TailOf(std::vector<double>(
        begin, begin + static_cast<ptrdiff_t>(window_samples)));
    tail_sum += e2e.tail.value;
  }
  e2e.tail.value = tail_sum / static_cast<double>(e2e.tail_windows);
  return e2e;
}

/// What a run reports besides its metrics.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  std::string metadata;
};

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec) {}

  int Run();

 private:
  void BuildInputs();
  /// Times `count` loads into load_seconds_; the last db stays in db_.
  void LoadStore(int count);
  void BuildReferences();
  void StartServer();
  void StopServer();

  /// Checks an answer against the query's reference. An answer whose
  /// exact bytes (ids in order, or the HTTP body) match one already
  /// verified passes on that fingerprint alone; any other is checked in
  /// full, so a changed answer is always checked in full.
  bool Verify(size_t query, const Result<core::QueryResult>& result);
  bool VerifyHttp(size_t query,
                  const Result<net::HttpResponseParser::Response>& response);
  bool VerifyRows(size_t query, const core::QueryResult& result) const;
  bool VerifyBody(size_t query, const std::string& body) const;
  /// Records `fingerprint` for `query` and returns true when `check`
  /// passes or the fingerprint was verified before.
  template <typename Check>
  bool Remember(size_t query, uint64_t fingerprint, Check check);

  /// One untraced request: timed, then verified outside the timed span.
  Sample Request(size_t query);
  /// One traced request through the layers' public entry points.
  Sample TracedRequest(size_t query, LayerTimes* times,
                       obs::QueryProfile* profile);

  /// Whole seeded rounds, at least `min_rounds`, until `budget_ms` of
  /// request time is measured. `traced` drives TracedRequest and
  /// collects per-request layers.
  std::vector<Sample> Loop(double budget_ms, size_t min_rounds, Rng& rng,
                           bool traced,
                           std::vector<LayerTimes>* layers,
                           std::vector<std::string>* spans_json);

  std::string MetadataJson(uint64_t steal_ticks, const E2e& e2e,
                           const std::vector<Sample>& samples) const;

  void MeasureUntraced(Rng& rng, Metrics* metrics, Outcome* outcome);
  /// Untraced then traced, half the budget each: the difference between
  /// the two phases is the tracing overhead.
  void MeasureTraced(Rng& rng, Metrics* metrics, Outcome* outcome);

  const Args& args_;
  const WorkloadSpec& spec_;
  std::shared_ptr<const rdf::EncodedGraph> graph_;
  std::vector<Query> queries_;
  /// Term id -> HashBytes of its decoded lexical form, for every id in a
  /// reference result: verifies in-process answers without re-decoding.
  std::unordered_map<rdf::TermId, uint64_t> term_hashes_;
  /// Per query: fingerprints of answers that passed a full check.
  std::vector<std::vector<uint64_t>> verified_;
  core::ProstDb::Options options_;
  std::unique_ptr<core::ProstDb> db_;
  std::vector<double> load_seconds_;
  double server_start_seconds_ = 0;
  std::unique_ptr<serve::SessionManager> sessions_;
  std::unique_ptr<net::Server> server_;
  net::Client client_;
  size_t rounds_ = 0;  // Rounds of the last Loop().
  size_t traced_requests_ = 0;
};

void Bench::BuildInputs() {
  watdiv::WatDivConfig config;
  config.target_triples = args_.triples;
  config.seed = kDataSeed;
  watdiv::WatDivDataset dataset = watdiv::Generate(config);
  dataset.graph.SortAndDedupe();
  std::vector<watdiv::WatDivQuery> all = watdiv::BasicQuerySet(dataset);
  graph_ = std::make_shared<const rdf::EncodedGraph>(std::move(dataset.graph));
  for (watdiv::WatDivQuery& q : all) {
    if (spec_.skip_c2 && q.id == "C2") continue;
    Result<sparql::Query> parsed = sparql::ParseQuery(q.sparql);
    if (!parsed.ok()) Fatal(q.id + ": " + parsed.status().ToString());
    Query query;
    query.id = q.id;
    query.http_target = "/sparql?query=" + net::PercentEncode(q.sparql);
    query.text = std::move(q.sparql);
    query.parsed = std::move(parsed).value();
    queries_.push_back(std::move(query));
  }
  std::fprintf(stderr, "[perfbench] %s: %zu triples, %zu queries\n",
               spec_.name, graph_->size(), queries_.size());
}

void Bench::LoadStore(int count) {
  options_.cluster.ScaleToDataset(graph_->size());
  options_.storage.buffer_pool_bytes = spec_.buffer_pool_bytes;
  options_.exec.num_threads = 1;
  for (int i = 0; i < count; ++i) {
    db_.reset();  // Keep one store alive at a time.
    WallTimer timer;
    auto db = core::ProstDb::LoadFromSharedGraph(graph_, options_);
    load_seconds_.push_back(timer.ElapsedSeconds());
    if (!db.ok()) Fatal("load: " + db.status().ToString());
    db_ = std::move(db).value();
  }
}

void Bench::StartServer() {
  sessions_ = std::make_unique<serve::SessionManager>(
      *db_, serve::AdmissionOptions{});
  net::ServerOptions server_options;
  server_options.handler_threads = 1;  // One closed-loop client.
  server_ = std::make_unique<net::Server>(*sessions_, server_options);
  WallTimer timer;
  Status started = server_->Start();
  server_start_seconds_ = timer.ElapsedSeconds();
  if (!started.ok()) Fatal("server start: " + started.ToString());
  Status connected = client_.Connect("127.0.0.1", server_->port(), 120.0);
  if (!connected.ok()) Fatal("connect: " + connected.ToString());
}

void Bench::StopServer() {
  client_.Close();
  if (server_ != nullptr) server_->Shutdown();
  if (sessions_ != nullptr) sessions_->Shutdown();
  server_.reset();
  sessions_.reset();
}

void Bench::BuildReferences() {
  verified_.assign(queries_.size(), {});
  for (Query& query : queries_) {
    auto result = db_->Execute(query.parsed);
    if (!result.ok()) Fatal(query.id + ": " + result.status().ToString());
    auto rows = db_->DecodeRows(result->relation);
    if (!rows.ok()) Fatal(query.id + ": " + rows.status().ToString());
    query.reference.rows = rows->size();
    query.reference.digest = RowsDigest(*rows);
    query.reference.simulated_millis = result->simulated_millis;
    // DecodeRows yields CollectRows order, so ids and terms line up.
    std::vector<engine::Row> ids = result->relation.CollectRows();
    for (size_t r = 0; r < ids.size(); ++r) {
      for (size_t c = 0; c < ids[r].size(); ++c) {
        term_hashes_.emplace(ids[r][c], HashBytes((*rows)[r][c]));
      }
    }
  }
}

template <typename Check>
bool Bench::Remember(size_t query, uint64_t fingerprint, Check check) {
  std::vector<uint64_t>& seen = verified_[query];
  if (std::find(seen.begin(), seen.end(), fingerprint) != seen.end()) {
    return true;
  }
  if (!check()) return false;
  seen.push_back(fingerprint);
  return true;
}

bool Bench::Verify(size_t query, const Result<core::QueryResult>& result) {
  if (!result.ok()) return false;
  const Reference& reference = queries_[query].reference;
  if (result->relation.TotalRows() != reference.rows ||
      result->simulated_millis != reference.simulated_millis) {
    return false;
  }
  // FNV-1a over the ids in chunk, column and row order.
  uint64_t fingerprint = 0xcbf29ce484222325ULL;
  for (const engine::RelationChunk& chunk : result->relation.chunks()) {
    fingerprint = (fingerprint ^ chunk.num_rows()) * 0x100000001b3ULL;
    for (const auto& column : chunk.columns) {
      for (rdf::TermId id : column) {
        fingerprint = (fingerprint ^ id) * 0x100000001b3ULL;
      }
    }
  }
  return Remember(query, fingerprint,
                  [&] { return VerifyRows(query, *result); });
}

bool Bench::VerifyRows(size_t query, const core::QueryResult& result) const {
  // RowsDigest over ids: each id maps to the hash of the term DecodeRows
  // gave it at set-up. An id no reference row holds is a wrong answer.
  uint64_t digest = 0;
  for (const engine::RelationChunk& chunk : result.relation.chunks()) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      uint64_t hash = kRowHashSeed;
      for (const auto& column : chunk.columns) {
        auto term = term_hashes_.find(column[r]);
        if (term == term_hashes_.end()) return false;
        hash = HashCombine(hash, term->second);
      }
      digest += Mix64(hash);
    }
  }
  return digest == queries_[query].reference.digest;
}

bool Bench::VerifyHttp(
    size_t query, const Result<net::HttpResponseParser::Response>& response) {
  if (!response.ok() || response->status != 200) return false;
  return Remember(query, HashBytes(response->body),
                  [&] { return VerifyBody(query, response->body); });
}

bool Bench::VerifyBody(size_t query, const std::string& body) const {
  auto parsed = net::SparqlResultWriter::ParseJson(body);
  if (!parsed.ok()) return false;
  const Reference& reference = queries_[query].reference;
  return parsed->rows.size() == reference.rows &&
         RowsDigest(parsed->rows) == reference.digest;
}

Sample Bench::Request(size_t query) {
  Sample sample;
  sample.query = query;
  double cpu_before = CpuMillis();
  if (spec_.http) {
    Result<net::HttpResponseParser::Response> response =
        Status::Internal("not sent");
    {
      ScopedTimer timer(&sample.wall_ms);
      response = client_.Get(queries_[query].http_target);
    }
    sample.cpu_ms = CpuMillis() - cpu_before;
    sample.ok = VerifyHttp(query, response);
  } else {
    Result<core::QueryResult> result = Status::Internal("not run");
    {
      ScopedTimer timer(&sample.wall_ms);
      result = db_->Execute(queries_[query].parsed);
    }
    sample.cpu_ms = CpuMillis() - cpu_before;
    sample.ok = Verify(query, result);
  }
  return sample;
}

Sample Bench::TracedRequest(size_t query, LayerTimes* times,
                            obs::QueryProfile* profile) {
  Sample sample;
  sample.query = query;
  double cpu_before = CpuMillis();
  auto run = [&]() -> Result<core::QueryResult> {
    Result<sparql::Query> parsed = Status::Internal("not parsed");
    {
      ScopedTimer timer(&times->parse);
      parsed = sparql::ParseQuery(queries_[query].text);
    }
    PROST_RETURN_IF_ERROR(parsed.status());
    const sparql::Query& q = *parsed;
    Result<core::JoinTree> tree = Status::Internal("not planned");
    {
      ScopedTimer timer(&times->translate);
      tree = db_->Plan(q);
    }
    PROST_RETURN_IF_ERROR(tree.status());
    plan::PlannerInputs inputs;
    inputs.vp = &db_->vp_store();
    inputs.property_table = db_->property_table();
    Result<plan::PhysicalPlan> physical = Status::Internal("not built");
    {
      ScopedTimer timer(&times->build);
      physical = plan::BuildPlan(*tree, q, inputs);
    }
    PROST_RETURN_IF_ERROR(physical.status());
    // The same pipeline ProstDb::Execute runs: verify hook around the
    // enabled passes in AddDefaultPasses' contract order.
    plan::PassManagerOptions manager_options;
    if (db_->options().verify_plans) {
      manager_options.validate = [&](const plan::PhysicalPlan& p) {
        ScopedTimer timer(&times->verify);
        return analysis::CheckPhysicalPlan(p, q);
      };
    }
    plan::PassManager manager(std::move(manager_options));
    const plan::PassOptions& passes = db_->options().passes;
    if (passes.filter_pushdown) {
      manager.AddPass(std::make_unique<TimedPass>(
          plan::MakeFilterPushdownPass(), &times->pass[0]));
    }
    if (passes.join_order) {
      manager.AddPass(std::make_unique<TimedPass>(plan::MakeJoinOrderPass(),
                                                  &times->pass[1]));
    }
    if (passes.resolve_join_strategy) {
      manager.AddPass(std::make_unique<TimedPass>(
          plan::MakeJoinStrategyPass(), &times->pass[2]));
    }
    if (passes.early_projection) {
      manager.AddPass(std::make_unique<TimedPass>(
          plan::MakeEarlyProjectionPass(), &times->pass[3]));
    }
    plan::PassContext context;
    context.join = db_->options().join;
    context.cluster = &db_->options().cluster;
    context.estimator = &db_->estimator();
    PROST_RETURN_IF_ERROR(manager.Run(*physical, context));
    cluster::CostModel cost(db_->options().cluster);
    engine::ExecContext exec(nullptr, db_->options().exec.morsel_rows,
                             profile);
    ScopedTimer timer(&times->execute);
    return core::ExecutePlan(*physical, db_->vp_store(),
                             db_->property_table(), nullptr,
                             db_->options().join, db_->dictionary(), cost,
                             &exec);
  };
  Result<core::QueryResult> result = Status::Internal("not run");
  auto in_process = [&] {
    WallTimer timer;
    result = run();
    if (result.ok() && spec_.http) {
      Result<std::string> body = Status::Internal("not serialized");
      {
        ScopedTimer serialize(&times->serialize);
        body = net::SparqlResultWriter::Serialize(*db_, result->relation,
                                                  net::ResultFormat::kJson);
      }
      if (body.ok()) times->response_bytes = body->size();
    }
    times->in_process = timer.ElapsedMillis();
  };
  Result<net::HttpResponseParser::Response> response =
      Status::Internal("not sent");
  auto http = [&] {
    ScopedTimer timer(&times->request);
    response = client_.Get(queries_[query].http_target);
  };
  // Whichever of the pair runs second finds the query's data warm, so the
  // order alternates and net.wire_ms (HTTP minus in-process) stays
  // unbiased on average.
  if (spec_.http && traced_requests_ % 2 == 1) {
    http();
    in_process();
  } else {
    in_process();
    if (spec_.http) http();
  }
  ++traced_requests_;
  sample.cpu_ms = CpuMillis() - cpu_before;
  if (!spec_.http) times->request = times->in_process;
  sample.wall_ms = times->request;
  AddSelfTimes(*profile, times);
  if (result.ok()) {
    times->rows_out = result->relation.TotalRows();
    times->counters = result->counters;
  }
  sample.ok =
      Verify(query, result) && (!spec_.http || VerifyHttp(query, response));
  return sample;
}

std::vector<Sample> Bench::Loop(double budget_ms, size_t min_rounds,
                                Rng& rng, bool traced,
                                std::vector<LayerTimes>* layers,
                                std::vector<std::string>* spans_json) {
  std::vector<size_t> order(queries_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<Sample> samples;
  double measured_ms = 0;
  size_t rounds = 0;
  do {
    rng.Shuffle(order);
    for (size_t query : order) {
      Sample sample;
      if (traced) {
        LayerTimes times;
        obs::QueryProfile profile;
        sample = TracedRequest(query, &times, &profile);
        layers->push_back(times);
        spans_json->push_back(StrFormat(
            "{\"round\":%zu,\"query\":\"%s\",\"request_ms\":%.4f,"
            "\"spans\":%s}",
            rounds, queries_[query].id.c_str(), times.request,
            SpansJson(profile).c_str()));
      } else {
        sample = Request(query);
      }
      measured_ms += sample.wall_ms;
      samples.push_back(sample);
    }
    ++rounds;
  } while (measured_ms < budget_ms || rounds < min_rounds);
  rounds_ = rounds;
  return samples;
}

std::string Bench::MetadataJson(uint64_t steal_ticks, const E2e& e2e,
                                const std::vector<Sample>& samples) const {
  // Per-query min / median / max wall ms, to recognise drift and outliers.
  std::vector<std::vector<double>> by_query(queries_.size());
  for (const Sample& sample : samples) {
    by_query[sample.query].push_back(sample.wall_ms);
  }
  std::string per_query;
  for (size_t q = 0; q < queries_.size(); ++q) {
    std::vector<double>& values = by_query[q];
    if (values.empty()) continue;
    std::sort(values.begin(), values.end());
    per_query += StrFormat("%s\"%s\":[%.3f,%.3f,%.3f]",
                           per_query.empty() ? "" : ",",
                           queries_[q].id.c_str(), values.front(),
                           Median(values), values.back());
  }
  return StrFormat(
      "{\"workload\":\"%s\",\"workload_seed\":%llu,\"trace\":%d,"
      "\"seconds\":%.3f,\"data_seed\":%llu,\"target_triples\":%llu,"
      "\"triples\":%zu,\"queries_per_round\":%zu,\"rounds\":%zu,"
      "\"samples\":%zu,\"latency_tail_windows\":%zu,"
      "\"latency_tail_percentile\":%.3f,"
      "\"latency_tail_samples_beyond\":%zu,\"loads\":%d,\"nproc\":%ld,"
      "\"build_type\":\"%s\",\"compiler\":\"%s\",\"cpu_model\":\"%s\","
      "\"source_id\":\"%s\",\"steal_ticks\":%llu,"
      "\"per_query_min_p50_max_ms\":{%s}}",
      spec_.name, static_cast<unsigned long long>(args_.seed),
      args_.trace ? 1 : 0, args_.seconds,
      static_cast<unsigned long long>(kDataSeed),
      static_cast<unsigned long long>(args_.triples), graph_->size(),
      queries_.size(), rounds_, samples.size(), e2e.tail_windows,
      e2e.tail.percentile, e2e.tail.beyond, kLoadsBefore + kLoadsAfter,
      sysconf(_SC_NPROCESSORS_ONLN),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      net::JsonEscape(CpuModel()).c_str(),
      net::JsonEscape(args_.source_id).c_str(),
      static_cast<unsigned long long>(steal_ticks), per_query.c_str());
}

void Bench::MeasureUntraced(Rng& rng, Metrics* metrics, Outcome* outcome) {
  uint64_t steal_before = StealTicks();
  std::vector<Sample> samples = Loop(args_.seconds * 1000.0, kWindowRounds,
                                     rng, false, nullptr, nullptr);
  E2e e2e = Summarize(samples, kWindowRounds * queries_.size());
  outcome->attempted += samples.size();
  outcome->failed += e2e.failed;
  // Canonical query order, so the sum is bit-identical every run.
  double sim_ms = 0;
  for (const Query& query : queries_) {
    sim_ms += query.reference.simulated_millis;
  }
  sim_ms /= static_cast<double>(queries_.size());
  metrics->Add("qps", e2e.qps, "1/s");
  metrics->Add("latency_p50_ms", e2e.p50_ms, "ms");
  metrics->Add("latency_tail_ms", e2e.tail.value, "ms");
  metrics->Add("ok_rate",
               static_cast<double>(outcome->attempted - outcome->failed) /
                   static_cast<double>(outcome->attempted),
               "ratio");
  metrics->Add("cpu_ms_per_query", e2e.cpu_ms_per_query, "ms");
  metrics->Add("sim_ms_per_query", sim_ms, "sim_ms");
  outcome->metadata =
      MetadataJson(StealTicks() - steal_before, e2e, samples);
}

void Bench::MeasureTraced(Rng& rng, Metrics* metrics, Outcome* outcome) {
  const double budget_ms = args_.seconds * 1000.0;
  uint64_t steal_before = StealTicks();
  std::vector<Sample> plain =
      Loop(budget_ms / 2, 1, rng, false, nullptr, nullptr);
  auto storage_before = db_->metrics().Snapshot();
  std::vector<LayerTimes> layers;
  std::vector<std::string> spans;
  std::vector<Sample> traced =
      Loop(budget_ms / 2, 1, rng, true, &layers, &spans);
  auto storage_after = db_->metrics().Snapshot();
  E2e plain_e2e = Summarize(plain, 0);
  E2e traced_e2e = Summarize(traced, 0);
  outcome->attempted += plain.size() + traced.size();
  outcome->failed += plain_e2e.failed + traced_e2e.failed;

  LayerTimes sum;
  for (const LayerTimes& t : layers) sum += t;
  double n = static_cast<double>(layers.size());
  auto mean = [n](double total) { return total / n; };
  double layer_sum = sum.parse + sum.translate + sum.build + sum.verify +
                     sum.pass[0] + sum.pass[1] + sum.pass[2] + sum.pass[3] +
                     sum.execute + sum.serialize;
  double wire = spec_.http ? sum.request - sum.in_process : 0;
  metrics->Add("sparql.parse_ms", mean(sum.parse), "ms");
  metrics->Add("core.translate_ms", mean(sum.translate), "ms");
  metrics->Add("plan.build_ms", mean(sum.build), "ms");
  metrics->Add("analysis.verify_ms", mean(sum.verify), "ms");
  for (int p = 0; p < 4; ++p) {
    metrics->Add(std::string("plan.pass.") + kPassNames[p] + "_ms",
                mean(sum.pass[p]), "ms");
  }
  metrics->Add("engine.execute_ms", mean(sum.execute), "ms");
  metrics->Add("engine.scan_ms", mean(sum.scan), "ms");
  metrics->Add("engine.join_ms", mean(sum.join), "ms");
  metrics->Add("engine.modifier_ms", mean(sum.modifier), "ms");
  metrics->Add("net.serialize_ms", mean(sum.serialize), "ms");
  metrics->Add("net.wire_ms", mean(wire), "ms");
  metrics->Add("unattributed_ms", mean(sum.in_process - layer_sum), "ms");
  metrics->Add("request_ms", mean(sum.request), "ms");
  metrics->Add("net.response_kb",
               mean(static_cast<double>(sum.response_bytes)) / 1000.0, "kB");
  metrics->Add("engine.rows_examined_per_result",
               sum.rows_out > 0
                   ? static_cast<double>(sum.counters.rows_processed) /
                         static_cast<double>(sum.rows_out)
                  : 0,
               "ratio");
  metrics->Add("cluster.bytes_scanned_per_query",
               mean(static_cast<double>(sum.counters.bytes_scanned)), "B");
  metrics->Add("cluster.bytes_shuffled_per_query",
               mean(static_cast<double>(sum.counters.bytes_shuffled)), "B");
  auto delta = [&](const char* name) {
    return static_cast<double>(storage_after.counter(name) -
                               storage_before.counter(name));
  };
  double pins = delta("storage.pages_pinned");
  metrics->Add("columnar.pins_per_query", mean(pins), "count");
  metrics->Add("columnar.pool_hit_rate",
               pins > 0 ? 1.0 - delta("storage.page_misses") / pins : 0,
               "ratio");
  metrics->Add("columnar.evictions_per_query",
               mean(delta("storage.evictions")), "count");
  metrics->Add("columnar.row_groups_skipped_per_query",
               mean(delta("storage.row_groups_skipped_zonemap")), "count");
  const core::LoadReport& load = db_->load_report();
  metrics->Add("columnar.storage_bytes_per_input_byte",
               static_cast<double>(load.storage_bytes) /
                   static_cast<double>(load.input_bytes),
               "ratio");
  metrics->Add("trace.untraced_p50_ms", plain_e2e.p50_ms, "ms");
  metrics->Add("trace.traced_p50_ms", traced_e2e.p50_ms, "ms");
  metrics->Add("trace.overhead_pct",
               100.0 * (traced_e2e.p50_ms / plain_e2e.p50_ms - 1.0), "%");
  metrics->Add("trace.untraced_qps", plain_e2e.qps, "1/s");
  metrics->Add("trace.traced_qps", traced_e2e.qps, "1/s");
  outcome->metadata =
      MetadataJson(StealTicks() - steal_before, traced_e2e, traced);

  // Spans stay in memory until the run ends, then go out in one write.
  std::string trace_json =
      "{\"metadata\": " + outcome->metadata + ", \"requests\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    trace_json += spans[i];
    trace_json += i + 1 < spans.size() ? ",\n" : "\n";
  }
  trace_json += "]}\n";
  Status made = MakeDirectories(args_.out_dir);
  std::string path = StrFormat("%s/trace-%s-seed%llu.json",
                               args_.out_dir.c_str(), spec_.name,
                               static_cast<unsigned long long>(args_.seed));
  Status written = made.ok() ? WriteStringToFile(path, trace_json) : made;
  if (!written.ok()) Fatal("writing " + path + ": " + written.ToString());
}

int Bench::Run() {
  WallTimer phase;
  BuildInputs();
  double generate_s = phase.ElapsedSeconds();
  phase.Restart();
  LoadStore(kLoadsBefore);
  double load_s = phase.ElapsedSeconds();
  phase.Restart();
  BuildReferences();
  if (spec_.http) StartServer();
  double references_s = phase.ElapsedSeconds();
  phase.Restart();

  // Warm-up: one verified round over the measured path, not timed but
  // counted in attempted / failed.
  Rng rng(args_.seed);
  std::vector<Sample> warmup = Loop(0.0, 1, rng, false, nullptr, nullptr);
  std::fprintf(stderr,
               "[perfbench] generate %.2f s, %d loads %.2f s, references "
               "%.2f s, warm-up %.2f s\n",
               generate_s, kLoadsBefore, load_s, references_s,
               phase.ElapsedSeconds());
  Outcome outcome;
  outcome.attempted = warmup.size();
  for (const Sample& sample : warmup) outcome.failed += sample.ok ? 0 : 1;

  Metrics metrics;
  if (args_.trace) {
    MeasureTraced(rng, &metrics, &outcome);
    StopServer();
  } else {
    MeasureUntraced(rng, &metrics, &outcome);
    StopServer();
    // The rest of the set-up samples come after measuring, so their median
    // spans the run rather than one moment of a drifting machine.
    db_.reset();
    LoadStore(kLoadsAfter);
    metrics.Add("setup_s", Median(load_seconds_) + server_start_seconds_, "s");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  }

  std::printf("{\"metadata\": %s}\n", outcome.metadata.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      outcome.failed == 0 ? "true" : "false", outcome.attempted,
      outcome.failed, metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) {
      Bench bench(args, spec);
      return bench.Run();
    }
  }
  Fatal("unknown workload '" + args.workload + "'");
}

}  // namespace
}  // namespace prost::perfbench

int main(int argc, char** argv) { return prost::perfbench::Main(argc, argv); }
