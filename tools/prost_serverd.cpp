// prost_serverd: the PRoST SPARQL protocol endpoint as a daemon. Loads a
// dataset (a persisted database directory, an N-Triples file, or a
// generated WatDiv graph), then serves it over HTTP/1.1 until SIGINT or
// SIGTERM, draining gracefully (DESIGN.md §13).
//
//   ./build/tools/prost_serverd --watdiv 20000 --port 8090
//   ./build/tools/prost_serverd --open mydb --port 8090 --max_in_flight 8
//   ./build/tools/prost_serverd data.nt
//
//   curl 'http://127.0.0.1:8090/sparql?query=SELECT%20...'
//   curl -X POST --data 'SELECT * WHERE { ?s ?p ?o . }'
//        -H 'Content-Type: application/sparql-query'
//        http://127.0.0.1:8090/sparql   (one command, split for width)
//   curl http://127.0.0.1:8090/metrics

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/io.h"
#include "core/prost_db.h"
#include "net/server.h"
#include "serve/session_manager.h"
#include "watdiv/generator.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] [data.nt]\n"
      "dataset (pick one):\n"
      "  <data.nt>                 load an N-Triples file\n"
      "  --open DIR                reopen a persisted database directory\n"
      "  --watdiv N                generate an N-triple WatDiv dataset\n"
      "serving options:\n"
      "  --host A                  listen address (default 127.0.0.1)\n"
      "  --port P                  listen port (default 8090; 0 = ephemeral)\n"
      "  --threads N               executor threads per query (default 1)\n"
      "  --handlers N              connection handler threads (default 4)\n"
      "  --max_in_flight N         concurrent queries (default 4)\n"
      "  --max_queued N            admission queue depth (default 16)\n"
      "  --max_request_bytes N     request body cap (default 1 MiB)\n"
      "  --max_header_bytes N      request header cap (default 32 KiB)\n"
      "  --request_deadline S      per-request deadline seconds (default 30)\n",
      argv0);
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != nullptr && *end == '\0' && end != text;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prost;

  std::string open_dir;
  std::string ntriples_path;
  uint64_t watdiv_triples = 0;
  std::string host = "127.0.0.1";
  uint64_t port = 8090;
  uint64_t exec_threads = 1;
  uint64_t handlers = 4;
  serve::AdmissionOptions admission;
  net::ServerOptions server_options;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_uint = [&](uint64_t* out) {
      if (i + 1 >= argc || !ParseUint(argv[++i], out)) {
        std::fprintf(stderr, "%s needs a numeric argument\n", arg);
        std::exit(2);
      }
    };
    if (std::strcmp(arg, "--open") == 0 && i + 1 < argc) {
      open_dir = argv[++i];
    } else if (std::strcmp(arg, "--watdiv") == 0) {
      next_uint(&watdiv_triples);
    } else if (std::strcmp(arg, "--host") == 0 && i + 1 < argc) {
      host = argv[++i];
    } else if (std::strcmp(arg, "--port") == 0) {
      next_uint(&port);
    } else if (std::strcmp(arg, "--threads") == 0) {
      next_uint(&exec_threads);
    } else if (std::strcmp(arg, "--handlers") == 0) {
      next_uint(&handlers);
    } else if (std::strcmp(arg, "--max_in_flight") == 0) {
      uint64_t value = 0;
      next_uint(&value);
      admission.max_in_flight = static_cast<uint32_t>(value);
    } else if (std::strcmp(arg, "--max_queued") == 0) {
      uint64_t value = 0;
      next_uint(&value);
      admission.max_queued = static_cast<uint32_t>(value);
    } else if (std::strcmp(arg, "--max_request_bytes") == 0) {
      uint64_t value = 0;
      next_uint(&value);
      server_options.http_limits.max_body_bytes = value;
    } else if (std::strcmp(arg, "--max_header_bytes") == 0) {
      uint64_t value = 0;
      next_uint(&value);
      server_options.http_limits.max_header_bytes = value;
    } else if (std::strcmp(arg, "--request_deadline") == 0) {
      uint64_t value = 0;
      next_uint(&value);
      server_options.request_deadline_seconds = static_cast<double>(value);
    } else if (std::strcmp(arg, "--help") == 0) {
      Usage(argv[0]);
      return 0;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      Usage(argv[0]);
      return 2;
    } else {
      ntriples_path = arg;
    }
  }

  const int sources = (open_dir.empty() ? 0 : 1) +
                      (watdiv_triples > 0 ? 1 : 0) +
                      (ntriples_path.empty() ? 0 : 1);
  if (sources != 1) {
    Usage(argv[0]);
    return 2;
  }

  core::ProstDb::Options db_options;
  db_options.exec.num_threads = static_cast<uint32_t>(exec_threads);
  Result<std::unique_ptr<core::ProstDb>> db =
      Status::InvalidArgument("no dataset");
  if (!open_dir.empty()) {
    std::fprintf(stderr, "opening %s ...\n", open_dir.c_str());
    db = core::ProstDb::OpenFrom(open_dir, db_options);
  } else if (watdiv_triples > 0) {
    std::fprintf(stderr, "generating %llu WatDiv triples ...\n",
                 static_cast<unsigned long long>(watdiv_triples));
    watdiv::WatDivConfig config;
    config.target_triples = watdiv_triples;
    watdiv::WatDivDataset dataset = watdiv::Generate(config);
    db = core::ProstDb::LoadFromGraph(std::move(dataset.graph), db_options);
  } else {
    std::fprintf(stderr, "loading %s ...\n", ntriples_path.c_str());
    std::string text;
    Status read = ReadFileToString(ntriples_path, &text);
    if (!read.ok()) {
      std::fprintf(stderr, "error: %s\n", read.ToString().c_str());
      return 1;
    }
    db = core::ProstDb::LoadFromNTriples(text, db_options);
  }
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }

  serve::SessionManager sessions(**db, admission);
  server_options.host = host;
  server_options.port = static_cast<uint16_t>(port);
  server_options.handler_threads = static_cast<int>(handlers);
  net::Server server(sessions, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "serving on http://%s:%u/sparql (healthz, metrics; "
               "max_in_flight=%u, %llu handlers) — Ctrl-C to drain\n",
               host.c_str(), server.port(), admission.max_in_flight,
               static_cast<unsigned long long>(handlers));

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::fprintf(stderr, "draining ...\n");
  server.Shutdown();   // Stop accepting, finish in-flight responses.
  sessions.Shutdown();  // Then drain the admission layer itself.
  std::fprintf(stderr, "bye\n");
  return 0;
}
