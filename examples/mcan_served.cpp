// mcan-served — the campaign orchestration daemon.
//
// Listens on a Unix-domain socket for job submissions (fuzz campaigns,
// rare-event campaigns, model-check sweeps), shards each campaign's
// rounds across a worker fleet, and journals merged state so a killed
// daemon resumes every in-flight job byte-identically.  mcan-client is
// the submit/status/result side; docs/SERVING.md specifies the protocol
// and the determinism and crash-recovery guarantees.
//
//     mcan-served --socket /tmp/mcan.sock --journal-dir serve-journal
//                 --workers 4
//
// SIGINT/SIGTERM shut down gracefully: in-flight shards finish, every
// live job gets a final journal snapshot, the socket is removed.
// Exit status: 0 = clean shutdown, 1 = startup failure, 2 = usage error.
#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "sim/kernel.hpp"
#include "util/stop.hpp"

namespace {

using namespace mcan;

constexpr const char* kUsage =
    "usage: mcan-served [options]\n"
    "\n"
    "Campaign orchestration daemon: accepts fuzz / rsm / attack / rare /\n"
    "check jobs over a Unix-domain socket, shards their rounds across a\n"
    "worker fleet, and journals progress for crash recovery.  Results are\n"
    "bit-identical to local single-process runs of the same specs.\n";

BoundOptions bind_options(ServerConfig& cfg) {
  static const OptionTable<ServerConfig> table = [] {
    OptionTable<ServerConfig> t;
    t.text({"--socket", "", "", "PATH", "listening socket"},
           &ServerConfig::socket_path)
        .text({"--journal-dir", "", "", "DIR",
               "job journals for crash recovery (none: no\n"
               "persistence)"},
              [](auto& c) -> auto& { return c.serve.journal_dir; })
        .integer({"--workers", "", "", "N",
                  "worker threads, 0 = one per hardware thread"},
                 [](auto& c) -> auto& { return c.pool.workers; }, 0, 1024)
        .integer({"--capacity", "", "", "N",
                  "max live jobs before submits are rejected"},
                 [](auto& c) -> auto& { return c.serve.capacity; }, 1,
                 LLONG_MAX)
        .integer({"--shard-size", "", "", "N", "slots per shard"},
                 [](auto& c) -> auto& { return c.serve.shard_size; }, 1,
                 LLONG_MAX)
        .integer({"--max-retries", "", "", "N",
                  "shard requeues before a job fails"},
                 [](auto& c) -> auto& { return c.serve.max_retries; }, 0,
                 INT_MAX)
        .integer({"--checkpoint-every", "", "", "N",
                  "units between journal snapshots"},
                 [](auto& c) -> auto& { return c.serve.checkpoint_every; }, 1,
                 LLONG_MAX)
        .integer({"--heartbeat-timeout", "", "", "S",
                  "declare a silent worker dead after S seconds"},
                 [](auto& c) -> auto& { return c.pool.heartbeat_timeout_s; },
                 1, LLONG_MAX);
    return t;
  }();
  return join({table.bind(cfg), {kernel_option()}});
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig cfg;
  cfg.pool.workers = 1;
  if (const int rc =
          parse_flags("mcan-served", argc, argv, bind_options(cfg), kUsage);
      rc >= 0) {
    return rc;
  }

  CampaignServer server(cfg);
  install_stop_handlers();

  std::vector<std::string> notes;
  std::string error;
  if (!server.start(notes, error)) {
    std::fprintf(stderr, "mcan-served: %s\n", error.c_str());
    return 1;
  }
  for (const std::string& note : notes) {
    std::fprintf(stderr, "mcan-served: %s\n", note.c_str());
  }
  std::fprintf(stderr, "mcan-served: listening on %s (%d workers)\n",
               server.socket_path().c_str(), cfg.pool.workers);
  server.run(&stop_flag());
  std::fprintf(stderr, "mcan-served: stopped\n");
  return 0;
}
