// mcan-client — submit and track campaigns on a running mcan-served.
//
//     mcan-client --socket /tmp/mcan.sock submit fuzz
//         --protocol major:5 --seed 7 --max-execs 4000 --wait
//     mcan-client submit rare --protocol can --trials 20000 --wait
//         --expect-within 3
//     mcan-client status 1
//     mcan-client result 1
//     mcan-client stats
//     mcan-client cancel 1
//     mcan-client shutdown
//
// Each job kind's spec flags are its engine's keyed options (the ones
// mcan-fuzz, mcan-rsm, mcan-attack, mcan-rare and mcan-check spell the
// same way), so a spec only carries keys the daemon accepts.  Results are
// the daemon's deterministic job-result bytes (fuzz/rsm/attack: the
// --stats-json line; rare: the estimate JSON; check: the sweep summary) —
// byte-identical to a local single-process run of the same spec, which is
// what the --expect-* gates (same semantics as mcan-fuzz / mcan-rare)
// check against.
//
// Exit status: 0 = ok and every gate held, 1 = request failed, job
// failed/cancelled or a gate did not hold, 2 = usage error.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/oracle.hpp"
#include "rare/campaign.hpp"
#include "serve/backend.hpp"
#include "serve/proto.hpp"

namespace {

using namespace mcan;

// --- tiny client transport -------------------------------------------------

class Connection {
 public:
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connect(const std::string& path, std::string& error) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      error = "socket path too long: " + path;
      return false;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      error = path + ": " + std::strerror(errno);
      return false;
    }
    return true;
  }

  /// One request/response exchange; false with a message on transport or
  /// protocol-level failure (the response itself may still carry ok=false).
  bool exchange(const Json& req, Json& res, std::string& error) {
    if (!write_frame(fd_, req.dump())) {
      error = "cannot write to daemon (is it running?)";
      return false;
    }
    std::string payload;
    if (read_frame(fd_, payload) != FrameRead::kOk) {
      error = "connection lost while waiting for a response";
      return false;
    }
    if (!Json::parse(payload, res, error)) {
      error = "daemon sent unparsable JSON: " + error;
      return false;
    }
    return true;
  }

 private:
  int fd_ = -1;
};

bool response_ok(const Json& res) {
  const Json* ok = res.find("ok");
  return ok != nullptr && ok->as_bool();
}

std::string response_error(const Json& res) {
  const Json* err = res.find("error");
  return err != nullptr && err->is_string() ? err->as_string()
                                            : "daemon error";
}

// --- argument plumbing -----------------------------------------------------

struct Options {
  std::string socket = "mcan-serve.sock";
  int priority = 0;
  bool wait = false;
  long long poll_ms = 200;
  std::optional<std::uint32_t> expect_classes;
  RareGate rare_gate;
  std::string command;
  std::string backend;
  long long id = 0;
  Json spec = Json::object();
};

const OptionTable<Options>& client_options() {
  static const OptionTable<Options> table = [] {
    OptionTable<Options> t;
    t.text({"--socket", "", "", "PATH", "daemon socket"}, &Options::socket)
        .integer({"--priority", "", "", "N", "higher claims workers first"},
                 &Options::priority, -1000000, 1000000)
        .toggle({"--wait", "", "", "",
                 "poll until the job finishes, print its result"},
                &Options::wait, true)
        .integer({"--poll-ms", "", "", "N", "--wait poll interval"},
                 &Options::poll_ms, 1, 3600000);
    return t;
  }();
  return table;
}

/// The engine CLIs' gates, for the job kind whose results they judge.
BoundOptions gate_options(Options& opt, const std::string& kind) {
  if (kind == "rare") return rare_gate_options().bind(opt.rare_gate);
  if (kind == "check") return {};
  return {expect_classes_option(opt.expect_classes)};
}

void usage(std::FILE* to) {
  std::fputs(
      "usage: mcan-client [--socket PATH] <command> [options]\n"
      "\n"
      "commands:\n"
      "  submit <kind> [spec options] [submit options]\n"
      "                   queue a campaign; <kind> is one of",
      to);
  for (const std::string& kind : backend_kinds()) {
    std::fprintf(to, " %s", kind.c_str());
  }
  std::fputs(
      "\n"
      "  status <id>      job progress as JSON\n"
      "  result <id>      finished job's result bytes\n"
      "  cancel <id>\n"
      "  stats            queue depth, shard counters, per-job throughput\n"
      "  ping\n"
      "  shutdown         graceful daemon stop\n"
      "\n"
      "options:\n",
      to);
  Options defaults;
  std::fputs(options_help(client_options().bind(defaults)).c_str(), to);
  std::fputs("  -h, --help            this text\n", to);
  for (const std::string& kind : backend_kinds()) {
    std::fprintf(to, "\nsubmit %s (the spec keys of docs/SERVING.md):\n",
                 kind.c_str());
    Json spec = Json::object();
    std::fputs(options_help(join({spec_options(kind, spec),
                                  gate_options(defaults, kind)}))
                   .c_str(),
               to);
  }
}

bool parse_args(const std::vector<std::string>& args, Options& opt) {
  // The command comes first (after --socket), then a submit's kind: the
  // kind decides which spec flags exist.
  std::size_t first = 0;
  while (first < args.size() && args[first] == "--socket") first += 2;
  if (first < args.size()) opt.command = args[first];
  if (opt.command == "submit") {
    const std::vector<std::string>& kinds = backend_kinds();
    if (first + 1 >= args.size() ||
        std::find(kinds.begin(), kinds.end(), args[first + 1]) ==
            kinds.end()) {
      std::fprintf(stderr,
                   "mcan-client: submit needs a backend: "
                   "fuzz|rsm|attack|rare|check\n");
      return false;
    }
    opt.backend = args[first + 1];
    // "backend" leads the spec so journals and fingerprints read well.
    opt.spec.set("backend", Json(opt.backend));
  }
  // Only submit reads more than the socket: its kind's spec flags and the
  // gates that judge its result.
  const BoundOptions opts =
      opt.command == "submit"
          ? join({client_options().bind(opt),
                  spec_options(opt.backend, opt.spec),
                  gate_options(opt, opt.backend)})
          : client_options().bind(opt, {"--socket"});
  std::vector<std::string> positional;
  const std::string error = parse_command_line(args, opts, positional);
  if (!error.empty()) {
    std::fprintf(stderr, "mcan-client: %s\n", error.c_str());
    return false;
  }
  if (positional.empty()) {
    std::fprintf(stderr, "mcan-client: no command (see --help)\n");
    return false;
  }
  if (opt.command == "submit") {
    if (positional.size() != 2) {
      std::fprintf(stderr, "mcan-client: unexpected argument %s\n",
                   positional.back().c_str());
      return false;
    }
  } else if (opt.command == "status" || opt.command == "result" ||
             opt.command == "cancel") {
    if (positional.size() != 2 ||
        !parse_integer(positional[1], 1, LLONG_MAX, opt.id).empty()) {
      std::fprintf(stderr, "mcan-client: %s needs a job id\n",
                   opt.command.c_str());
      return false;
    }
  } else if (opt.command == "stats" || opt.command == "ping" ||
             opt.command == "shutdown") {
    if (positional.size() != 1) {
      std::fprintf(stderr, "mcan-client: unexpected argument %s\n",
                   positional[1].c_str());
      return false;
    }
  } else {
    // Reject before connecting, so a typo is a usage error (2) even
    // when no daemon is up, not a connection failure (1).
    std::fprintf(stderr, "mcan-client: unknown command %s\n",
                 opt.command.c_str());
    return false;
  }
  return true;
}

// --- gates (the mcan-fuzz / mcan-rare gates, on served results) ------------

int apply_gates(const Options& opt, const std::string& result_bytes) {
  const bool rare_gated = opt.rare_gate.within > 0 || opt.rare_gate.rel_ci > 0;
  if (!opt.expect_classes && !rare_gated) return 0;
  Json result;
  std::string error;
  if (!Json::parse(result_bytes, result, error)) {
    std::fprintf(stderr, "mcan-client: result does not parse: %s\n",
                 error.c_str());
    return 1;
  }
  if (rare_gated) {
    RareEstimate imo;
    double p4 = 0;
    if (!rare_gate_inputs(result, imo, p4)) {
      std::fprintf(stderr, "mcan-client: result has no imo estimate\n");
      return 1;
    }
    return check_rare_gate("mcan-client", opt.rare_gate, imo, p4);
  }
  const Json* classes = result.find("classes");
  if (!classes || !classes->is_string()) {
    std::fprintf(stderr, "mcan-client: result has no classes field\n");
    return 1;
  }
  // The result renders the mask as "a+b"; the parser takes a comma list.
  std::string list = classes->as_string();
  std::replace(list.begin(), list.end(), '+', ',');
  std::uint32_t found = 0;
  if (!parse_fuzz_classes(list, found, error)) {
    std::fprintf(stderr, "mcan-client: bad classes in result: %s\n",
                 error.c_str());
    return 1;
  }
  return check_class_gate("mcan-client", *opt.expect_classes, found);
}

// --- commands --------------------------------------------------------------

Json id_request(const std::string& type, long long id) {
  Json req = make_request(type);
  req.set("id", Json(id));
  return req;
}

int fetch_result(Connection& conn, const Options& opt, long long id) {
  Json res;
  std::string error;
  if (!conn.exchange(id_request("result", id), res, error)) {
    std::fprintf(stderr, "mcan-client: %s\n", error.c_str());
    return 1;
  }
  if (!response_ok(res)) {
    std::fprintf(stderr, "mcan-client: %s\n", response_error(res).c_str());
    return 1;
  }
  const Json* result = res.find("result");
  const std::string bytes =
      result && result->is_string() ? result->as_string() : std::string();
  std::fputs(bytes.c_str(), stdout);
  if (bytes.empty() || bytes.back() != '\n') std::fputc('\n', stdout);
  return apply_gates(opt, bytes);
}

int wait_for_job(Connection& conn, const Options& opt, long long id) {
  for (;;) {
    Json res;
    std::string error;
    if (!conn.exchange(id_request("status", id), res, error)) {
      std::fprintf(stderr, "mcan-client: %s\n", error.c_str());
      return 1;
    }
    if (!response_ok(res)) {
      std::fprintf(stderr, "mcan-client: %s\n", response_error(res).c_str());
      return 1;
    }
    const Json* job = res.find("job");
    const Json* state = job ? job->find("state") : nullptr;
    const std::string s = state && state->is_string() ? state->as_string()
                                                      : std::string("?");
    if (s == "done") return fetch_result(conn, opt, id);
    if (s == "failed" || s == "cancelled") {
      const Json* err = job->find("error");
      std::fprintf(stderr, "mcan-client: job %lld %s%s%s\n", id, s.c_str(),
                   err ? ": " : "",
                   err && err->is_string() ? err->as_string().c_str() : "");
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.poll_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args = args_of(argc, argv);
  for (const std::string& a : args) {
    if (a == "-h" || a == "--help") {
      usage(stdout);
      return 0;
    }
  }
  Options opt;
  if (!parse_args(args, opt)) return 2;

  Connection conn;
  std::string error;
  if (!conn.connect(opt.socket, error)) {
    std::fprintf(stderr, "mcan-client: %s\n", error.c_str());
    return 1;
  }

  Json res;
  if (opt.command == "submit") {
    Json req = make_request("submit");
    req.set("spec", opt.spec);
    req.set("priority", Json(static_cast<long long>(opt.priority)));
    if (!conn.exchange(req, res, error)) {
      std::fprintf(stderr, "mcan-client: %s\n", error.c_str());
      return 1;
    }
    if (!response_ok(res)) {
      const bool rejected =
          res.find("rejected") && res.find("rejected")->as_bool();
      std::fprintf(stderr, "mcan-client: %s%s\n",
                   rejected ? "rejected: " : "",
                   response_error(res).c_str());
      return 1;
    }
    const long long id = res.find("id") ? res.find("id")->as_int() : 0;
    if (!opt.wait) {
      std::printf("%lld\n", id);
      return 0;
    }
    std::fprintf(stderr, "mcan-client: job %lld submitted, waiting\n", id);
    return wait_for_job(conn, opt, id);
  }
  if (opt.command == "status") {
    if (!conn.exchange(id_request("status", opt.id), res, error)) {
      std::fprintf(stderr, "mcan-client: %s\n", error.c_str());
      return 1;
    }
    if (!response_ok(res)) {
      std::fprintf(stderr, "mcan-client: %s\n", response_error(res).c_str());
      return 1;
    }
    std::printf("%s\n", res.find("job")->dump().c_str());
    return 0;
  }
  if (opt.command == "result") return fetch_result(conn, opt, opt.id);
  if (opt.command == "cancel" || opt.command == "ping" ||
      opt.command == "shutdown") {
    const Json req = opt.command == "cancel"
                         ? id_request("cancel", opt.id)
                         : make_request(opt.command);
    if (!conn.exchange(req, res, error)) {
      std::fprintf(stderr, "mcan-client: %s\n", error.c_str());
      return 1;
    }
    if (!response_ok(res)) {
      std::fprintf(stderr, "mcan-client: %s\n", response_error(res).c_str());
      return 1;
    }
    std::printf("ok\n");
    return 0;
  }
  if (opt.command == "stats") {
    if (!conn.exchange(make_request("stats"), res, error)) {
      std::fprintf(stderr, "mcan-client: %s\n", error.c_str());
      return 1;
    }
    if (!response_ok(res)) {
      std::fprintf(stderr, "mcan-client: %s\n", response_error(res).c_str());
      return 1;
    }
    std::printf("%s\n", res.find("stats")->dump().c_str());
    return 0;
  }
  std::fprintf(stderr, "mcan-client: unknown command %s\n",
               opt.command.c_str());
  return 2;
}
