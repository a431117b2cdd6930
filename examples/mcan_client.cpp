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
// Results are the daemon's deterministic job-result bytes (fuzz: the
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

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/oracle.hpp"
#include "serve/proto.hpp"

namespace {

using namespace mcan;

void usage(std::FILE* to) {
  std::fputs(
      "usage: mcan-client [--socket PATH] <command> [options]\n"
      "\n"
      "commands:\n"
      "  submit <fuzz|rsm|rare|check> [spec options] [--priority N] "
      "[--wait]\n"
      "  status <id>      job progress as JSON\n"
      "  result <id>      finished job's result bytes\n"
      "  cancel <id>\n"
      "  stats            queue depth, shard counters, per-job throughput\n"
      "  ping\n"
      "  shutdown         graceful daemon stop\n"
      "\n"
      "spec options (defaults = the engines' defaults):\n"
      "  fuzz:  --protocol TOK --nodes N --seed N --max-execs N --batch N\n"
      "         --minimize-every N --max-flips N --envelope "
      "--mutate-protocol\n"
      "  rsm:   fuzz options plus the consensus workload: --commands N\n"
      "         --payload N --rsm-k N --spacing BITS --link "
      "direct|edcan|relcan|totcan\n"
      "         --crash-node N --crash-t BITS --recover-t BITS\n"
      "  rare:  --protocol TOK --nodes N --ber X --mode "
      "naive|importance|splitting\n"
      "         --seed N --trials N --batch N\n"
      "  check: --protocol TOK (repeatable) --errors N --nodes N "
      "--budget N\n"
      "         --no-dedup --no-symmetry\n"
      "\n"
      "submit options:\n"
      "  --priority N         higher claims workers first (default 0)\n"
      "  --wait               poll until the job finishes, print its "
      "result\n"
      "  --poll-ms N          --wait poll interval (default 200)\n"
      "  --expect-classes L   fuzz gate, as in mcan-fuzz\n"
      "  --expect-within X    rare gate, as in mcan-rare\n"
      "  --expect-rel-ci X    rare gate, as in mcan-rare\n"
      "\n"
      "  --socket PATH        daemon socket (default mcan-serve.sock)\n",
      to);
}

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
  std::string command;
  std::string backend;
  long long id = 0;
  int priority = 0;
  bool wait = false;
  long long poll_ms = 200;
  std::optional<std::uint32_t> expect_classes;
  double expect_within = 0;
  double expect_rel_ci = 0;
  Json spec = Json::object();
};

bool parse_ll(const std::string& s, long long& out) {
  try {
    std::size_t pos = 0;
    out = std::stoll(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

bool parse_double(const std::string& s, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

bool parse_args(int argc, char** argv, Options& opt) {
  std::vector<std::string> protocols;  // check: repeatable --protocol
  int i = 1;
  auto need = [&](std::string& out) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "mcan-client: %s needs a value\n", argv[i]);
      return false;
    }
    out = argv[++i];
    return true;
  };
  auto need_int = [&](const char* key, long long& out) {
    std::string v;
    if (!need(v) || !parse_ll(v, out)) {
      std::fprintf(stderr, "mcan-client: bad %s value\n", key);
      return false;
    }
    return true;
  };
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    long long n = 0;
    double d = 0;
    if (a == "-h" || a == "--help") {
      usage(stdout);
      // exit in the --help path: before any thread exists.
      std::exit(0);  // NOLINT(concurrency-mt-unsafe)
    } else if (a == "--socket") {
      if (!need(opt.socket)) return false;
    } else if (a == "--priority") {
      if (!need_int("--priority", n)) return false;
      opt.priority = static_cast<int>(n);
    } else if (a == "--wait") {
      opt.wait = true;
    } else if (a == "--poll-ms") {
      if (!need_int("--poll-ms", opt.poll_ms) || opt.poll_ms < 1) {
        return false;
      }
    } else if (a == "--expect-classes") {
      if (!need(v)) return false;
      std::uint32_t mask = 0;
      std::string error;
      if (!parse_fuzz_classes(v, mask, error)) {
        std::fprintf(stderr, "mcan-client: %s\n", error.c_str());
        return false;
      }
      opt.expect_classes = mask;
    } else if (a == "--expect-within") {
      if (!need(v) || !parse_double(v, opt.expect_within)) return false;
    } else if (a == "--expect-rel-ci") {
      if (!need(v) || !parse_double(v, opt.expect_rel_ci)) return false;
    } else if (a == "--protocol") {
      if (!need(v)) return false;
      protocols.push_back(v);
    } else if (a == "--nodes" || a == "--seed" || a == "--max-execs" ||
               a == "--batch" || a == "--minimize-every" ||
               a == "--max-flips" || a == "--trials" || a == "--errors" ||
               a == "--budget" || a == "--max-k" || a == "--commands" ||
               a == "--payload" || a == "--rsm-k" || a == "--spacing" ||
               a == "--crash-node" || a == "--crash-t" ||
               a == "--recover-t") {
      if (!need_int(a.c_str(), n)) return false;
      std::string key = a.substr(2);
      for (char& c : key) {
        if (c == '-') c = '_';
      }
      if (key == "errors") key = "max_k";
      // rsm workload flags map onto the .scn directive's key names.
      if (key == "rsm_k") key = "k";
      if (key == "crash_node") key = "crash";
      if (key == "crash_t") key = "crasht";
      if (key == "recover_t") key = "recovert";
      opt.spec.set(key, Json(n));
    } else if (a == "--ber") {
      if (!need(v) || !parse_double(v, d)) return false;
      opt.spec.set("ber", Json(d));
    } else if (a == "--mode") {
      if (!need(v)) return false;
      opt.spec.set("mode", Json(v));
    } else if (a == "--link") {
      if (!need(v)) return false;
      opt.spec.set("link", Json(v));
    } else if (a == "--envelope") {
      opt.spec.set("envelope", Json(true));
    } else if (a == "--mutate-protocol") {
      opt.spec.set("mutate_protocol", Json(true));
    } else if (a == "--no-dedup") {
      opt.spec.set("dedup", Json(false));
    } else if (a == "--no-symmetry") {
      opt.spec.set("symmetry", Json(false));
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "mcan-client: unknown option %s\n", a.c_str());
      return false;
    } else if (opt.command.empty()) {
      opt.command = a;
    } else if (opt.command == "submit" && opt.backend.empty()) {
      opt.backend = a;
    } else if (opt.id == 0 && parse_ll(a, opt.id) && opt.id > 0) {
      // status/result/cancel <id>
    } else {
      std::fprintf(stderr, "mcan-client: unexpected argument %s\n",
                   a.c_str());
      return false;
    }
  }
  if (opt.command.empty()) {
    std::fprintf(stderr, "mcan-client: no command (see --help)\n");
    return false;
  }
  if (opt.command == "submit") {
    if (opt.backend != "fuzz" && opt.backend != "rsm" &&
        opt.backend != "rare" && opt.backend != "check") {
      std::fprintf(
          stderr,
          "mcan-client: submit needs a backend: fuzz|rsm|rare|check\n");
      return false;
    }
    // "backend" leads the spec so journals and fingerprints read well.
    Json spec = Json::object();
    spec.set("backend", Json(opt.backend));
    if (!protocols.empty()) {
      if (opt.backend == "check") {
        Json list = Json::array();
        for (const std::string& p : protocols) list.push(Json(p));
        spec.set("protocols", std::move(list));
      } else {
        if (protocols.size() > 1) {
          std::fprintf(stderr,
                       "mcan-client: %s jobs take one --protocol\n",
                       opt.backend.c_str());
          return false;
        }
        spec.set("protocol", Json(protocols.front()));
      }
    }
    for (const auto& [k, vjson] : opt.spec.members()) spec.set(k, vjson);
    opt.spec = std::move(spec);
  } else if (opt.command == "status" || opt.command == "result" ||
             opt.command == "cancel") {
    if (opt.id <= 0) {
      std::fprintf(stderr, "mcan-client: %s needs a job id\n",
                   opt.command.c_str());
      return false;
    }
  } else if (opt.command != "stats" && opt.command != "ping" &&
             opt.command != "shutdown") {
    // Reject before connecting, so a typo is a usage error (2) even
    // when no daemon is up, not a connection failure (1).
    std::fprintf(stderr, "mcan-client: unknown command %s\n",
                 opt.command.c_str());
    return false;
  }
  return true;
}

// --- gates (same semantics as the mcan-fuzz / mcan-rare CLIs) --------------

int check_fuzz_gate(const Options& opt, const Json& result) {
  if (!opt.expect_classes) return 0;
  const Json* classes = result.find("classes");
  std::uint32_t found = 0;
  std::string error;
  if (!classes || !classes->is_string()) {
    std::fprintf(stderr, "mcan-client: result has no classes field\n");
    return 1;
  }
  // The result renders the mask as "a+b"; the parser takes a comma list.
  std::string list = classes->as_string();
  for (char& c : list) {
    if (c == '+') c = ',';
  }
  if (!parse_fuzz_classes(list, found, error)) {
    std::fprintf(stderr, "mcan-client: bad classes in result: %s\n",
                 error.c_str());
    return 1;
  }
  return check_class_gate("mcan-client", *opt.expect_classes, found);
}

int check_rare_gates(const Options& opt, const Json& result) {
  int rc = 0;
  const Json* imo = result.find("imo");
  if (!imo || !imo->is_object()) {
    if (opt.expect_within > 0 || opt.expect_rel_ci > 0) {
      std::fprintf(stderr, "mcan-client: result has no imo estimate\n");
      return 1;
    }
    return 0;
  }
  const double ci_lo = imo->find("ci_lo") ? imo->find("ci_lo")->as_double() : 0;
  const double ci_hi = imo->find("ci_hi") ? imo->find("ci_hi")->as_double() : 0;
  const double relhw =
      imo->find("rel_halfwidth") ? imo->find("rel_halfwidth")->as_double() : 0;
  const long long hits = imo->find("hits") ? imo->find("hits")->as_int() : 0;
  if (opt.expect_rel_ci > 0 && (hits == 0 || relhw > opt.expect_rel_ci)) {
    std::fprintf(stderr,
                 "mcan-client: FAIL relative CI half-width %.2f > %.2f "
                 "(hits=%lld)\n",
                 relhw, opt.expect_rel_ci, hits);
    rc = 1;
  }
  if (opt.expect_within > 0) {
    const Json* p4j = result.find("closed_form_p4");
    const double p4 = p4j ? p4j->as_double() : 0;
    const bool ok = p4 > 0 && ci_hi >= p4 / opt.expect_within &&
                    ci_lo <= p4 * opt.expect_within;
    if (!ok) {
      std::fprintf(stderr,
                   "mcan-client: FAIL estimate [%.3e, %.3e] not within "
                   "%.1fx of expression (4) = %.3e\n",
                   ci_lo, ci_hi, opt.expect_within, p4);
      rc = 1;
    }
  }
  return rc;
}

int apply_gates(const Options& opt, const std::string& result_bytes) {
  if (!opt.expect_classes && opt.expect_within <= 0 &&
      opt.expect_rel_ci <= 0) {
    return 0;
  }
  Json result;
  std::string error;
  if (!Json::parse(result_bytes, result, error)) {
    std::fprintf(stderr, "mcan-client: result does not parse: %s\n",
                 error.c_str());
    return 1;
  }
  if (opt.backend == "fuzz" || opt.backend == "rsm") {
    return check_fuzz_gate(opt, result);
  }
  if (opt.backend == "rare") return check_rare_gates(opt, result);
  return 0;
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
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

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
