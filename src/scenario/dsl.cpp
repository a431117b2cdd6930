#include "scenario/dsl.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "analysis/tagged.hpp"
#include "attack/injector.hpp"
#include "core/network.hpp"

namespace mcan {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::invalid_argument("scenario line " + std::to_string(line) + ": " +
                              what);
}

std::uint32_t parse_uint(int line, const std::string& s) {
  try {
    return static_cast<std::uint32_t>(std::stoul(s, nullptr, 0));
  } catch (const std::exception&) {
    fail(line, "not a number: '" + s + "'");
  }
}

// Signed variant for EOF-relative positions, which are legitimately
// negative (eofrel=-1 is the last bit before EOF); stoul would silently
// wrap the minus sign into a huge position instead.
int parse_int(int line, const std::string& s) {
  try {
    std::size_t used = 0;
    const long v = std::stol(s, &used, 0);
    if (used != s.size()) throw std::invalid_argument(s);
    return static_cast<int>(v);
  } catch (const std::exception&) {
    fail(line, "not an integer: '" + s + "'");
  }
}

/// Parse "key=value" tokens into a map.
std::map<std::string, std::string> parse_kv(
    int line, const std::vector<std::string>& tokens, std::size_t from) {
  std::map<std::string, std::string> kv;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) fail(line, "expected key=value: " + tokens[i]);
    kv[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
  }
  return kv;
}

}  // namespace

RsmWorkload sanitize_rsm_workload(RsmWorkload w, int n_nodes) {
  const auto clamp = [](int v, int lo, int hi) {
    return v < lo ? lo : (v > hi ? hi : v);
  };
  // Command count and payload are bounded so the worst-case uncommitted
  // log tail always fits one snapshot message (kRsmMaxPayload); the
  // commit threshold must be reachable by the full membership.
  w.commands = clamp(w.commands, 1, 10);
  w.payload = clamp(w.payload, 1, 16);
  w.k = clamp(w.k, 1, n_nodes < 1 ? 1 : n_nodes);
  if (w.spacing > 10000) w.spacing = 10000;
  w.link = clamp(w.link, 0, 3);
  if (w.crash_node >= n_nodes) w.crash_node = n_nodes - 1;
  if (w.crash_node < 0) {
    w.crash_node = -1;
    w.crash_t = 0;
    w.recover_t = 0;
  } else {
    if (w.crash_t > 100000) w.crash_t = 100000;
    if (w.recover_t != 0 && w.recover_t <= w.crash_t) {
      w.recover_t = w.crash_t + 1;
    }
    if (w.recover_t > 150000) w.recover_t = 150000;
  }
  return w;
}

ScenarioSpec parse_scenario(const std::string& text) {
  ScenarioSpec spec;
  spec.protocol = ProtocolParams::standard_can();

  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream line(raw);
    std::vector<std::string> tok;
    for (std::string t; line >> t;) tok.push_back(t);
    if (tok.empty()) continue;

    const std::string& cmd = tok[0];
    if (cmd == "name") {
      spec.name = tok.size() > 1 ? raw.substr(raw.find(tok[1])) : "";
    } else if (cmd == "protocol") {
      if (tok.size() < 2) fail(line_no, "protocol needs a variant");
      if (tok[1] == "can") {
        spec.protocol = ProtocolParams::standard_can();
      } else if (tok[1] == "minor") {
        spec.protocol = ProtocolParams::minor_can();
      } else if (tok[1] == "major") {
        const int m = tok.size() > 2
                          ? static_cast<int>(parse_uint(line_no, tok[2]))
                          : 5;
        spec.protocol = ProtocolParams::major_can(m);
      } else {
        fail(line_no, "unknown protocol: " + tok[1]);
      }
    } else if (cmd == "nodes") {
      if (tok.size() < 2) fail(line_no, "nodes needs a count");
      spec.n_nodes = static_cast<int>(parse_uint(line_no, tok[1]));
      if (spec.n_nodes < 2) fail(line_no, "need at least 2 nodes");
    } else if (cmd == "frame") {
      auto kv = parse_kv(line_no, tok, 1);
      if (kv.contains("id")) spec.frame_id = parse_uint(line_no, kv["id"]);
      if (kv.contains("dlc")) {
        spec.frame_dlc = static_cast<std::uint8_t>(parse_uint(line_no, kv["dlc"]));
      }
    } else if (cmd == "traffic") {
      auto kv = parse_kv(line_no, tok, 1);
      TrafficFrame t;
      if (kv.contains("id")) t.id = parse_uint(line_no, kv["id"]);
      if (kv.contains("dlc")) {
        t.dlc = static_cast<std::uint8_t>(parse_uint(line_no, kv["dlc"]));
      }
      if (kv.contains("node")) t.sender = parse_uint(line_no, kv["node"]);
      spec.traffic.push_back(t);
    } else if (cmd == "flip") {
      auto kv = parse_kv(line_no, tok, 1);
      // parse_fault_target (fault/scripted.hpp) validates the field set and
      // names the offending field; prefixing the line number here gives a
      // bad flip both coordinates.
      try {
        spec.flips.push_back(parse_fault_target(kv));
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else if (cmd == "attack") {
      if (tok.size() < 2) {
        fail(line_no, "attack needs a kind (glitch|busoff|spoof)");
      }
      auto kv = parse_kv(line_no, tok, 2);
      try {
        spec.attacks.push_back(parse_attack(tok[1], kv));
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
    } else if (cmd == "crash") {
      auto kv = parse_kv(line_no, tok, 1);
      if (!kv.contains("node") || !kv.contains("t")) {
        fail(line_no, "crash needs node= and t=");
      }
      spec.crash = {parse_uint(line_no, kv["node"]),
                    parse_uint(line_no, kv["t"])};
    } else if (cmd == "rsm") {
      auto kv = parse_kv(line_no, tok, 1);
      RsmWorkload w;
      if (kv.contains("commands")) {
        w.commands = parse_int(line_no, kv["commands"]);
      }
      if (kv.contains("payload")) w.payload = parse_int(line_no, kv["payload"]);
      if (kv.contains("k")) w.k = parse_int(line_no, kv["k"]);
      if (kv.contains("spacing")) w.spacing = parse_uint(line_no, kv["spacing"]);
      if (kv.contains("link")) {
        const std::string& l = kv["link"];
        if (l == "direct") {
          w.link = 0;
        } else if (l == "edcan") {
          w.link = 1;
        } else if (l == "relcan") {
          w.link = 2;
        } else if (l == "totcan") {
          w.link = 3;
        } else {
          fail(line_no, "unknown rsm link: " + l);
        }
      }
      if (kv.contains("crash")) w.crash_node = parse_int(line_no, kv["crash"]);
      if (kv.contains("crasht")) w.crash_t = parse_uint(line_no, kv["crasht"]);
      if (kv.contains("recovert")) {
        w.recover_t = parse_uint(line_no, kv["recovert"]);
      }
      if (w.crash_node < 0) {  // canonical: no crash means no crash times
        w.crash_node = -1;
        w.crash_t = 0;
        w.recover_t = 0;
      }
      spec.rsm = w;
    } else if (cmd == "expect") {
      if (tok.size() < 2) fail(line_no, "expect needs a verdict");
      if (tok[1] == "imo") {
        spec.expect = Expectation::Imo;
      } else if (tok[1] == "consistent") {
        spec.expect = Expectation::Consistent;
      } else if (tok[1] == "double") {
        spec.expect = Expectation::Double;
      } else if (tok[1] == "any") {
        spec.expect = Expectation::Any;
      } else {
        fail(line_no, "unknown expectation: " + tok[1]);
      }
    } else {
      fail(line_no, "unknown directive: " + cmd);
    }
  }
  return spec;
}

namespace {

std::string hex_id(std::uint32_t id) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", id);
  return buf;
}

std::string render_flip(const FaultTarget& f) {
  std::string s = "flip node=" + std::to_string(f.node);
  if (f.seg == Seg::Eof && f.index) {
    s += " eof=" + std::to_string(*f.index);
  } else if (f.eof_rel) {
    s += " eofrel=" + std::to_string(*f.eof_rel);
  } else if (f.seg == Seg::Body && f.index) {
    s += " body=" + std::to_string(*f.index);
  } else if (f.at) {
    s += " t=" + std::to_string(*f.at);
    return s;  // the t= form carries no frame index
  }
  if (f.frame_index && *f.frame_index != 0) {
    s += " frame=" + std::to_string(*f.frame_index);
  }
  return s;
}

}  // namespace

std::string write_scenario(const ScenarioSpec& spec,
                           const ScenarioWriteOptions& opts) {
  std::string s;
  for (const std::string& line : opts.header) s += "# " + line + "\n";
  if (!spec.name.empty()) s += "name " + spec.name + "\n";
  switch (spec.protocol.variant) {
    case Variant::StandardCan:
      s += "protocol can\n";
      break;
    case Variant::MinorCan:
      s += "protocol minor\n";
      break;
    case Variant::MajorCan:
      s += "protocol major " + std::to_string(spec.protocol.m) + "\n";
      break;
  }
  s += "nodes " + std::to_string(spec.n_nodes) + "\n";
  s += "frame id=" + hex_id(spec.frame_id) +
       " dlc=" + std::to_string(spec.frame_dlc) + "\n";
  for (const TrafficFrame& t : spec.traffic) {
    s += "traffic id=" + hex_id(t.id) + " dlc=" + std::to_string(t.dlc) +
         " node=" + std::to_string(t.sender) + "\n";
  }
  for (std::size_t i = 0; i < spec.flips.size(); ++i) {
    s += render_flip(spec.flips[i]);
    if (i < opts.flip_comments.size() && !opts.flip_comments[i].empty()) {
      s += "   # " + opts.flip_comments[i];
    }
    s += "\n";
  }
  for (const AttackSpec& a : spec.attacks) {
    s += "attack " + render_attack(a) + "\n";
  }
  if (spec.crash) {
    s += "crash node=" + std::to_string(spec.crash->first) +
         " t=" + std::to_string(spec.crash->second) + "\n";
  }
  if (spec.rsm) {
    const RsmWorkload& w = *spec.rsm;
    static const char* const kLinks[] = {"direct", "edcan", "relcan",
                                         "totcan"};
    s += "rsm commands=" + std::to_string(w.commands) +
         " payload=" + std::to_string(w.payload) +
         " k=" + std::to_string(w.k) +
         " spacing=" + std::to_string(w.spacing) + " link=" +
         kLinks[w.link >= 0 && w.link < 4 ? w.link : 0];
    if (w.crash_node >= 0) {
      s += " crash=" + std::to_string(w.crash_node) +
           " crasht=" + std::to_string(w.crash_t) +
           " recovert=" + std::to_string(w.recover_t);
    }
    s += "\n";
  }
  switch (spec.expect) {
    case Expectation::Any:
      s += "expect any\n";
      break;
    case Expectation::Consistent:
      s += "expect consistent\n";
      break;
    case Expectation::Imo:
      s += "expect imo\n";
      break;
    case Expectation::Double:
      s += "expect double\n";
      break;
  }
  return s;
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::invalid_argument("cannot open scenario file: " + path);
  std::stringstream buf;
  buf << f.rdbuf();
  ScenarioSpec spec = parse_scenario(buf.str());
  if (spec.name.empty()) spec.name = path;
  return spec;
}

std::vector<std::string> scenario_files(const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    if (!std::filesystem::is_directory(path)) {
      files.push_back(path);
      continue;
    }
    std::vector<std::string> found;
    for (const auto& e : std::filesystem::directory_iterator(path)) {
      if (e.path().extension() == ".scn") found.push_back(e.path().string());
    }
    std::sort(found.begin(), found.end());
    files.insert(files.end(), found.begin(), found.end());
  }
  return files;
}

DslRunResult run_scenario(const ScenarioSpec& spec,
                          const InvariantConfig& inv, bool trace) {
  if (spec.rsm) {
    throw std::invalid_argument(
        "scenario '" + spec.name +
        "' carries an rsm workload; run it through run_rsm_scenario or "
        "run_any_scenario (src/rsm/runner.hpp)");
  }
  Network net(spec.n_nodes, spec.protocol);
  if (trace) net.enable_trace();
  ScriptedFaults inj(spec.flips);
  AttackEngine attacker(spec.attacks);
  CompositeInjector faults;
  faults.add(inj);
  faults.add(attacker);
  net.set_injector(faults);
  if (spec.crash) net.sim().schedule_crash(spec.crash->first, spec.crash->second);

  InvariantScope invariants(net, inv);

  // Tagged journals for the AB1..AB5 verdict: senders journal their own
  // broadcasts at TxSuccess (the run_soak convention), receivers at
  // delivery.  A delivered frame whose tag does not parse is journaled
  // under a key that was never broadcast, so it surfaces as an AB4
  // non-triviality violation instead of disappearing.
  std::vector<BroadcastRecord> broadcasts;
  std::map<NodeId, DeliveryJournal> journals;
  for (int i = 0; i < spec.n_nodes; ++i) {
    journals.emplace(static_cast<NodeId>(i), DeliveryJournal{});
  }
  auto journal_tx = [&journals](NodeId sender) {
    auto& journal = journals.at(sender);
    return [&journal](const Frame& f, BitTime t) {
      if (auto tag = parse_tag(f)) journal.push_back({tag->key, t});
    };
  };

  const Frame frame =
      make_tagged_frame(spec.frame_id, MsgKind::Data, MessageKey{0, 1},
                        std::max<std::uint8_t>(4, spec.frame_dlc));
  net.node(0).enqueue(frame);
  net.node(0).add_tx_done_handler(journal_tx(0));
  broadcasts.push_back({MessageKey{0, 1}, 0});
  std::set<NodeId> journaling{0};
  for (std::size_t j = 0; j < spec.traffic.size(); ++j) {
    const TrafficFrame& t = spec.traffic[j];
    const auto sender =
        static_cast<NodeId>(t.sender % static_cast<NodeId>(spec.n_nodes));
    const MessageKey key{sender, static_cast<std::uint16_t>(100 + j)};
    net.node(static_cast<int>(sender))
        .enqueue(make_tagged_frame(t.id, MsgKind::Data, key,
                                   std::max<std::uint8_t>(4, t.dlc)));
    if (journaling.insert(sender).second) {
      net.node(static_cast<int>(sender)).add_tx_done_handler(journal_tx(sender));
    }
    broadcasts.push_back({key, sender});
  }
  // Spoofed frames are enqueued like traffic but deliberately NOT recorded
  // in `broadcasts`: a delivered spoof is a message no correct sender ever
  // broadcast, which is exactly what the AB4 non-triviality rule flags.
  std::set<MessageKey> spoofed;
  for (const AttackSpec& a : spec.attacks) {
    if (a.kind != AttackKind::Spoof) continue;
    const auto src = static_cast<int>(
        a.attacker % static_cast<std::uint32_t>(spec.n_nodes));
    for (const MessageKey& key : spoof_keys(a)) {
      net.node(src).enqueue(make_tagged_frame(a.id, MsgKind::Data, key,
                                              std::max<std::uint8_t>(4, a.dlc)));
      attacker.note_spoofed(1);
      spoofed.insert(key);
    }
  }
  const bool quiesced = net.run_until_quiet(30000);
  // run_until_quiet stops *before* an all-idle bit is ever recorded (the
  // predicate is checked pre-step), so the reconvergence rule would never
  // see an idle record.  Step a short cooldown so it does.
  for (int i = 0; i < 2 * spec.protocol.eof_bits(); ++i) net.sim().step();

  DslRunResult res;
  res.quiesced = quiesced;
  res.invariants = invariants.report();
  invariants.set_handler(nullptr);  // report travels in the result instead

  for (int i = 0; i < spec.n_nodes; ++i) {
    auto& journal = journals.at(static_cast<NodeId>(i));
    for (const Delivery& d : net.deliveries(i)) {
      if (auto tag = parse_tag(d.frame)) {
        if (spoofed.contains(tag->key)) attacker.note_spoof_delivered();
        journal.push_back({tag->key, d.t});
      } else {
        journal.push_back({MessageKey{255, 0xFFFF}, d.t});  // AB4 sentinel
      }
    }
    // Tx-done entries were journaled live, deliveries appended afterwards:
    // restore one true per-node event order for the AB5 comparison.
    std::stable_sort(journal.begin(), journal.end(),
                     [](const DeliveryEvent& a, const DeliveryEvent& b) {
                       return a.t < b.t;
                     });
  }
  std::set<NodeId> correct;
  for (int i = 0; i < spec.n_nodes; ++i) correct.insert(static_cast<NodeId>(i));
  if (spec.crash) correct.erase(spec.crash->first);
  res.ab = check_atomic_broadcast(broadcasts, journals, correct);

  res.outcome.name = spec.name.empty() ? "scenario" : spec.name;
  res.outcome.protocol = spec.protocol;
  res.outcome.tx_node = 0;
  res.outcome.n_nodes = spec.n_nodes;
  res.outcome.deliveries.assign(static_cast<std::size_t>(spec.n_nodes), 0);
  for (int i = 0; i < spec.n_nodes; ++i) {
    res.outcome.deliveries[static_cast<std::size_t>(i)] =
        static_cast<int>(net.deliveries(i).size());
  }
  res.outcome.tx_success =
      static_cast<int>(net.log().count(EventKind::TxSuccess, 0));
  res.outcome.tx_attempts =
      static_cast<int>(net.log().count(EventKind::SofSent, 0));
  res.outcome.tx_crashed = spec.crash.has_value();
  res.outcome.faults_all_fired = inj.all_fired();
  if (trace) res.outcome.trace = net.trace().render(net.labels());

  // The injector never observes a victim's terminal state (a bus-off node
  // stops driving bits), so the verdict comes from the controller itself.
  for (NodeId v : attacker.busoff_victims()) {
    if (static_cast<int>(v) >= spec.n_nodes) continue;
    const CanController& victim = net.node(static_cast<int>(v));
    attacker.finalize_victim(v, victim.fc_state() == FcState::BusOff,
                             victim.tec());
  }
  res.attack = attacker.report();

  switch (spec.expect) {
    case Expectation::Any:
      res.expectation_met = true;
      res.expectation_text = "(no expectation)";
      break;
    case Expectation::Imo:
      res.expectation_met = res.outcome.imo();
      res.expectation_text = "expected inconsistent message omission";
      break;
    case Expectation::Consistent:
      res.expectation_met =
          !res.outcome.imo() && !res.outcome.double_reception();
      res.expectation_text = "expected consistency";
      break;
    case Expectation::Double:
      res.expectation_met = res.outcome.double_reception();
      res.expectation_text = "expected double reception";
      break;
  }
  return res;
}

}  // namespace mcan
