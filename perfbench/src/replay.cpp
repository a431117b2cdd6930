// Staged replay of a fixed sample of fuzz_can8 inputs, built bus by bus
// the way run_scenario builds them (Network + ScriptedFaults), so each
// observer's share of the per-bit cost can be read off separately:
//
//   bare        injector only              -> sim.step_ns_per_bit
//   trace       + enable_trace             -> sim.trace_ns_per_bit
//   invariants  + InvariantScope           -> analysis.invariants_ns_per_bit
//   render      TraceRecorder::render      -> sim.render_us
//   ab_check    check_atomic_broadcast     -> analysis.ab_check_us
//   scenario    run_scenario, whole        -> scenario.run_scenario_us
#include <map>
#include <set>

#include "analysis/invariants.hpp"
#include "analysis/properties.hpp"
#include "analysis/tagged.hpp"
#include "core/network.hpp"
#include "fault/scripted.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

enum class Observers { kNone, kTrace, kTraceAndInvariants };

/// Enqueue the probe frame and the traffic mix exactly as run_scenario
/// does; returns the broadcast records for the AB check.
std::vector<mcan::BroadcastRecord> load_bus(mcan::Network& net,
                                            const mcan::ScenarioSpec& spec) {
  std::vector<mcan::BroadcastRecord> broadcasts;
  net.node(0).enqueue(mcan::make_tagged_frame(
      spec.frame_id, mcan::MsgKind::Data, mcan::MessageKey{0, 1},
      std::max<std::uint8_t>(4, spec.frame_dlc)));
  broadcasts.push_back({mcan::MessageKey{0, 1}, 0});
  for (std::size_t j = 0; j < spec.traffic.size(); ++j) {
    const mcan::TrafficFrame& t = spec.traffic[j];
    const auto sender = static_cast<mcan::NodeId>(
        t.sender % static_cast<mcan::NodeId>(spec.n_nodes));
    const mcan::MessageKey key{sender, static_cast<std::uint16_t>(100 + j)};
    net.node(static_cast<int>(sender))
        .enqueue(mcan::make_tagged_frame(t.id, mcan::MsgKind::Data, key,
                                         std::max<std::uint8_t>(4, t.dlc)));
    broadcasts.push_back({key, sender});
  }
  return broadcasts;
}

/// Run one input to quiescence (plus run_scenario's cooldown) under a
/// span; returns the simulated bit count.
long long run_stage(Tracer& tr, const char* span, mcan::Network& net,
                    const mcan::ScenarioSpec& spec) {
  Scoped s(&tr, span);
  (void)net.run_until_quiet(30000);
  for (int i = 0; i < 2 * spec.protocol.eof_bits(); ++i) net.sim().step();
  return static_cast<long long>(net.sim().now());
}

long long replay_one(Tracer& tr, const mcan::ScenarioSpec& spec,
                     Observers obs, const char* span, bool tail_stages) {
  mcan::Network net(spec.n_nodes, spec.protocol);
  if (obs != Observers::kNone) net.enable_trace();
  mcan::ScriptedFaults inj(spec.flips);
  net.set_injector(inj);
  if (spec.crash) net.sim().schedule_crash(spec.crash->first, spec.crash->second);
  std::optional<mcan::InvariantScope> invariants;
  if (obs == Observers::kTraceAndInvariants) invariants.emplace(net);
  const std::vector<mcan::BroadcastRecord> broadcasts = load_bus(net, spec);
  const long long bits = run_stage(tr, span, net, spec);
  if (invariants) invariants->set_handler(nullptr);
  if (!tail_stages) return bits;

  {
    Scoped s(&tr, "replay.render");
    (void)net.trace().render(net.labels());
  }
  std::map<mcan::NodeId, mcan::DeliveryJournal> journals;
  std::set<mcan::NodeId> correct;
  for (int i = 0; i < spec.n_nodes; ++i) {
    auto& journal = journals[static_cast<mcan::NodeId>(i)];
    for (const mcan::Delivery& d : net.deliveries(i)) {
      if (auto tag = mcan::parse_tag(d.frame)) journal.push_back({tag->key, d.t});
    }
    if (!spec.crash || spec.crash->first != static_cast<mcan::NodeId>(i)) {
      correct.insert(static_cast<mcan::NodeId>(i));
    }
  }
  Scoped s(&tr, "replay.ab_check");
  (void)mcan::check_atomic_broadcast(broadcasts, journals, correct);
  return bits;
}

}  // namespace

void replay_layers(const Args& a, Report& r, Tracer& tr,
                   const std::vector<mcan::ScenarioSpec>& sample) {
  const int passes = a.smoke ? 1 : 4;
  double bits = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (const mcan::ScenarioSpec& spec : sample) {
      bits += static_cast<double>(
          replay_one(tr, spec, Observers::kNone, "replay.bare", false));
      (void)replay_one(tr, spec, Observers::kTrace, "replay.trace", false);
      (void)replay_one(tr, spec, Observers::kTraceAndInvariants,
                       "replay.invariants", true);
      Scoped s(&tr, "replay.run_scenario");
      (void)mcan::run_scenario(spec);
    }
  }
  const double n = static_cast<double>(passes) *
                   static_cast<double>(std::max<std::size_t>(sample.size(), 1));
  const double bare = tr.total_s("replay.bare");
  const double trace = tr.total_s("replay.trace");
  const double inv = tr.total_s("replay.invariants");
  r.metric("sim.step_ns_per_bit", bare / bits * 1e9, "ns");
  r.metric("sim.trace_ns_per_bit", (trace - bare) / bits * 1e9, "ns");
  r.metric("analysis.invariants_ns_per_bit", (inv - trace) / bits * 1e9, "ns");
  r.metric("sim.render_us", us(tr.total_s("replay.render") / n), "us");
  r.metric("analysis.ab_check_us", us(tr.total_s("replay.ab_check") / n), "us");
  r.metric("scenario.run_scenario_us",
           us(tr.total_s("replay.run_scenario") / n), "us");
}

}  // namespace pb
