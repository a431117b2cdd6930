#include "scenario/probe.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "analysis/tagged.hpp"
#include "frame/encoder.hpp"
#include "sim/kernel.hpp"
#include "util/contract.hpp"
#include "util/statekey.hpp"

namespace mcan {

Frame model_check_frame() {
  return make_tagged_frame(0x100, MsgKind::Data, MessageKey{0, 1});
}

int model_check_eof_start(const ProtocolParams& protocol) {
  const Frame frame = model_check_frame();
  return wire_length(frame, protocol.eof_bits()) - protocol.eof_bits();
}

void check_probe_window(const ProtocolParams& protocol, int win_lo_rel,
                        int win_hi_rel) {
  if (win_lo_rel > win_hi_rel) {
    throw std::invalid_argument(
        "flip window: empty: win_lo_rel (" + std::to_string(win_lo_rel) +
        ") > win_hi_rel (" + std::to_string(win_hi_rel) + ")");
  }
  const int end_horizon =
      (protocol.variant == Variant::MajorCan ? protocol.sample_end()
                                             : protocol.eof_bits() - 1) +
      protocol.error_delim_total() + 3;
  if (win_hi_rel > end_horizon) {
    throw std::invalid_argument(
        "flip window: win_hi_rel (" + std::to_string(win_hi_rel) +
        ") is past the end-game horizon (" + std::to_string(end_horizon) +
        ") for " + protocol.name());
  }
  const int eof_start = model_check_eof_start(protocol);
  if (win_lo_rel < -eof_start) {
    throw std::invalid_argument(
        "flip window: win_lo_rel (" + std::to_string(win_lo_rel) +
        ") starts before the probe frame (EOF-relative " +
        std::to_string(-eof_start) + " is bit time 0)");
  }
}

ProbeEpisode ProbeEpisode::make(const ProtocolParams& protocol, int n_nodes,
                                int win_lo_rel, int win_hi_rel) {
  ProbeEpisode ep;
  ep.protocol = protocol;
  ep.n_nodes = n_nodes;
  ep.frame = model_check_frame();
  ep.eof_start = model_check_eof_start(protocol);
  ep.win_lo_rel = win_lo_rel;
  ep.win_hi_rel = win_hi_rel;
  ep.t_first = static_cast<BitTime>(ep.eof_start + win_lo_rel);
  return ep;
}

void ProbeCounts::add(const Network& net) {
  const auto n = static_cast<std::size_t>(net.size());
  deliveries.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    deliveries[i] +=
        static_cast<int>(net.deliveries(static_cast<int>(i)).size());
  }
  tx_success += static_cast<int>(net.log().count(EventKind::TxSuccess, 0));
}

void ProbeCounts::add(const ProbeCounts& earlier) {
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    deliveries[i] += earlier.deliveries[i];
  }
  tx_success += earlier.tx_success;
}

PrefixState::PrefixState(const ProbeEpisode& episode)
    : net(episode.n_nodes, episode.protocol) {
  net.node(0).enqueue(episode.frame);
  if (episode.t_first > 0) {
    // The reference stop rule: one step, then quiet() before every step.
    // A flip can first land in the step taken at t_first.
    net.sim().step();
    while (!(quiet_before_window = net.quiet()) &&
           net.sim().now() < episode.t_first) {
      net.sim().step();
    }
  }
  counts.add(net);
}

void clone_bus(const Network& src, Network& fresh) {
  for (int i = 0; i < src.size(); ++i) {
    fresh.node(i).clone_runtime_state(src.node(i));
  }
  fresh.sim().warp_to(src.sim().now());
}

namespace {

/// The calling thread's episode bus and the kernel it was built under.
struct EpisodeBus {
  std::unique_ptr<Network> net;
  KernelKind kernel = KernelKind::Ref;
  bool in_use = false;
};

EpisodeBus& thread_episode_bus() {
  thread_local EpisodeBus bus;
  return bus;
}

}  // namespace

EpisodeRun::EpisodeRun(const ProbeEpisode& episode,
                       const PrefixState* prefix) {
  if (prefix == nullptr || prefix->quiet_before_window) {
    net_ = &fresh_.emplace(episode.n_nodes, episode.protocol);
    net_->node(0).enqueue(episode.frame);
    return;
  }
  EpisodeBus& bus = thread_episode_bus();
  if (bus.in_use) {
    throw std::logic_error("EpisodeRun: this thread's episode bus is in use");
  }
  const KernelKind kernel = default_kernel();
  if (bus.net == nullptr || bus.net->size() != episode.n_nodes ||
      bus.net->node(0).protocol() != episode.protocol ||
      bus.kernel != kernel) {
    bus.net = std::make_unique<Network>(episode.n_nodes, episode.protocol);
    bus.kernel = kernel;
  } else {
    bus.net->restart();
  }
  net_ = bus.net.get();
  clone_bus(prefix->net, *net_);
  bus.in_use = true;
}

EpisodeRun::~EpisodeRun() {
  net_->sim().clear_injector();
  if (cloned()) thread_episode_bus().in_use = false;
}

ProbeVerdict classify_probe(const std::vector<int>& deliveries,
                            bool sender_has, bool timeout) {
  ProbeVerdict v;
  if (timeout) {
    v.timeout = true;
    return v;
  }
  bool any = false;
  bool all = true;
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    const int c = deliveries[i];
    if (c > 0) any = true;
    if (c == 0) all = false;
    if (c > 1) v.dup = true;
  }
  v.imo = (any || sender_has) && !all;
  v.loss = !any && sender_has;
  return v;
}

std::string describe_probe(const ProbeVerdict& verdict,
                           const std::vector<int>& deliveries) {
  if (verdict.timeout) return "TIMEOUT";
  if (!verdict.imo && !verdict.dup) {
    return verdict.loss ? "total loss (tx believed success)" : "";
  }
  std::string s =
      verdict.imo ? "IMO: deliveries" : "double reception: deliveries";
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    s += " " + std::to_string(deliveries[i]);
  }
  return s;
}

const TailDelta* TailMemo::lookup(const std::string& key) {
  Shard& s = shard(key);
  MutexLock lock(s.mu);
  const auto it = s.map.find(key);
  if (it == s.map.end()) {
    ++s.misses;
    return nullptr;
  }
  ++s.hits;
  return &it->second;
}

void TailMemo::insert(std::string key, TailDelta delta) {
  Shard& s = shard(key);
  MutexLock lock(s.mu);
  s.map.emplace(std::move(key), std::move(delta));
}

TailMemoStats TailMemo::stats() const {
  TailMemoStats st;
  for (const Shard& s : shards_) {
    MutexLock lock(s.mu);
    st.hits += s.hits;
    st.misses += s.misses;
    st.entries += s.map.size();
  }
  return st;
}

TailMemo::Shard& TailMemo::shard(const std::string& key) {
  // Shard choice only spreads lock contention; memo hits/values are
  // identical whichever shard holds a key, so the hash value never
  // influences reported output.
  // mcan-analyze: allow(nondet-hash) shard index never reaches output
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

namespace {

/// Per-thread buffers for building keys, so a case allocates only its key.
struct KeyScratch {
  std::string states;              ///< every node's append_state, in order
  std::vector<std::size_t> ends;   ///< end of node i's span in `states`
  std::vector<std::size_t> order;  ///< receivers, sorted by state
  std::vector<int> group_of;       ///< receiver group per node (0 for node 0)
  int groups = 0;
};

/// Length-prefixed, so concatenated spans cannot be re-split ambiguously.
void append_span(std::string& key, std::string_view s) {
  statekey::append(key, s.size());
  key.append(s);
}

/// The receiver-canonical key of the bus, plus the tail's remaining
/// budget: node 0's state, then each distinct receiver state in sorted
/// order with its multiplicity.  Fills the scratch's receiver groups.
std::string canonical_key(const Network& net, BitTime remaining,
                          KeyScratch& sc) {
  const auto n = static_cast<std::size_t>(net.size());
  sc.states.clear();
  sc.ends.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    net.node(static_cast<int>(i)).append_state(sc.states);
    sc.ends[i] = sc.states.size();
  }
  const std::string_view all = sc.states;
  const auto state = [&](std::size_t i) {
    const std::size_t begin = i == 0 ? 0 : sc.ends[i - 1];
    return all.substr(begin, sc.ends[i] - begin);
  };

  sc.order.resize(n - 1);
  std::iota(sc.order.begin(), sc.order.end(), std::size_t{1});
  std::sort(sc.order.begin(), sc.order.end(),
            [&](std::size_t a, std::size_t b) { return state(a) < state(b); });

  // Group equal states and size the key exactly: it is stored on a miss.
  sc.group_of.assign(n, 0);
  sc.groups = 0;
  std::size_t size = sizeof(remaining) + sizeof(std::size_t) + state(0).size();
  for (std::size_t k = 0; k < sc.order.size(); ++sc.groups) {
    const std::string_view s = state(sc.order[k]);
    for (; k < sc.order.size() && state(sc.order[k]) == s; ++k) {
      sc.group_of[sc.order[k]] = sc.groups;
    }
    size += 2 * sizeof(std::size_t) + s.size();
  }

  std::string key;
  key.reserve(size);
  statekey::append(key, remaining);
  append_span(key, state(0));
  for (std::size_t k = 0; k < sc.order.size();) {
    const std::string_view s = state(sc.order[k]);
    std::size_t j = k;
    while (j < sc.order.size() && state(sc.order[j]) == s) ++j;
    append_span(key, s);
    statekey::append(key, j - k);
    k = j;
  }
  return key;
}

/// Step until quiet() holds before a step (true) or the clock reaches
/// `until` (false).
bool step_until_quiet(Network& net, BitTime until) {
  while (net.sim().now() < until) {
    if (net.quiet()) return true;
    net.sim().step();
  }
  return false;
}

void count_on_bus(const Network& net, RunEnd& end) {
  end.deliveries.assign(static_cast<std::size_t>(net.size()), 0);
  end.tx_success = 0;
  end.add(net);
}

}  // namespace

RunEnd finish_run(Network& net, BitTime run_start, BitTime budget,
                  TailMemo* memo, BitTime t_cut,
                  const std::function<long long()>& draws) {
  Simulator& sim = net.sim();
  const BitTime deadline = run_start + 1 + budget;
  if (sim.now() == run_start) sim.step();
  MCAN_ASSERT(sim.now() <= t_cut || memo == nullptr,
              "finish_run: the bus is already past the cut");

  RunEnd end;
  if (memo == nullptr || t_cut >= deadline ||
      step_until_quiet(net, t_cut)) {
    end.quiet = step_until_quiet(net, deadline) || net.quiet();
    count_on_bus(net, end);
    return end;
  }

  // At the cut: everything from here on is a function of the key.
  thread_local KeyScratch scratch;
  std::string key = canonical_key(net, deadline - t_cut, scratch);
  const std::vector<int>& group_of = scratch.group_of;
  count_on_bus(net, end);
  if (const TailDelta* hit = memo->lookup(key)) {
    end.deliveries[0] += hit->deliveries[0];
    for (std::size_t i = 1; i < end.deliveries.size(); ++i) {
      end.deliveries[i] +=
          hit->deliveries[1 + static_cast<std::size_t>(group_of[i])];
    }
    end.tx_success += hit->tx_success;
    end.quiet = !hit->timeout;
    end.skipped_draws = hit->draws;
    return end;
  }

  const RunEnd at_cut = end;
  const long long draws_at_cut = draws ? draws() : 0;
  end.quiet = step_until_quiet(net, deadline) || net.quiet();
  count_on_bus(net, end);

  TailDelta delta;
  delta.deliveries.assign(1 + static_cast<std::size_t>(scratch.groups), 0);
  const auto tail_of = [&](std::size_t i) {
    return end.deliveries[i] - at_cut.deliveries[i];
  };
  delta.deliveries[0] = tail_of(0);
  for (std::size_t i = 1; i < end.deliveries.size(); ++i) {
    delta.deliveries[1 + static_cast<std::size_t>(group_of[i])] = tail_of(i);
  }
  for (std::size_t i = 1; i < end.deliveries.size(); ++i) {
    MCAN_ASSERT(
        delta.deliveries[1 + static_cast<std::size_t>(group_of[i])] ==
            tail_of(i),
        "receivers in equal states must have equal tails");
  }
  delta.tx_success = end.tx_success - at_cut.tx_success;
  delta.timeout = !end.quiet;
  delta.draws = draws ? draws() - draws_at_cut : 0;
  memo->insert(std::move(key), std::move(delta));
  return end;
}

}  // namespace mcan
