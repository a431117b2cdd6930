#include "scenario/tail_memo.hpp"

#include <algorithm>
#include <numeric>
#include <string_view>

#include "util/contract.hpp"
#include "util/statekey.hpp"

namespace mcan {

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

void count_on_bus(Network& net, RunEnd& end) {
  const auto n = static_cast<std::size_t>(net.size());
  end.deliveries.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    end.deliveries[i] =
        static_cast<int>(net.deliveries(static_cast<int>(i)).size());
  }
  end.tx_success = static_cast<int>(net.log().count(EventKind::TxSuccess, 0));
}

}  // namespace

RunEnd finish_run(Network& net, BitTime run_start, BitTime budget,
                  BitTime t_cut, TailMemo* memo,
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
