// The tail memo: one exact prefix-skip mechanism for the model checker and
// the rare-event engine.
//
// Both engines run many short variations of one probe episode: a clean
// frame prefix (cloned from a template bus), a flip window where the case
// or trial differs, and a tail from the window's end ("the cut") to
// quiescence.  Past the cut nothing can flip any more, so the tail is a
// deterministic function of the controllers' machine state at the cut.
// finish_run() steps the window, keys the bus state at the cut, and takes
// the tail from the memo when an equal state was already simulated.
//
// The key is receiver-canonical: node 0's state (the transmitter), then
// each distinct receiver state in sorted order with its multiplicity.
// Receivers 1..n-1 share their configuration and have empty queues, so
// equal states have equal futures and relabelling receivers only permutes
// the tail.  The memo therefore stores delivery deltas per receiver group
// and maps them back to node positions on a hit.  docs/MODEL_CHECKING.md
// and docs/RARE_EVENTS.md carry the exactness argument.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/network.hpp"
#include "util/mutex.hpp"

namespace mcan {

/// What happens between the cut and the end of the run, as count deltas.
struct TailDelta {
  /// [0] = node 0, then one entry per receiver group in key order.
  std::vector<int> deliveries;
  int tx_success = 0;    ///< node 0's TxSuccess events
  bool timeout = false;  ///< the budget ran out before quiescence
  long long draws = 0;   ///< injector calls made in the tail
};

struct TailMemoStats {
  long long hits = 0;
  long long misses = 0;
  std::size_t entries = 0;
};

/// Sharded exact-key memo of simulation tails.  Keys are exact
/// serializations, so equal keys mean identical futures (no hash-collision
/// risk: the map compares full keys on lookup).  Thread-safe.
class TailMemo {
 public:
  /// The stored tail on a hit, else null.  Counts the hit or miss.
  /// Entries are never changed or erased, so the pointer stays valid for
  /// the memo's lifetime.
  [[nodiscard]] const TailDelta* lookup(const std::string& key);

  void insert(std::string key, TailDelta delta);

  [[nodiscard]] TailMemoStats stats() const;

 private:
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<std::string, TailDelta> map MCAN_GUARDED_BY(mu);
    long long hits MCAN_GUARDED_BY(mu) = 0;
    long long misses MCAN_GUARDED_BY(mu) = 0;
  };

  Shard& shard(const std::string& key);

  std::array<Shard, 16> shards_;
};

/// How one run ended, counted on the finishing bus itself (its delivery
/// journals and event log; a caller that cloned a prefix adds the
/// prefix's counts).
struct RunEnd {
  std::vector<int> deliveries;  ///< per node
  int tx_success = 0;           ///< node 0's TxSuccess events
  bool quiet = false;           ///< quiesced within the budget
  long long skipped_draws = 0;  ///< tail injector calls a memo hit stood in for
};

/// Finish a run that behaves as `net.run_until_quiet(budget)` called at
/// bit time `run_start`: one unconditional step, then Network::quiet()
/// before every step, up to `run_start + 1 + budget`.  The bus may already
/// be past `run_start` (a cloned prefix) provided quiet() was false at
/// every bit in between, and must not be past `t_cut`.
///
/// With a memo, the run is stepped to `t_cut` (the first bit after the
/// last possible flip), then the tail is taken from the memo, or simulated
/// and inserted on a miss.  `draws`, when set, reads the installed
/// injector's call count, so the memo can record the tail's draws.  A memo
/// must only serve runs whose injector cannot flip at or after `t_cut`.
[[nodiscard]] RunEnd finish_run(Network& net, BitTime run_start,
                                BitTime budget, BitTime t_cut,
                                TailMemo* memo,
                                const std::function<long long()>& draws = {});

}  // namespace mcan
