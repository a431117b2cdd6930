// The probe episode: the one experiment the model checker, the rare-event
// engine and the randomised EOF campaign all measure.  Node 0 broadcasts
// one tagged frame to N-1 receivers; flips land in an EOF-relative window
// of its end-game; the run ends at quiescence (or when the budget runs
// out) and is judged by its IMO / double-reception / total-loss verdict.
// This module owns every piece of it the engines share:
//
//   * the episode (ProbeEpisode): probe frame, EOF anchor, flip window,
//     clone point and quiet budget, with one window rule for every engine;
//   * the clean-prefix template (PrefixState) and the bus clone
//     (clone_bus): the bus is stepped fault-free to the window once, and
//     each run starts from a copy of its machine state;
//   * the tail memo (TailMemo, finish_run): past the window's end ("the
//     cut") nothing can flip any more, so the tail is a deterministic
//     function of the controllers' machine state there.  finish_run()
//     steps the window, keys the bus state at the cut, and takes the tail
//     from the memo when an equal state was already simulated;
//   * the verdict (classify_probe).
//
// The memo key is receiver-canonical: node 0's state (the transmitter),
// then each distinct receiver state in sorted order with its multiplicity.
// Receivers 1..n-1 share their configuration and have empty queues, so
// equal states have equal futures and relabelling receivers only permutes
// the tail.  The memo therefore stores delivery deltas per receiver group
// and maps them back to node positions on a hit.  docs/MODEL_CHECKING.md
// and docs/RARE_EVENTS.md carry the exactness argument.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/network.hpp"
#include "frame/frame.hpp"
#include "util/mutex.hpp"

namespace mcan {

/// Bit times a probe run may take to quiesce before it counts as a timeout.
inline constexpr BitTime kProbeQuietBudget = 30000;

/// The probe frame every episode transmits (also what .scn exports replay).
[[nodiscard]] Frame model_check_frame();

/// Absolute bit time of the probe frame's first EOF bit on a clean bus —
/// the anchor that converts EOF-relative flip positions to the absolute
/// times used by the injectors and by .scn exports.
[[nodiscard]] int model_check_eof_start(const ProtocolParams& protocol);

/// The window rule every engine applies to an EOF-relative flip window
/// [win_lo_rel, win_hi_rel].  Throws std::invalid_argument on an empty
/// window, one reaching past the end-game horizon (beyond the delimiter +
/// intermission everything is bus-idle and a flip would hit the
/// retransmission instead of the episode), or one starting before the
/// probe frame itself.
void check_probe_window(const ProtocolParams& protocol, int win_lo_rel,
                        int win_hi_rel);

/// One probe episode's geometry.  The engines extend it: the model checker
/// with its flip slots, the rare-event engine with its proposal.
struct ProbeEpisode {
  ProtocolParams protocol;
  int n_nodes = 2;
  Frame frame;                ///< model_check_frame()
  int eof_start = 0;          ///< absolute bit of the first EOF bit
  int win_lo_rel = 0;         ///< flip window, EOF-relative, inclusive
  int win_hi_rel = 0;
  BitTime t_first = 0;        ///< clone point (0 = simulate from bit 0)
  BitTime quiet_budget = kProbeQuietBudget;

  /// The episode with flips confined to [win_lo_rel, win_hi_rel] and the
  /// clone point at the window's first bit.  Does not check the window
  /// (check_probe_window does).
  [[nodiscard]] static ProbeEpisode make(const ProtocolParams& protocol,
                                         int n_nodes, int win_lo_rel,
                                         int win_hi_rel);

  /// The first bit after the flip window: the memo's cut.
  [[nodiscard]] BitTime t_cut() const {
    return static_cast<BitTime>(eof_start + win_hi_rel + 1);
  }
};

/// What the verdict reads off a run: per-node delivery counts and node 0's
/// TxSuccess count.
struct ProbeCounts {
  std::vector<int> deliveries;  ///< per node; [0] is the transmitter
  int tx_success = 0;

  /// Add `net`'s delivery journals and node 0's TxSuccess events.
  void add(const Network& net);
  /// Add the counts of an earlier segment of the same run.
  void add(const ProbeCounts& earlier);
};

/// The clean-prefix template: a bus stepped without faults towards the
/// episode's clone point under the reference stop rule (one step, then
/// Network::quiet() before every step).  Immutable after construction;
/// safe to clone from concurrently.
struct PrefixState {
  Network net;
  ProbeCounts counts;  ///< accumulated in the prefix
  /// The clean bus went quiet at or before t_first, where the reference
  /// run stops: a clone would simulate flips that run never sees, so runs
  /// start from bit 0 instead (and `net` stopped where it went quiet).
  bool quiet_before_window = false;

  explicit PrefixState(const ProbeEpisode& episode);
};

/// Put `fresh` — a freshly constructed or restarted (Network::restart)
/// bus of the same size and protocol — into `src`'s runtime state at
/// `src`'s bit time.  Journals and the event log are not copied: they
/// restart empty at the clone point.
void clone_bus(const Network& src, Network& fresh);

/// One run of the episode, for the lifetime of this object.  With a usable
/// `prefix` the run starts from a clone of it at t_first on the calling
/// thread's episode bus: one Network per thread, kept for the next run and
/// rebuilt only when the episode's size or protocol or the default kernel
/// differ, else put back into a fresh bus's state by Network::restart plus
/// clone_bus.  Without one it starts on a freshly constructed bus with the
/// probe frame enqueued at bit 0.  On destruction the bus drops its
/// injector, so it never holds a pointer into a finished run.  A thread
/// runs one cloned episode at a time (nesting throws std::logic_error).
class EpisodeRun {
 public:
  EpisodeRun(const ProbeEpisode& episode, const PrefixState* prefix);
  ~EpisodeRun();

  EpisodeRun(const EpisodeRun&) = delete;
  EpisodeRun& operator=(const EpisodeRun&) = delete;

  [[nodiscard]] Network& net() const { return *net_; }
  /// True when the run started from the prefix clone.
  [[nodiscard]] bool cloned() const { return !fresh_.has_value(); }

 private:
  std::optional<Network> fresh_;
  Network* net_ = nullptr;
};

/// The reference verdict.  `deliveries` holds the per-node delivery counts
/// (index 0, the transmitter, is ignored); `sender_has` whether the
/// transmitter counts as having the message.
struct ProbeVerdict {
  bool imo = false;      ///< someone (or the sender) has it, someone lacks it
  bool dup = false;      ///< some receiver delivered it twice
  bool loss = false;     ///< the sender has it, no receiver does
  bool timeout = false;  ///< the bus did not quiesce (nothing else is set)

  [[nodiscard]] bool violation() const {
    return imo || dup || loss || timeout;
  }
};

[[nodiscard]] ProbeVerdict classify_probe(const std::vector<int>& deliveries,
                                          bool sender_has, bool timeout);

/// The verdict as text ("IMO: deliveries 0 1"); empty for a clean run.
[[nodiscard]] std::string describe_probe(const ProbeVerdict& verdict,
                                         const std::vector<int>& deliveries);

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

/// How one run ended, counted on the finishing bus itself (a caller that
/// cloned a prefix adds the prefix's counts).
struct RunEnd : ProbeCounts {
  bool quiet = false;           ///< quiesced within the budget
  long long skipped_draws = 0;  ///< tail injector calls a memo hit stood in for
};

/// Finish a run that behaves as `net.run_until_quiet(budget)` called at
/// bit time `run_start`: one unconditional step, then Network::quiet()
/// before every step, up to `run_start + 1 + budget`.  The bus may already
/// be past `run_start` (a cloned prefix) provided quiet() was false at
/// every bit in between.
///
/// With a memo, the run is stepped to `t_cut` (the first bit after the
/// last possible flip; the bus must not be past it), then the tail is
/// taken from the memo, or simulated and inserted on a miss.  `draws`,
/// when set, reads the installed injector's call count, so the memo can
/// record the tail's draws.  A memo must only serve runs whose injector
/// cannot flip at or after `t_cut`.
[[nodiscard]] RunEnd finish_run(Network& net, BitTime run_start,
                                BitTime budget, TailMemo* memo = nullptr,
                                BitTime t_cut = 0,
                                const std::function<long long()>& draws = {});

}  // namespace mcan
