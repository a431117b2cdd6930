#include "util/stop.hpp"

#include <csignal>

namespace mcan {

namespace {

// A lock-free atomic is the one flag type that is both async-signal-safe
// to store ([support.signal]) and safe for worker threads to poll
// (volatile sig_atomic_t would be a cross-thread data race).
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler requires a lock-free stop flag");

void on_stop_signal(int) { g_stop.store(true); }

}  // namespace

void install_stop_handlers() {
  for (const int sig : {SIGINT, SIGTERM}) std::signal(sig, on_stop_signal);
}

const std::atomic<bool>& stop_flag() { return g_stop; }

}  // namespace mcan
