// The process's cooperative stop flag.
//
// SIGINT and SIGTERM ask a long run to stop, not to die: the engines poll
// the flag (FuzzConfig::stop, RareConfig::stop, the model checkers' stop
// pointers, the serve daemon's run loop), finish the unit of work in
// flight, and the command flushes what it has before exiting 130 (the
// daemon: after a final journal snapshot).
#pragma once

#include <atomic>

namespace mcan {

/// Raise stop_flag() on SIGINT and SIGTERM from now on.
void install_stop_handlers();

/// Raised by SIGINT/SIGTERM once install_stop_handlers() has run.  Safe to
/// poll from any thread.
[[nodiscard]] const std::atomic<bool>& stop_flag();

}  // namespace mcan
