#include "sim/kernel.hpp"

#include <atomic>

namespace mcan {

namespace {
std::atomic<int> g_kernel{static_cast<int>(KernelKind::Ref)};
}  // namespace

KernelKind default_kernel() {
  return static_cast<KernelKind>(g_kernel.load(std::memory_order_relaxed));
}

void set_default_kernel(KernelKind k) {
  g_kernel.store(static_cast<int>(k), std::memory_order_relaxed);
}

const char* kernel_name(KernelKind k) {
  return k == KernelKind::Fast ? "fast" : "ref";
}

std::optional<KernelKind> parse_kernel_name(const std::string& token) {
  if (token == "ref" || token == "reference") return KernelKind::Ref;
  if (token == "fast") return KernelKind::Fast;
  return std::nullopt;
}

BoundOption kernel_option() {
  static const OptionInfo info{"--kernel", "", "", "K",
                               "bit engine: ref (reference loop) or fast\n"
                               "(event-skipping, certified bit-identical)"};
  return {&info,
          [](const std::string& value, bool) -> std::string {
            const std::optional<KernelKind> kind = parse_kernel_name(value);
            if (!kind) return "'" + value + "' is not ref|fast";
            set_default_kernel(*kind);
            return {};
          },
          [] { return std::string(kernel_name(default_kernel())); }};
}

}  // namespace mcan
