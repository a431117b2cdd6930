#include "core/network.hpp"

#include "sim/fast/fast_kernel.hpp"
#include "sim/kernel.hpp"

namespace mcan {

Network::Network(int n, const ProtocolParams& protocol,
                 const FaultConfinementConfig& fc) {
  deliveries_.resize(static_cast<std::size_t>(n));
  nodes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ControllerConfig cfg;
    cfg.id = static_cast<NodeId>(i);
    cfg.protocol = protocol;
    cfg.fc = fc;
    auto node = std::make_unique<CanController>(cfg, log_);
    auto& journal = deliveries_[static_cast<std::size_t>(i)];
    node->add_delivery_handler(
        [&journal](const Frame& f, BitTime t) { journal.push_back({f, t}); });
    sim_.attach(*node);
    nodes_.push_back(std::move(node));
  }
  install_default_kernel();
}

void Network::install_default_kernel() {
  // One install point for every engine that assembles buses through
  // Network: the scenario runner, fuzzer, rare-event trials, model
  // checker, rsm, attack sweeps and serve backends all inherit the
  // process-global --kernel selection here.
  if (default_kernel() == KernelKind::Fast) {
    sim_.install_kernel(make_fast_kernel(sim_));
  }
}

void Network::restart() {
  for (auto& journal : deliveries_) journal.clear();
  log_.clear();
  trace_.clear();
  sim_.restart();
  install_default_kernel();
}

void Network::enable_trace() { sim_.add_observer(trace_); }

bool Network::run_until_quiet(BitTime max_bits) {
  // Let at least one bit pass so a just-enqueued frame gets started.
  sim_.step();
  return sim_.run_until([this] { return quiet(); }, max_bits);
}

bool Network::quiet() const {
  for (const auto& node : nodes_) {
    if (sim_.crashed(node->id())) continue;
    if (!node->active()) continue;
    if (!node->bus_idle() || node->pending_tx() > 0) return false;
  }
  return true;
}

std::vector<std::string> Network::labels() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    out.push_back("node " + std::to_string(node->id()));
  }
  return out;
}

}  // namespace mcan
