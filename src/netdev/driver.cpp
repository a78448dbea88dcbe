#include "netdev/driver.hpp"

#include "common/log.hpp"
#include "telemetry/profiler.hpp"

namespace rb {

namespace {
#if defined(RB_PROFILE) && RB_PROFILE
// One shared scope for all rx polling loops: the per-(port,queue) split is
// already visible through the enclosing task/FromDevice@N scopes.
telemetry::ScopeId RxPollScope() {
  static const telemetry::ScopeId id = telemetry::InternScopeName("netdev/rx_poll");
  return id;
}
#endif
}  // namespace

Driver::Driver(NicPort* port, uint16_t rx_queue, const DriverConfig& config)
    : port_(port), rx_queue_(rx_queue), config_(config) {
  RB_CHECK(port != nullptr);
  RB_CHECK(config.kp >= 1);
  RB_CHECK(rx_queue < port->num_rx_queues());
}

size_t Driver::Poll(PacketBatch* out, size_t max) {
#if defined(RB_PROFILE) && RB_PROFILE
  RB_PROF_SCOPE(RxPollScope());
#endif
  polls_++;
  size_t want = std::min<size_t>(std::min<size_t>(config_.kp, max), out->room());
  if (want == 0) {
    empty_polls_++;
    return 0;
  }
  Packet** fill = out->tail();
  size_t n = port_->PollRx(rx_queue_, fill, want);
  if (n == 0) {
    empty_polls_++;
    return 0;
  }
  out->CommitAppended(static_cast<uint32_t>(n));
  packets_ += n;
#if defined(RB_PROFILE) && RB_PROFILE
  if (telemetry::Profiler* prof = telemetry::CurrentProfiler()) {
    uint64_t bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      bytes += fill[i]->length();
    }
    prof->AddWork(n, bytes);
  }
#endif
  return n;
}

}  // namespace rb
