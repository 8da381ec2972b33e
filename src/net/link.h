#pragma once

#include <deque>
#include <memory>

#include "net/channel.h"
#include "net/node.h"
#include "obs/metrics.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace mcs::net {

struct LinkConfig {
  double bandwidth_bps = 100e6;           // 100 Mbps wired default
  sim::Time propagation = sim::Time::micros(100);
  std::size_t queue_limit_bytes = 256 * 1024;  // drop-tail
  double loss_rate = 0.0;                 // random per-packet loss
};

// Full-duplex point-to-point wired link with per-direction drop-tail queues,
// byte-accurate serialization delay and propagation delay.
class Link : public Channel {
 public:
  Link(sim::Simulator& sim, Interface* a, Interface* b, LinkConfig cfg,
       sim::Rng rng);

  void transmit(Interface* from, IpAddress next_hop, PacketPtr p) override;
  double rate_bps(const Interface* from) const override;
  std::vector<Edge> edges() const override;

  const LinkConfig& config() const { return cfg_; }
  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }
  Interface* peer_of(const Interface* i) const { return i == a_ ? b_ : a_; }

 private:
  struct Direction {
    std::deque<PacketPtr> queue;
    std::size_t queued_bytes = 0;
    bool busy = false;
  };

  Direction& direction_for(const Interface* from) {
    return from == a_ ? ab_ : ba_;
  }
  void start_service(Interface* from);

  sim::Simulator& sim_;
  Interface* a_;
  Interface* b_;
  LinkConfig cfg_;
  sim::Rng rng_;
  Direction ab_;
  Direction ba_;
  sim::StatsRegistry stats_;
  // Counter handles into stats_, resolved on first use (sim/stats.h).
  sim::CounterHandle c_delivered_packets_{"delivered_packets"};
  sim::CounterHandle c_delivered_bytes_{"delivered_bytes"};
  sim::CounterHandle c_drop_loss_{"drop_loss"};
  sim::CounterHandle c_drop_iface_down_{"drop_iface_down"};
  sim::CounterHandle c_drop_queue_overflow_{"drop_queue_overflow"};
  // Telemetry handles, cached at construction (obs/metrics.h). Shared names
  // across links: "wired.*" is the tier total, per-link detail stays in
  // stats_.
  sim::Counter* m_tx_packets_ = obs::metric_counter("wired.tx_packets");
  sim::Counter* m_tx_bytes_ = obs::metric_counter("wired.tx_bytes");
  sim::Counter* m_drops_ = obs::metric_counter("wired.drops");
  sim::Gauge* m_queued_bytes_ = obs::metric_gauge("wired.queued_bytes");
};

}  // namespace mcs::net
