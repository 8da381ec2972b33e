#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>

#include "net/node.h"
#include "sim/stats.h"

namespace mcs::transport {

// Snoop protocol (Balakrishnan et al. [1] in the paper): a TCP-aware agent
// at the base station / access point. It caches data segments heading to the
// mobile host, retransmits them locally on duplicate ACKs or a local
// timeout, and suppresses those duplicate ACKs so the fixed sender never
// sees wireless losses as congestion. Installed as a forwarding-path filter
// on the AP node.
class SnoopAgent {
 public:
  // `is_mobile` classifies addresses on the wireless side of this AP.
  SnoopAgent(net::Node& ap, std::function<bool(net::IpAddress)> is_mobile);
  ~SnoopAgent();
  SnoopAgent(const SnoopAgent&) = delete;
  SnoopAgent& operator=(const SnoopAgent&) = delete;

  struct Stats {
    std::uint64_t cached_segments = 0;
    std::uint64_t local_retransmissions = 0;
    std::uint64_t dupacks_suppressed = 0;
    std::uint64_t timeout_retransmissions = 0;
    std::uint64_t segments_abandoned = 0;
  };
  const Stats& stats() const { return stats_; }

  // Drop all per-flow state (e.g. after the mobile moved to another AP).
  void flush();

 private:
  struct FlowKey {
    net::IpAddress fixed;
    std::uint16_t fixed_port = 0;
    net::IpAddress mobile;
    std::uint16_t mobile_port = 0;
    bool operator==(const FlowKey&) const = default;
  };
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.fixed.v) << 32) ^ k.mobile.v ^
          (static_cast<std::uint64_t>(k.fixed_port) << 16) ^ k.mobile_port);
    }
  };
  struct CachedSegment {
    net::PacketPtr packet;
    sim::Time cached_at;
    sim::Time last_sent_at;
    int retransmissions = 0;
  };
  struct Flow {
    std::map<std::uint64_t, CachedSegment> cache;  // by sequence number
    std::size_t cached_bytes = 0;
    std::uint64_t last_ack = 0;
    int dupacks = 0;
  };

  net::FilterVerdict on_packet(const net::PacketPtr& p, net::Interface* in);
  void on_data_to_mobile(const net::PacketPtr& p, Flow& flow);
  net::FilterVerdict on_ack_from_mobile(const net::PacketPtr& p, Flow& flow);
  void scan_cache();
  void maybe_arm_scan_timer();
  bool any_cached() const;
  void retransmit(Flow& flow, std::uint64_t seq, bool timeout);

  net::Node& ap_;
  net::FilterId filter_id_ = 0;
  std::function<bool(net::IpAddress)> is_mobile_;
  std::unordered_map<FlowKey, Flow, FlowKeyHash> flows_;
  sim::EventId scan_timer_ = sim::kInvalidEventId;
  Stats stats_;
};

}  // namespace mcs::transport
