#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "net/node.h"
#include "sim/arena.h"
#include "sim/stats.h"

namespace mcs::transport {

// Per-node UDP endpoint table. WDP (the WAP datagram protocol) and Mobile IP
// registration both ride on this.
class UdpStack {
 public:
  // `datagram payload`, sender endpoint, destination port it arrived on.
  using ReceiveCallback = std::function<void(
      const std::string& payload, net::Endpoint from, std::uint16_t port)>;

  explicit UdpStack(net::Node& node);
  UdpStack(const UdpStack&) = delete;
  UdpStack& operator=(const UdpStack&) = delete;

  void bind(std::uint16_t port, ReceiveCallback cb);
  void unbind(std::uint16_t port);
  bool bound(std::uint16_t port) const { return ports_.contains(port); }

  // Send one datagram. `src_port` may be 0 for fire-and-forget senders.
  // The view is copied into the packet before returning, so callers may
  // pass slices of reused buffers without materializing a std::string.
  void send(net::Endpoint dst, std::uint16_t src_port, sim::Slice payload);

  // Allocate an unused ephemeral port.
  std::uint16_t allocate_port();

  net::Node& node() { return node_; }

 private:
  void on_packet(const net::PacketPtr& p);

  net::Node& node_;
  std::unordered_map<std::uint16_t, ReceiveCallback> ports_;
  std::uint16_t next_ephemeral_ = 49152;
  // Counts into the node's registry (sim/stats.h), resolved on first use.
  sim::CounterHandle c_udp_drop_unbound_{"udp_drop_unbound"};
};

}  // namespace mcs::transport
