#include "transport/udp.h"

#include "sim/contract.h"
#include "sim/logging.h"

namespace mcs::transport {

UdpStack::UdpStack(net::Node& node) : node_{node} {
  node_.register_protocol_handler(
      net::Protocol::kUdp,
      [this](const net::PacketPtr& p, net::Interface*) { on_packet(p); });
}

void UdpStack::bind(std::uint16_t port, ReceiveCallback cb) {
  ports_[port] = std::move(cb);
}

void UdpStack::unbind(std::uint16_t port) { ports_.erase(port); }

void UdpStack::send(net::Endpoint dst, std::uint16_t src_port,
                    sim::Slice payload) {
  MCS_ASSERT(dst.port != 0,
             "datagram to port 0 would be silently dropped by every "
             "receiver; the caller forgot to fill in the endpoint");
  auto p = net::make_packet();
  p->src = node_.addr();
  p->dst = dst.addr;
  p->proto = net::Protocol::kUdp;
  p->udp.src_port = src_port;
  p->udp.dst_port = dst.port;
  p->payload.assign(payload.data(), payload.size());
  node_.send(p);
}

std::uint16_t UdpStack::allocate_port() {
  while (ports_.contains(next_ephemeral_)) ++next_ephemeral_;
  const std::uint16_t port = next_ephemeral_++;
  MCS_INVARIANT(!ports_.contains(port),
                "an allocated ephemeral port must be free to bind");
  return port;
}

void UdpStack::on_packet(const net::PacketPtr& p) {
  auto it = ports_.find(p->udp.dst_port);
  if (it == ports_.end()) {
    node_.stats().counter(c_udp_drop_unbound_).add();
    return;
  }
  it->second(p->payload, net::Endpoint{p->src, p->udp.src_port},
             p->udp.dst_port);
}

}  // namespace mcs::transport
