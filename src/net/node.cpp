#include "net/node.h"

#include "obs/trace.h"
#include "sim/contract.h"
#include "sim/logging.h"

namespace mcs::net {

Node::Node(sim::Simulator& sim, NodeId id, std::string name)
    : sim_{sim}, id_{id}, name_{std::move(name)} {}

Interface* Node::add_interface(IpAddress addr) {
  MCS_ASSERT(!owns_address(addr) || addr.is_unspecified(),
             "node already owns an interface with this address");
  interfaces_.push_back(std::make_unique<Interface>(
      this, addr, static_cast<int>(interfaces_.size())));
  return interfaces_.back().get();
}

IpAddress Node::addr() const {
  return interfaces_.empty() ? kUnspecified : interfaces_.front()->addr();
}

bool Node::owns_address(IpAddress a) const {
  for (const auto& i : interfaces_) {
    if (i->addr() == a) return true;
  }
  return false;
}

void Node::clear_routes() {
  routes_.clear();
  has_default_route_ = false;
  MCS_INVARIANT(lookup_route(kUnspecified) == nullptr,
                "cleared routing table still resolves a route");
}

void Node::set_default_route(Route r) {
  MCS_ASSERT(r.out != nullptr,
             "default route needs an outgoing interface");
  MCS_ASSERT(r.out->node() == this,
             "default route must leave through this node's own interface");
  default_route_ = r;
  has_default_route_ = true;
}

const Node::Route* Node::lookup_route(IpAddress dst) const {
  auto it = routes_.find(dst.v);
  if (it != routes_.end()) return &it->second;
  if (has_default_route_) return &default_route_;
  return nullptr;
}

void Node::receive(const PacketPtr& p, Interface* in) {
  MCS_ASSERT(p != nullptr, "cannot receive a null packet");
  stats_.counter(c_rx_packets_).add();
  stats_.counter(c_rx_bytes_).add(p->size_bytes());
  for (auto& f : filters_) {
    if (f.fn(p, in) == FilterVerdict::kConsumed) return;
  }
  if (owns_address(p->dst)) {
    deliver_local(p, in);
    return;
  }
  if (--p->ttl <= 0) {
    stats_.counter(c_drop_ttl_).add();
    return;
  }
  forward(p);
}

void Node::send(const PacketPtr& p) {
  MCS_ASSERT(p != nullptr, "cannot send a null packet");
  p->created_at = sim_.now();
  if (p->trace_id == 0) {
    // Stamp locally originated packets with the ambient span so downstream
    // hops (channels, the receiving stack) can attribute their work to it.
    const obs::TraceContext ctx = obs::active_context();
    p->trace_id = ctx.trace_id;
    p->trace_span = ctx.span_id;
  }
  stats_.counter(c_tx_packets_).add();
  stats_.counter(c_tx_bytes_).add(p->size_bytes());
  // Locally originated packets pass the filters too (in == nullptr): a home
  // agent colocated with a server must intercept its own node's output the
  // way a kernel routing hook would.
  for (auto& f : filters_) {
    if (f.fn(p, nullptr) == FilterVerdict::kConsumed) return;
  }
  if (owns_address(p->dst)) {
    // Loopback: deliver on the next event tick to preserve async semantics.
    PacketPtr copy = p;
    sim_.after(sim::Time::zero(), [this, copy] {
      obs::ActiveScope scope{obs::TraceContext{copy->trace_id, copy->trace_span}};
      deliver_local(copy, nullptr);
    });
    return;
  }
  forward(p);
}

void Node::deliver_local(const PacketPtr& p, Interface* in) {
  auto it = handlers_.find(static_cast<int>(p->proto));
  if (it == handlers_.end()) {
    stats_.counter(c_drop_no_handler_).add();
    if (sim::log_enabled(sim::LogLevel::kDebug)) {
      // describe() allocates; build it only when the line will be emitted.
      sim::logf(sim::LogLevel::kDebug, sim_.now(), "%s: no handler for %s",
                name_.c_str(), p->describe().c_str());
    }
    return;
  }
  it->second(p, in);
}

void Node::forward(const PacketPtr& p) {
  const Route* r = lookup_route(p->dst);
  if (r == nullptr || r->out == nullptr || r->out->channel() == nullptr ||
      !r->out->up()) {
    stats_.counter(c_drop_no_route_).add();
    if (sim::log_enabled(sim::LogLevel::kDebug)) {
      sim::logf(sim::LogLevel::kDebug, sim_.now(), "%s: no route for %s",
                name_.c_str(), p->describe().c_str());
    }
    return;
  }
  const IpAddress next_hop =
      r->next_hop.is_unspecified() ? p->dst : r->next_hop;
  r->out->channel()->transmit(r->out, next_hop, p);
}

void Node::register_protocol_handler(Protocol proto, ProtocolHandler h) {
  handlers_[static_cast<int>(proto)] = std::move(h);
}

}  // namespace mcs::net
