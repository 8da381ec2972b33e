#include "net/link.h"

#include "obs/trace.h"
#include "sim/contract.h"
#include "sim/logging.h"

namespace mcs::net {

Link::Link(sim::Simulator& sim, Interface* a, Interface* b, LinkConfig cfg,
           sim::Rng rng)
    : sim_{sim}, a_{a}, b_{b}, cfg_{cfg}, rng_{rng} {
  MCS_ASSERT(a_ != nullptr && b_ != nullptr,
             "link requires an interface on both ends");
  MCS_ASSERT(a_ != b_, "link endpoints must be distinct interfaces");
  MCS_ASSERT(cfg_.bandwidth_bps > 0.0, "link bandwidth must be positive");
  a_->attach(this);
  b_->attach(this);
}

void Link::transmit(Interface* from, IpAddress /*next_hop*/, PacketPtr p) {
  MCS_ASSERT(p != nullptr, "link cannot transmit a null packet");
  MCS_ASSERT(from == a_ || from == b_,
             "transmit must originate from one of the link's endpoints");
  Direction& dir = direction_for(from);
  const std::size_t size = p->size_bytes();
  if (dir.queued_bytes + size > cfg_.queue_limit_bytes) {
    stats_.counter(c_drop_queue_overflow_).add();
    obs::metric_add(m_drops_);
    return;
  }
  dir.queue.push_back(std::move(p));
  dir.queued_bytes += size;
  obs::metric_adjust(m_queued_bytes_, static_cast<double>(size));
  if (!dir.busy) start_service(from);
}

void Link::start_service(Interface* from) {
  Direction& dir = direction_for(from);
  if (dir.queue.empty()) {
    dir.busy = false;
    return;
  }
  dir.busy = true;
  PacketPtr p = dir.queue.front();
  dir.queue.pop_front();
  MCS_INVARIANT(dir.queued_bytes >= p->size_bytes(),
                "link queue byte accounting underflow");
  dir.queued_bytes -= p->size_bytes();
  obs::metric_adjust(m_queued_bytes_, -static_cast<double>(p->size_bytes()));

  const sim::Time serialization =
      sim::transmission_time(p->size_bytes(), cfg_.bandwidth_bps);
  // Wire time span: serialization (+ propagation on delivery) attributed to
  // the stamped context's trace as "wired" component time.
  const obs::TraceContext wire = obs::begin_child(
      obs::TraceContext{p->trace_id, p->trace_span}, obs::Component::kWired,
      "link.tx", sim_.now());
  sim_.after(serialization, [this, from, p, wire] {
    Interface* to = peer_of(from);
    const bool lost = rng_.bernoulli(cfg_.loss_rate);
    if (lost) {
      stats_.counter(c_drop_loss_).add();
      obs::metric_add(m_drops_);
      obs::end_span(wire, sim_.now());
    } else if (!to->up() || !from->up()) {
      stats_.counter(c_drop_iface_down_).add();
      obs::metric_add(m_drops_);
      obs::end_span(wire, sim_.now());
    } else {
      stats_.counter(c_delivered_packets_).add();
      stats_.counter(c_delivered_bytes_).add(p->size_bytes());
      obs::metric_add(m_tx_packets_);
      obs::metric_add(m_tx_bytes_, p->size_bytes());
      sim_.after(cfg_.propagation, [this, to, p, wire] {
        obs::end_span(wire, sim_.now());
        obs::ActiveScope scope{obs::TraceContext{p->trace_id, p->trace_span}};
        to->node()->receive(p, to);
      });
    }
    start_service(from);
  });
}

double Link::rate_bps(const Interface* /*from*/) const {
  return cfg_.bandwidth_bps;
}

std::vector<Channel::Edge> Link::edges() const {
  // Symmetric cost: propagation plus the time to serialize a nominal 1 KB
  // packet, so routing prefers fast links when delays tie.
  const double cost =
      cfg_.propagation.to_seconds() + 8.0 * 1024.0 / cfg_.bandwidth_bps;
  return {Edge{a_, b_, cost}};
}

}  // namespace mcs::net
