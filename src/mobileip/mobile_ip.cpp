#include "mobileip/mobile_ip.h"

#include "obs/trace.h"
#include "sim/contract.h"
#include "sim/logging.h"
#include "sim/util.h"

namespace mcs::mobileip {

using sim::strf;

namespace {
// Smooth handoff: how long the previous FA forwards to the new care-of
// address.
constexpr sim::Time kForwardLifetime = sim::Time::seconds(5.0);
// Foreign-agent buffer per unreachable mobile: at most this many packets,
// each kept at most this long.
constexpr std::size_t kBufferPackets = 128;
constexpr sim::Time kBufferTtl = sim::Time::seconds(3.0);
// The mobile re-sends an unanswered registration request after this long,
// at most this many times before it reports the registration failed.
constexpr sim::Time kRegistrationRetryInterval = sim::Time::millis(500);
constexpr int kMaxRegistrationRetries = 5;
}  // namespace

// ---------------------------------------------------------------------------
// Wire formats
// ---------------------------------------------------------------------------

std::string RegistrationRequest::encode() const {
  return strf("REQ %u %u %u %llu %llu", home_addr.v, home_agent.v, care_of.v,
              static_cast<unsigned long long>(lifetime_ms),
              static_cast<unsigned long long>(seq));
}

std::optional<RegistrationRequest> RegistrationRequest::decode(
    const std::string& s) {
  const auto f = sim::split(s, ' ');
  if (f.size() != 6 || f[0] != "REQ") return std::nullopt;
  RegistrationRequest r;
  r.home_addr = net::IpAddress{static_cast<std::uint32_t>(std::stoul(f[1]))};
  r.home_agent = net::IpAddress{static_cast<std::uint32_t>(std::stoul(f[2]))};
  r.care_of = net::IpAddress{static_cast<std::uint32_t>(std::stoul(f[3]))};
  r.lifetime_ms = std::stoull(f[4]);
  r.seq = std::stoull(f[5]);
  return r;
}

std::string RegistrationReply::encode() const {
  return strf("REP %u %llu %d", home_addr.v,
              static_cast<unsigned long long>(seq), code);
}

std::optional<RegistrationReply> RegistrationReply::decode(
    const std::string& s) {
  const auto f = sim::split(s, ' ');
  if (f.size() != 4 || f[0] != "REP") return std::nullopt;
  RegistrationReply r;
  r.home_addr = net::IpAddress{static_cast<std::uint32_t>(std::stoul(f[1]))};
  r.seq = std::stoull(f[2]);
  r.code = std::stoi(f[3]);
  return r;
}

std::string BindingForward::encode() const {
  return strf("FWD %u %u %llu", home_addr.v, new_coa.v,
              static_cast<unsigned long long>(lifetime_ms));
}

std::optional<BindingForward> BindingForward::decode(const std::string& s) {
  const auto f = sim::split(s, ' ');
  if (f.size() != 4 || f[0] != "FWD") return std::nullopt;
  BindingForward r;
  r.home_addr = net::IpAddress{static_cast<std::uint32_t>(std::stoul(f[1]))};
  r.new_coa = net::IpAddress{static_cast<std::uint32_t>(std::stoul(f[2]))};
  r.lifetime_ms = std::stoull(f[3]);
  return r;
}

// ---------------------------------------------------------------------------
// HomeAgent
// ---------------------------------------------------------------------------

HomeAgent::HomeAgent(net::Node& router, transport::UdpStack& udp,
                     HomeAgentConfig cfg)
    : router_{router}, udp_{udp}, cfg_{cfg} {
  filter_id_ =
      router_.add_filter([this](const net::PacketPtr& p, net::Interface* in) {
        return intercept(p, in);
      });
  udp_.bind(kMobileIpPort,
            [this](const std::string& payload, net::Endpoint from,
                   std::uint16_t) { on_datagram(payload, from); });
}

HomeAgent::~HomeAgent() {
  // Only the filter is deregistered here: a replacement agent (constructed
  // before this destructor runs, unique_ptr-assignment style) has already
  // re-bound the registration port, and unbinding would tear that down.
  router_.remove_filter(filter_id_);
}

void HomeAgent::serve_mobile(net::IpAddress home_addr) {
  served_[home_addr] = true;
}

std::optional<net::IpAddress> HomeAgent::current_care_of(
    net::IpAddress home) const {
  auto it = bindings_.find(home);
  if (it == bindings_.end()) return std::nullopt;
  if (router_.sim().now() >= it->second.expires) return std::nullopt;
  return it->second.care_of;
}

bool HomeAgent::is_away(net::IpAddress home) const {
  return current_care_of(home).has_value();
}

net::FilterVerdict HomeAgent::intercept(const net::PacketPtr& p,
                                        net::Interface* /*in*/) {
  // Never re-intercept the tunnel itself.
  if (p->proto == net::Protocol::kIpInIp) return net::FilterVerdict::kPass;
  if (!served_.contains(p->dst)) return net::FilterVerdict::kPass;
  auto it = bindings_.find(p->dst);
  if (it == bindings_.end()) return net::FilterVerdict::kPass;  // at home
  if (router_.sim().now() >= it->second.expires) {
    bindings_.erase(it);  // stale binding
    stats_.counter(c_bindings_expired_).add();
    return net::FilterVerdict::kPass;
  }
  tunnel_to(p, it->second.care_of);
  return net::FilterVerdict::kConsumed;
}

void HomeAgent::tunnel_to(const net::PacketPtr& p, net::IpAddress coa) {
  MCS_ASSERT(p->proto != net::Protocol::kIpInIp,
             "home agent must never nest IP-in-IP tunnels");
  MCS_ASSERT(!coa.is_unspecified(),
             "tunnel care-of address must be a real address");
  auto outer = net::make_packet();
  outer->src = router_.addr();
  outer->dst = coa;
  outer->proto = net::Protocol::kIpInIp;
  outer->inner = p;
  // The tunnel hop belongs to the encapsulated packet's trace.
  outer->trace_id = p->trace_id;
  outer->trace_span = p->trace_span;
  obs::instant(obs::TraceContext{p->trace_id, p->trace_span},
               obs::Component::kMobileIp, "ha.tunnel", router_.sim().now());
  stats_.counter(c_tunneled_packets_).add();
  obs::metric_add(m_encap_);
  stats_.counter(c_tunneled_bytes_).add(outer->size_bytes());
  stats_.counter(c_tunnel_overhead_bytes_).add(outer->size_bytes() -
                                              p->size_bytes());
  router_.send(outer);
}

void HomeAgent::on_datagram(const std::string& payload, net::Endpoint from) {
  auto req = RegistrationRequest::decode(payload);
  if (!req.has_value()) return;
  if (!served_.contains(req->home_addr)) {
    udp_.send(from, kMobileIpPort,
              RegistrationReply{req->home_addr, req->seq, 1}.encode());
    stats_.counter(c_registrations_denied_).add();
    return;
  }
  const sim::Time now = router_.sim().now();
  auto old = bindings_.find(req->home_addr);
  if (req->lifetime_ms == 0 || req->care_of.is_unspecified()) {
    // Deregistration: the mobile is back home.
    if (old != bindings_.end()) bindings_.erase(old);
    stats_.counter(c_deregistrations_).add();
  } else {
    if (cfg_.smooth_handoff && old != bindings_.end() &&
        old->second.care_of != req->care_of) {
      // Tell the previous FA where in-flight packets should go now.
      const BindingForward fwd{
          req->home_addr, req->care_of,
          static_cast<std::uint64_t>(kForwardLifetime.to_millis())};
      udp_.send({old->second.care_of, kMobileIpPort}, kMobileIpPort,
                fwd.encode());
      stats_.counter(c_forward_updates_sent_).add();
    }
    bindings_[req->home_addr] =
        Binding{req->care_of,
                now + sim::Time::millis(static_cast<std::int64_t>(
                          req->lifetime_ms)),
                req->seq};
    MCS_INVARIANT(bindings_[req->home_addr].expires > now,
                  "accepted mobility binding must expire in the future");
    MCS_INVARIANT(is_away(req->home_addr),
                  "accepted registration must leave the mobile marked away");
    stats_.counter(c_registrations_accepted_).add();
  }
  udp_.send(from, kMobileIpPort,
            RegistrationReply{req->home_addr, req->seq, 0}.encode());
}

// ---------------------------------------------------------------------------
// ForeignAgent
// ---------------------------------------------------------------------------

ForeignAgent::ForeignAgent(net::Node& router, transport::UdpStack& udp,
                           net::Interface* wireless_iface)
    : router_{router}, udp_{udp}, wireless_iface_{wireless_iface} {
  router_.register_protocol_handler(
      net::Protocol::kIpInIp,
      [this](const net::PacketPtr& p, net::Interface*) { on_tunnel_packet(p); });
  udp_.bind(kMobileIpPort,
            [this](const std::string& payload, net::Endpoint from,
                   std::uint16_t) { on_datagram(payload, from); });
}

void ForeignAgent::visitor_departed(net::IpAddress home_addr) {
  MCS_ASSERT(!home_addr.is_unspecified(),
             "a departure names the visitor's home address");
  MCS_ASSERT(home_addr != router_.addr(),
             "the foreign agent's own address is never a visitor");
  if (visitors_.erase(home_addr) > 0) {
    router_.remove_route(home_addr);
    stats_.counter(c_visitor_departures_).add();
  }
}

void ForeignAgent::forward_packet(const net::PacketPtr& inner,
                                  net::IpAddress new_coa) {
  MCS_ASSERT(new_coa != router_.addr(),
             "forward pointer loops back to this foreign agent");
  auto outer = net::make_packet();
  outer->src = router_.addr();
  outer->dst = new_coa;
  outer->proto = net::Protocol::kIpInIp;
  outer->inner = inner;
  outer->trace_id = inner->trace_id;
  outer->trace_span = inner->trace_span;
  stats_.counter(c_forwarded_packets_).add();
  router_.send(outer);
}

void ForeignAgent::buffer_packet(const net::PacketPtr& inner) {
  auto& q = buffered_[inner->dst];
  // Expire stale entries, then respect the budget.
  const sim::Time now = router_.sim().now();
  std::erase_if(q, [&](const BufferedPacket& b) {
    return now - b.buffered_at > kBufferTtl;
  });
  if (q.size() >= kBufferPackets) {
    stats_.counter(c_drop_buffer_full_).add();
    return;
  }
  q.push_back(BufferedPacket{inner, now});
  MCS_INVARIANT(q.size() <= kBufferPackets,
                "foreign agent exceeded its per-mobile buffer budget");
  stats_.counter(c_buffered_packets_).add();
}

void ForeignAgent::flush_buffered(net::IpAddress home_addr) {
  auto it = buffered_.find(home_addr);
  if (it == buffered_.end()) return;
  auto q = std::move(it->second);
  buffered_.erase(it);
  const sim::Time now = router_.sim().now();
  for (auto& b : q) {
    if (now - b.buffered_at > kBufferTtl) continue;
    auto fit = forwards_.find(home_addr);
    if (fit != forwards_.end() && now < fit->second.expires) {
      forward_packet(b.packet, fit->second.new_coa);
    } else if (visitors_.contains(home_addr)) {
      stats_.counter(c_flushed_to_visitor_).add();
      router_.send(b.packet);
    }
  }
}

void ForeignAgent::on_tunnel_packet(const net::PacketPtr& p) {
  if (!p->inner) return;
  net::PacketPtr inner = p->inner;
  stats_.counter(c_decapsulated_packets_).add();
  obs::metric_add(m_decap_);
  obs::instant(obs::TraceContext{inner->trace_id, inner->trace_span},
               obs::Component::kMobileIp, "fa.decap", router_.sim().now());
  if (visitors_.contains(inner->dst)) {
    router_.send(inner);
    return;
  }
  // Smooth handoff: re-tunnel to the mobile's new care-of address.
  auto fit = forwards_.find(inner->dst);
  if (fit != forwards_.end()) {
    if (router_.sim().now() < fit->second.expires) {
      forward_packet(inner, fit->second.new_coa);
      return;
    }
    forwards_.erase(fit);
  }
  // Not reachable right now: hold the packet briefly. If neither a forward
  // pointer nor a (re-)registration shows up, the TTL drops it.
  buffer_packet(inner);
}

void ForeignAgent::on_datagram(const std::string& payload, net::Endpoint from) {
  if (auto req = RegistrationRequest::decode(payload); req.has_value()) {
    // Fill in our care-of address and relay to the HA.
    req->care_of = care_of_address();
    pending_[req->home_addr] = PendingRegistration{from};
    stats_.counter(c_registrations_relayed_).add();
    udp_.send({req->home_agent, kMobileIpPort}, kMobileIpPort, req->encode());
    return;
  }
  if (auto rep = RegistrationReply::decode(payload); rep.has_value()) {
    auto pit = pending_.find(rep->home_addr);
    if (pit == pending_.end()) return;
    const net::Endpoint mobile = pit->second.mobile;
    pending_.erase(pit);
    if (rep->code == 0) {
      visitors_[rep->home_addr] = true;
      forwards_.erase(rep->home_addr);  // we host it again
      // Deliver future decapsulated packets over the wireless interface.
      router_.set_route(rep->home_addr,
                        net::Node::Route{wireless_iface_, rep->home_addr});
      flush_buffered(rep->home_addr);
    }
    udp_.send(mobile, kMobileIpPort, rep->encode());
    return;
  }
  if (auto fwd = BindingForward::decode(payload); fwd.has_value()) {
    visitors_.erase(fwd->home_addr);
    forwards_[fwd->home_addr] = ForwardPointer{
        fwd->new_coa,
        router_.sim().now() + sim::Time::millis(static_cast<std::int64_t>(
                                  fwd->lifetime_ms))};
    stats_.counter(c_forward_pointers_installed_).add();
    flush_buffered(fwd->home_addr);
    return;
  }
}

// ---------------------------------------------------------------------------
// MobileIpClient
// ---------------------------------------------------------------------------

MobileIpClient::MobileIpClient(net::Node& mobile, transport::UdpStack& udp,
                               MobileClientConfig cfg)
    : mobile_{mobile}, udp_{udp}, cfg_{cfg} {
  udp_.bind(kMobileIpPort,
            [this](const std::string& payload, net::Endpoint from,
                   std::uint16_t) { on_datagram(payload, from); });
}

MobileIpClient::~MobileIpClient() { cancel_timers(); }

void MobileIpClient::cancel_timers() {
  if (retry_timer_ != sim::kInvalidEventId) {
    mobile_.sim().cancel(retry_timer_);
    retry_timer_ = sim::kInvalidEventId;
  }
  if (renew_timer_ != sim::kInvalidEventId) {
    mobile_.sim().cancel(renew_timer_);
    renew_timer_ = sim::kInvalidEventId;
  }
}

void MobileIpClient::attach(net::IpAddress agent_addr, net::IpAddress next_hop) {
  MCS_ASSERT(!agent_addr.is_unspecified(),
             "attach() needs the agent's address; use detach() for loss");
  MCS_ASSERT(!next_hop.is_unspecified(),
             "attach() needs the access point's next-hop address");
  cancel_timers();
  current_agent_ = agent_addr;
  at_home_ = agent_addr == cfg_.home_agent;
  registered_ = false;
  retries_ = 0;
  // Host routes computed while attached elsewhere are stale now; everything
  // goes via the current access point.
  mobile_.clear_routes();
  mobile_.set_default_route(
      net::Node::Route{mobile_.interface(0), next_hop});
  send_registration();
}

void MobileIpClient::detach() {
  MCS_ASSERT(!current_agent_.is_unspecified(),
             "detach() without an attach(): there is no coverage to lose");
  cancel_timers();
  current_agent_ = net::kUnspecified;
  registered_ = false;
}

void MobileIpClient::send_registration() {
  if (current_agent_.is_unspecified()) return;
  ++seq_;
  RegistrationRequest req;
  req.home_addr = mobile_.addr();
  req.home_agent = cfg_.home_agent;
  req.care_of = net::kUnspecified;  // FA fills in; 0 also signals dereg at HA
  req.lifetime_ms = at_home_
                        ? 0
                        : static_cast<std::uint64_t>(cfg_.lifetime.to_millis());
  req.seq = seq_;
  request_sent_at_ = mobile_.sim().now();
  stats_.counter(c_registration_requests_).add();
  udp_.send({current_agent_, kMobileIpPort}, kMobileIpPort, req.encode());
  arm_retry();
}

void MobileIpClient::arm_retry() {
  MCS_ASSERT(retry_timer_ == sim::kInvalidEventId,
             "registration retry armed twice: attach() cancels the timer, "
             "its callback and a reply clear it");
  retry_timer_ = mobile_.sim().after(kRegistrationRetryInterval, [this] {
    retry_timer_ = sim::kInvalidEventId;
    if (registered_) return;
    if (++retries_ > kMaxRegistrationRetries) {
      stats_.counter(c_registration_failures_).add();
      if (on_registered) on_registered(false, sim::Time::zero());
      return;
    }
    stats_.counter(c_registration_retries_).add();
    send_registration();
  });
}

void MobileIpClient::on_datagram(const std::string& payload,
                                 net::Endpoint /*from*/) {
  auto rep = RegistrationReply::decode(payload);
  if (!rep.has_value() || rep->seq != seq_) return;
  if (retry_timer_ != sim::kInvalidEventId) {
    mobile_.sim().cancel(retry_timer_);
    retry_timer_ = sim::kInvalidEventId;
  }
  registered_ = rep->code == 0;
  const sim::Time latency = mobile_.sim().now() - request_sent_at_;
  stats_.histogram("registration_latency_ms").record(latency.to_millis());
  if (registered_ && !at_home_) {
    // Renew well before expiry.
    renew_timer_ = mobile_.sim().after(cfg_.lifetime / 3.0, [this] {
      renew_timer_ = sim::kInvalidEventId;
      retries_ = 0;
      send_registration();
    });
  }
  if (on_registered) on_registered(registered_, latency);
}

}  // namespace mcs::mobileip
