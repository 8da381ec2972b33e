#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "net/node.h"
#include "obs/metrics.h"
#include "sim/stats.h"
#include "transport/udp.h"

namespace mcs::mobileip {

// Mobile IP (§5.2 of the paper, IETF Mobile IP working group [6]): a mobile
// node keeps its home address while roaming. A Home Agent (HA) on the home
// network intercepts datagrams for registered-away mobiles and tunnels them
// (IP-in-IP) to the Foreign Agent (FA) care-of address; the FA decapsulates
// and delivers over its wireless link. The reverse path is direct (triangle
// routing). Registration rides on UDP port 434.
//
// Message wire formats (plain text, really carried in packet payloads):
//   REQ <home_addr> <ha_addr> <coa> <lifetime_ms> <seq>   mobile -> FA -> HA
//   REP <home_addr> <seq> <code>                          HA -> FA -> mobile
//   FWD <home_addr> <new_coa> <lifetime_ms>               HA -> old FA
inline constexpr std::uint16_t kMobileIpPort = 434;

struct RegistrationRequest {
  net::IpAddress home_addr;
  net::IpAddress home_agent;
  net::IpAddress care_of;  // filled by the FA when relaying
  std::uint64_t lifetime_ms = 0;  // 0 => deregistration
  std::uint64_t seq = 0;

  std::string encode() const;
  static std::optional<RegistrationRequest> decode(const std::string& s);
};

struct RegistrationReply {
  net::IpAddress home_addr;
  std::uint64_t seq = 0;
  int code = 0;  // 0 = accepted

  std::string encode() const;
  static std::optional<RegistrationReply> decode(const std::string& s);
};

struct BindingForward {
  net::IpAddress home_addr;
  net::IpAddress new_coa;
  std::uint64_t lifetime_ms = 0;

  std::string encode() const;
  static std::optional<BindingForward> decode(const std::string& s);
};

struct HomeAgentConfig {
  // Smooth handoff: on re-registration from a new FA, tell the previous FA
  // to forward in-flight tunneled packets to the new care-of address for a
  // grace period, instead of dropping them.
  bool smooth_handoff = false;
};

// Runs on the home-network router. Owns the binding table and the
// interception filter.
class HomeAgent {
 public:
  HomeAgent(net::Node& router, transport::UdpStack& udp,
            HomeAgentConfig cfg = {});
  HomeAgent(const HomeAgent&) = delete;
  HomeAgent& operator=(const HomeAgent&) = delete;
  // Deregisters the interception filter: it captures `this`, so a
  // destroyed agent must not stay on the node's forwarding path.
  ~HomeAgent();

  // Declare a mobile served by this HA (its home address).
  void serve_mobile(net::IpAddress home_addr);

  std::optional<net::IpAddress> current_care_of(net::IpAddress home) const;
  bool is_away(net::IpAddress home) const;

  sim::StatsRegistry& stats() { return stats_; }
  net::IpAddress addr() const { return router_.addr(); }

 private:
  struct Binding {
    net::IpAddress care_of;
    sim::Time expires;
    std::uint64_t last_seq = 0;
  };

  net::FilterVerdict intercept(const net::PacketPtr& p, net::Interface* in);
  void on_datagram(const std::string& payload, net::Endpoint from);
  void tunnel_to(const net::PacketPtr& p, net::IpAddress coa);

  net::Node& router_;
  net::FilterId filter_id_ = 0;
  transport::UdpStack& udp_;
  HomeAgentConfig cfg_;
  std::unordered_map<net::IpAddress, bool> served_;  // home addrs
  std::unordered_map<net::IpAddress, Binding> bindings_;
  sim::StatsRegistry stats_;
  // Counter handles into stats_, resolved on first use (sim/stats.h).
  sim::CounterHandle c_tunneled_packets_{"tunneled_packets"};
  sim::CounterHandle c_tunneled_bytes_{"tunneled_bytes"};
  sim::CounterHandle c_tunnel_overhead_bytes_{"tunnel_overhead_bytes"};
  sim::CounterHandle c_registrations_accepted_{"registrations_accepted"};
  sim::CounterHandle c_registrations_denied_{"registrations_denied"};
  sim::CounterHandle c_deregistrations_{"deregistrations"};
  sim::CounterHandle c_forward_updates_sent_{"forward_updates_sent"};
  sim::CounterHandle c_bindings_expired_{"bindings_expired"};
  // Telemetry handle, cached at construction (obs/metrics.h).
  sim::Counter* m_encap_ = obs::metric_counter("mobileip.tunnel.encap");
};

// Runs on a visited-network router (AP/base station). Advertises its own
// address as the care-of address, relays registrations, decapsulates the
// tunnel and delivers to visiting mobiles over the wireless interface.
// Tunneled packets for mobiles it cannot currently reach (they just left, or
// have not finished registering) are buffered instead of dropped, and
// flushed when a forward pointer or a registration arrives. This is what
// makes the smooth-handoff extension actually save in-flight packets.
class ForeignAgent {
 public:
  ForeignAgent(net::Node& router, transport::UdpStack& udp,
               net::Interface* wireless_iface);
  ForeignAgent(const ForeignAgent&) = delete;
  ForeignAgent& operator=(const ForeignAgent&) = delete;

  bool hosts_visitor(net::IpAddress home_addr) const {
    return visitors_.contains(home_addr);
  }
  // Link-layer departure signal (the AP saw the station disassociate):
  // stop treating it as a local visitor so in-flight tunneled packets are
  // buffered (and later forwarded) instead of dying on the radio.
  void visitor_departed(net::IpAddress home_addr);
  net::IpAddress care_of_address() const { return router_.addr(); }
  sim::StatsRegistry& stats() { return stats_; }

 private:
  struct PendingRegistration {
    net::Endpoint mobile;
  };
  struct ForwardPointer {
    net::IpAddress new_coa;
    sim::Time expires;
  };

  struct BufferedPacket {
    net::PacketPtr packet;
    sim::Time buffered_at;
  };

  void on_tunnel_packet(const net::PacketPtr& p);
  void on_datagram(const std::string& payload, net::Endpoint from);
  void buffer_packet(const net::PacketPtr& inner);
  void flush_buffered(net::IpAddress home_addr);
  void forward_packet(const net::PacketPtr& inner, net::IpAddress new_coa);

  net::Node& router_;
  transport::UdpStack& udp_;
  net::Interface* wireless_iface_;
  std::unordered_map<net::IpAddress, PendingRegistration> pending_;
  std::unordered_map<net::IpAddress, bool> visitors_;
  std::unordered_map<net::IpAddress, ForwardPointer> forwards_;
  std::unordered_map<net::IpAddress, std::vector<BufferedPacket>> buffered_;
  sim::StatsRegistry stats_;
  // Counter handles into stats_, resolved on first use (sim/stats.h).
  sim::CounterHandle c_forwarded_packets_{"forwarded_packets"};
  sim::CounterHandle c_buffered_packets_{"buffered_packets"};
  sim::CounterHandle c_drop_buffer_full_{"drop_buffer_full"};
  sim::CounterHandle c_flushed_to_visitor_{"flushed_to_visitor"};
  sim::CounterHandle c_decapsulated_packets_{"decapsulated_packets"};
  sim::CounterHandle c_registrations_relayed_{"registrations_relayed"};
  sim::CounterHandle c_forward_pointers_installed_{
      "forward_pointers_installed"};
  sim::CounterHandle c_visitor_departures_{"visitor_departures"};
  // Telemetry handle, cached at construction (obs/metrics.h).
  sim::Counter* m_decap_ = obs::metric_counter("mobileip.tunnel.decap");
};

struct MobileClientConfig {
  net::IpAddress home_agent;
  sim::Time lifetime = sim::Time::seconds(30.0);
};

// Runs on the mobile node. Call attach() after every layer-2 handoff; it
// updates the default route and (re-)registers through the new FA. Renews
// the binding at lifetime/3.
class MobileIpClient {
 public:
  MobileIpClient(net::Node& mobile, transport::UdpStack& udp,
                 MobileClientConfig cfg);
  ~MobileIpClient();
  MobileIpClient(const MobileIpClient&) = delete;
  MobileIpClient& operator=(const MobileIpClient&) = delete;

  // Attached to a new cell whose router (FA or the HA itself) is
  // `agent_addr`; `next_hop` is the AP's wireless-side address.
  void attach(net::IpAddress agent_addr, net::IpAddress next_hop);
  // Lost coverage entirely.
  void detach();

  // Fired when a registration round-trip completes.
  std::function<void(bool accepted, sim::Time latency)> on_registered;

  bool registered() const { return registered_; }
  sim::StatsRegistry& stats() { return stats_; }

 private:
  void send_registration();
  void on_datagram(const std::string& payload, net::Endpoint from);
  void arm_retry();
  void cancel_timers();

  net::Node& mobile_;
  transport::UdpStack& udp_;
  MobileClientConfig cfg_;
  net::IpAddress current_agent_;
  bool at_home_ = false;
  bool registered_ = false;
  std::uint64_t seq_ = 0;
  int retries_ = 0;
  sim::Time request_sent_at_;
  sim::EventId retry_timer_ = sim::kInvalidEventId;
  sim::EventId renew_timer_ = sim::kInvalidEventId;
  sim::StatsRegistry stats_;
  // Counter handles into stats_, resolved on first use (sim/stats.h).
  sim::CounterHandle c_registration_requests_{"registration_requests"};
  sim::CounterHandle c_registration_retries_{"registration_retries"};
  sim::CounterHandle c_registration_failures_{"registration_failures"};
};

}  // namespace mcs::mobileip
