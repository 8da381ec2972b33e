#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/channel.h"
#include "net/packet.h"
#include "sim/contract.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace mcs::net {

class Node;

// One attachment point of a node to a channel.
class Interface {
 public:
  Interface(Node* node, IpAddress addr, int index)
      : node_{node}, addr_{addr}, index_{index} {}

  Node* node() const { return node_; }
  IpAddress addr() const { return addr_; }
  int index() const { return index_; }
  Channel* channel() const { return channel_; }
  void attach(Channel* ch) { channel_ = ch; }
  void detach() { channel_ = nullptr; }

  bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

 private:
  Node* node_;
  IpAddress addr_;
  int index_ = 0;
  Channel* channel_ = nullptr;
  bool up_ = true;
};

// Verdict of a forwarding-path filter.
enum class FilterVerdict {
  kPass,      // continue normal processing
  kConsumed,  // filter took ownership (e.g. snoop rtx, HA interception)
};

// Inspects/modifies every packet entering a node, before the local-delivery
// vs. forward decision. Snoop agents and Mobile IP home agents are filters.
using PacketFilter = std::function<FilterVerdict(const PacketPtr&, Interface*)>;

// Handles packets addressed to this node for one protocol (transport demux).
using ProtocolHandler = std::function<void(const PacketPtr&, Interface*)>;

using FilterId = std::uint64_t;

// A host or router: interfaces, a routing table, L4 demux and filters.
class Node {
 public:
  Node(sim::Simulator& sim, NodeId id, std::string name);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  sim::Simulator& sim() const { return sim_; }
  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  Interface* add_interface(IpAddress addr);
  Interface* interface(int index) const { return interfaces_[index].get(); }
  const std::vector<std::unique_ptr<Interface>>& interfaces() const {
    return interfaces_;
  }
  // First interface address; convenient "the" address for single-homed hosts.
  IpAddress addr() const;
  bool owns_address(IpAddress a) const;

  // --- Routing -------------------------------------------------------------
  struct Route {
    Interface* out = nullptr;
    IpAddress next_hop;  // unspecified => destination is directly reachable
  };
  void set_route(IpAddress dst, Route r) { routes_[dst.v] = r; }
  void remove_route(IpAddress dst) { routes_.erase(dst.v); }
  void set_default_route(Route r);
  void clear_routes();
  const Route* lookup_route(IpAddress dst) const;

  // --- Data path -----------------------------------------------------------
  // Entry point for channels delivering a received packet.
  void receive(const PacketPtr& p, Interface* in);
  // Originate a packet from this node (routes and transmits; local
  // destinations are delivered directly).
  void send(const PacketPtr& p);

  void register_protocol_handler(Protocol proto, ProtocolHandler h);
  // Registers a forwarding-path filter; the returned id deregisters it.
  // Filters that capture `this` of a shorter-lived object (snoop agents,
  // Mobile IP agents) must remove_filter() in their destructor.
  FilterId add_filter(PacketFilter f) {
    MCS_ASSERT(f != nullptr, "packet filter must be callable");
    filters_.push_back(FilterEntry{next_filter_id_, std::move(f)});
    return next_filter_id_++;
  }
  // Must not be called from inside a filter callback.
  void remove_filter(FilterId id) {
    MCS_ASSERT(id != 0 && id < next_filter_id_,
               "filter id was never issued by this node");
    std::erase_if(filters_,
                  [id](const FilterEntry& e) { return e.id == id; });
  }

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }

 private:
  void deliver_local(const PacketPtr& p, Interface* in);
  void forward(const PacketPtr& p);

  sim::Simulator& sim_;
  NodeId id_;
  std::string name_;
  std::vector<std::unique_ptr<Interface>> interfaces_;
  std::unordered_map<std::uint32_t, Route> routes_;
  Route default_route_;
  bool has_default_route_ = false;
  struct FilterEntry {
    FilterId id = 0;
    PacketFilter fn;
  };

  std::unordered_map<int, ProtocolHandler> handlers_;
  std::vector<FilterEntry> filters_;
  FilterId next_filter_id_ = 1;
  sim::StatsRegistry stats_;
  // Counter handles into stats_, resolved on first use (sim/stats.h).
  sim::CounterHandle c_rx_packets_{"rx_packets"};
  sim::CounterHandle c_rx_bytes_{"rx_bytes"};
  sim::CounterHandle c_tx_packets_{"tx_packets"};
  sim::CounterHandle c_tx_bytes_{"tx_bytes"};
  sim::CounterHandle c_drop_ttl_{"drop_ttl"};
  sim::CounterHandle c_drop_no_handler_{"drop_no_handler"};
  sim::CounterHandle c_drop_no_route_{"drop_no_route"};
};

}  // namespace mcs::net
