#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/arena.h"

#include "obs/trace.h"
#include "sim/stats.h"
#include "transport/udp.h"

namespace mcs::middleware {

// WAP Transaction Protocol (WTP class 2: reliable invoke/result) over WDP
// (== UDP here). One request/response exchange per transaction, with
// segmentation-and-reassembly, retransmission, and a result ack — the
// connectionless transaction style WAP uses instead of TCP.
//
// Frames are one datagram each: a text header line, then raw payload bytes:
//   "INV <tid> <seg> <nsegs>\n" <bytes>     initiator -> responder
//   "RES <tid> <seg> <nsegs>\n" <bytes>     responder -> initiator
//   "ACK <tid>\n"                           initiator -> responder
class WtpEndpoint {
 public:
  // Responder role: handle a complete invoke, answer via `respond` (once).
  using InvokeHandler = std::function<void(
      const std::string& payload, net::Endpoint from,
      std::function<void(std::string)> respond)>;
  // Initiator role: completion callback (nullopt = transaction failed).
  using ResultCallback = std::function<void(std::optional<std::string>)>;

  WtpEndpoint(transport::UdpStack& udp, std::uint16_t port);
  WtpEndpoint(const WtpEndpoint&) = delete;
  WtpEndpoint& operator=(const WtpEndpoint&) = delete;

  InvokeHandler on_invoke;

  // Run one transaction against a remote responder. Takes the payload by
  // rvalue so the per-transaction copy is explicit at call sites
  // (DESIGN.md §12).
  void invoke(net::Endpoint responder, std::string&& payload,
              ResultCallback cb);

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }
  std::uint16_t port() const { return port_; }

 private:
  // Segment buffers are preallocated to the announced count on the first
  // frame, so out-of-order arrival is a slot assignment, not map growth.
  // Peers are other WtpEndpoints, so frames are well-formed by construction;
  // a segment index past the announced count is dropped.
  struct Reassembly {
    std::vector<std::string> segments;  // sized to `total` on first frame
    std::vector<std::uint8_t> seen;     // received flags (duplicates ignored)
    std::uint32_t total = 0;
    std::uint32_t received = 0;
    bool complete() const { return total > 0 && received == total; }
    void add(std::uint32_t seg, sim::Slice body);
    std::string assemble() const;
  };
  struct OutgoingTxn {  // initiator side
    net::Endpoint responder;
    std::string payload;
    ResultCallback cb;
    Reassembly result;
    int retries = 0;
    sim::EventId timer = sim::kInvalidEventId;
    bool done = false;
    // Span the invoke was issued under; retransmitted segments re-enter it
    // so their wire time attributes to the same trace.
    obs::TraceContext ctx;
  };
  struct ResponderTxn {  // responder side
    Reassembly invoke;
    std::string cached_result;  // retransmitted until ACK or TTL
    bool responded = false;
    bool handled = false;
    sim::EventId expiry = sim::kInvalidEventId;
  };

  void on_datagram(const std::string& data, net::Endpoint from);
  void send_segments(net::Endpoint to, const char* kind, std::uint64_t tid,
                     const std::string& payload);
  void arm_retry(std::uint64_t tid);
  void finish(std::uint64_t tid, std::optional<std::string>&& result);

  transport::UdpStack& udp_;
  std::uint16_t port_ = 0;
  std::uint64_t next_tid_ = 0;
  std::unordered_map<std::uint64_t, OutgoingTxn> outgoing_;
  // Keyed by (initiator endpoint, tid) so tids from different phones never
  // collide at a shared gateway.
  struct RespKey {
    net::Endpoint from;
    std::uint64_t tid = 0;
    bool operator==(const RespKey&) const = default;
  };
  struct RespKeyHash {
    std::size_t operator()(const RespKey& k) const noexcept {
      return std::hash<net::Endpoint>{}(k.from) ^
             std::hash<std::uint64_t>{}(k.tid);
    }
  };
  std::unordered_map<RespKey, ResponderTxn, RespKeyHash> responding_;
  sim::StatsRegistry stats_;
  // Counter handles into stats_, resolved on first use (sim/stats.h).
  sim::CounterHandle c_datagrams_sent_{"datagrams_sent"};
  sim::CounterHandle c_bytes_sent_{"bytes_sent"};
  sim::CounterHandle c_datagrams_received_{"datagrams_received"};
  sim::CounterHandle c_invokes_{"invokes"};
  sim::CounterHandle c_invokes_handled_{"invokes_handled"};
  sim::CounterHandle c_retransmissions_{"retransmissions"};
  sim::CounterHandle c_result_retransmissions_{"result_retransmissions"};
  sim::CounterHandle c_transactions_completed_{"transactions_completed"};
  sim::CounterHandle c_transactions_failed_{"transactions_failed"};
};

}  // namespace mcs::middleware
