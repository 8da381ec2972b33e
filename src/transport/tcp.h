#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/node.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/arena.h"
#include "sim/stats.h"

namespace mcs::transport {

// Tuning knobs; defaults match classic wired TCP Reno.
struct TcpConfig {
  std::uint32_t recv_window = 256 * 1024;      // advertised window
  sim::Time initial_rto = sim::Time::seconds(1.0);
  sim::Time min_rto = sim::Time::millis(200);
  int max_retries = 12;
  // §5.2 (Caceres & Iftode): on handoff notification, immediately retransmit
  // from the first unacked byte and reset the RTO instead of waiting for a
  // (backed-off) timeout.
  bool fast_handoff_retransmit = false;
};

// Cumulative per-connection counters; benches read these to compare the
// mobile TCP variants.
struct TcpCounters {
  std::uint64_t bytes_sent = 0;          // first transmissions only
  std::uint64_t bytes_retransmitted = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t handoff_retransmits = 0;
  std::uint64_t dupacks_received = 0;
  std::uint64_t bytes_delivered = 0;     // in-order bytes handed to the app
};

class TcpStack;

// One endpoint of a reliable byte-stream connection: TCP Reno with slow
// start, congestion avoidance, fast retransmit/recovery (NewReno partial-ack
// retransmit), Jacobson/Karels RTT estimation with Karn's rule, and
// exponential RTO backoff.
class TcpSocket : public std::enable_shared_from_this<TcpSocket> {
 public:
  using Ptr = std::shared_ptr<TcpSocket>;

  enum class State {
    kClosed,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait,    // sent FIN, waiting for its ack and/or peer's FIN
    kCloseWait,  // received FIN; local side may still send
    kLastAck,    // FIN sent from kCloseWait, waiting for its ack
  };

  // --- Application interface -----------------------------------------------
  // In-order stream bytes, as they are received.
  std::function<void(const std::string&)> on_data;
  // Connection established (client: SYN-ACK received; server: ACK received).
  std::function<void()> on_connected;
  // Peer FIN processed after all data was delivered (clean EOF).
  std::function<void()> on_remote_close;
  // Connection fully closed or reset; last callback the socket fires.
  std::function<void()> on_closed;

  // Queue application bytes for transmission. The view is consumed into
  // send_buffer_ before returning, so callers may pass slices of reused
  // buffers (sim/arena.h vocabulary) without materializing a std::string.
  void send(sim::Slice data);
  // Half-close: FIN after all buffered data is delivered.
  void close();
  // Drop the connection immediately (RST to peer).
  void reset();

  // Mobility hook (§5.2): the station notifies its sockets after attaching
  // to a new access point; behaviour depends on config.fast_handoff_retransmit.
  void notify_handoff();

  // --- Introspection --------------------------------------------------------
  State state() const { return state_; }
  net::Endpoint local() const { return local_; }
  net::Endpoint remote() const { return remote_; }
  const TcpCounters& counters() const { return counters_; }
  const TcpConfig& config() const { return cfg_; }
  std::uint64_t cwnd() const { return cwnd_; }
  std::uint64_t ssthresh() const { return ssthresh_; }
  sim::Time srtt() const { return srtt_; }
  sim::Time current_rto() const { return rto_; }
  std::uint64_t bytes_in_flight() const { return snd_nxt_ - snd_una_; }

  ~TcpSocket();

 private:
  friend class TcpStack;
  TcpSocket(TcpStack& stack, net::Endpoint local, net::Endpoint remote);

  // Stack entry points.
  void start_connect();
  void start_accept(const net::PacketPtr& syn);
  void on_packet(const net::PacketPtr& p);

  // Segment handling.
  void handle_ack(const net::PacketPtr& p);
  void handle_data(const net::PacketPtr& p);
  void handle_fin(const net::PacketPtr& p);
  void process_pending_fin();

  // Sending machinery.
  void try_send();
  void send_segment(std::uint64_t seq, std::uint32_t len, bool is_rtx);
  void retransmit_head(const char* reason);
  void send_flags(std::uint8_t flags, std::uint64_t seq);
  void send_ack();
  net::PacketPtr make_segment(std::uint8_t flags, std::uint64_t seq) const;

  // All state changes funnel through here; contract-checks the transition
  // against tcp_state_transition_valid().
  void set_state(State next);

  // Timers.
  void arm_rto();
  void cancel_rto();
  void on_rto_expired();
  void update_rtt(sim::Time sample);

  void fire_connected();
  void enter_established();
  void finish_close();

  std::uint64_t send_window() const;

  TcpStack& stack_;
  TcpConfig cfg_;
  net::Endpoint local_;
  net::Endpoint remote_;
  State state_ = State::kClosed;
  bool passive_ = false;

  // --- Sender state ---------------------------------------------------------
  std::string send_buffer_;             // bytes [snd_una_, send_buffer_end_)
  std::uint64_t send_buffer_base_ = 0;  // stream offset of send_buffer_[0]
  std::uint64_t send_buffer_end_ = 0;   // stream offset one past buffered data
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t high_water_ = 0;  // highest seq ever sent (rtx detection)
  std::uint64_t cwnd_ = 0;
  std::uint64_t ssthresh_ = 1 << 30;
  std::uint64_t rwnd_ = 1 << 30;
  int dupacks_ = 0;
  bool in_fast_recovery_ = false;
  std::uint64_t recover_ = 0;  // NewReno: highest seq sent when loss detected
  bool fin_pending_ = false;   // app called close(); emit FIN when drained
  bool fin_sent_ = false;
  std::uint64_t fin_seq_ = 0;

  // RTT estimation (one timed segment at a time; Karn's rule).
  bool timing_ = false;
  bool timed_seq_retransmitted_ = false;
  std::uint64_t timing_end_seq_ = 0;
  sim::Time timing_start_;
  sim::Time srtt_;
  sim::Time rttvar_;
  bool have_rtt_sample_ = false;
  sim::Time rto_;
  int consecutive_rtos_ = 0;

  sim::EventId rto_timer_ = sim::kInvalidEventId;

  // --- Receiver state --------------------------------------------------------
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::string> out_of_order_;
  bool peer_fin_received_ = false;
  std::uint64_t peer_fin_seq_ = 0;

  // Last sampled context seen on this connection (from an app send or an
  // arriving stamped segment): timer-driven work (RTO retransmits) re-enters
  // it so retransmitted segments and rtx instants attribute to the trace
  // that was in flight.
  obs::TraceContext trace_ctx_;

  TcpCounters counters_;
  // Telemetry handles, cached per socket at construction (obs/metrics.h);
  // the names are shared, so "transport.tcp.*" totals every connection.
  sim::Counter* m_segments_ = obs::metric_counter("transport.tcp.segments");
  sim::Counter* m_rtx_ = obs::metric_counter("transport.tcp.rtx");
  sim::Counter* m_timeouts_ = obs::metric_counter("transport.tcp.timeouts");
};

const char* to_string(TcpSocket::State s);

// The connection state machine's legal edges. kClosed is reachable from any
// state (RST / teardown); everything else follows the half-close diagram in
// the TcpSocket::State comments.
bool tcp_state_transition_valid(TcpSocket::State from, TcpSocket::State to);

// Contract wrapper around tcp_state_transition_valid(): aborts (under
// MCS_CONTRACTS) on an illegal edge. TcpSocket::set_state() routes through
// this, and death tests exercise it directly.
void require_valid_tcp_transition(TcpSocket::State from, TcpSocket::State to);

// Per-node TCP: demultiplexes connections, owns listening ports.
class TcpStack {
 public:
  using AcceptCallback = std::function<void(TcpSocket::Ptr)>;

  TcpStack(net::Node& node, TcpConfig config = {});
  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;
  // Detaches callbacks on every still-open connection. Application code
  // routinely captures a socket's own shared_ptr in its callbacks (the relay
  // pattern); finish_close() breaks that cycle on orderly teardown, but
  // connections left established when a run ends would otherwise leak.
  ~TcpStack();

  // Accept connections on `port`; the callback fires once per established
  // connection. Every connection runs the stack's config.
  void listen(std::uint16_t port, AcceptCallback cb);
  // Open a connection; returns immediately, `on_connected` fires later.
  TcpSocket::Ptr connect(net::Endpoint remote);

  // Notify every socket on this node of a link-layer handoff (§5.2).
  void notify_handoff_all();

  net::Node& node() { return node_; }
  sim::Simulator& sim() { return node_.sim(); }
  std::size_t active_connections() const { return connections_.size(); }

 private:
  friend class TcpSocket;
  struct ConnKey {
    std::uint16_t local_port = 0;
    net::Endpoint remote;
    bool operator==(const ConnKey&) const = default;
  };
  struct ConnKeyHash {
    std::size_t operator()(const ConnKey& k) const noexcept {
      return std::hash<net::Endpoint>{}(k.remote) ^
             (static_cast<std::size_t>(k.local_port) << 1);
    }
  };

  void on_packet(const net::PacketPtr& p);
  void transmit(const net::PacketPtr& p) { node_.send(p); }
  void remove_connection(TcpSocket* s);
  std::uint16_t allocate_port();

  net::Node& node_;
  TcpConfig config_;
  std::unordered_map<std::uint16_t, AcceptCallback> listeners_;
  std::unordered_map<ConnKey, TcpSocket::Ptr, ConnKeyHash> connections_;
  std::uint16_t next_ephemeral_ = 32768;
};

}  // namespace mcs::transport
