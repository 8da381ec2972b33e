#include "middleware/wtp.h"

#include "sim/contract.h"
#include "sim/logging.h"
#include "sim/util.h"

namespace mcs::middleware {

namespace {

// Initiator retransmits an unanswered invoke after this long, at most this
// many times before it fails the transaction.
constexpr sim::Time kRetryInterval = sim::Time::millis(800);
constexpr int kMaxRetries = 6;
// Payload bytes per datagram.
constexpr std::size_t kMtu = 1200;
// A responder keeps a sent result for retransmission until the initiator's
// ACK, or for this long if the ACK is lost.
constexpr sim::Time kResponderCacheTtl = sim::Time::seconds(10.0);

// strtoull(.., 10) semantics over a non-NUL-terminated view: skip leading
// whitespace, then a decimal digit run. Header fields are produced by our
// own serializer, so signs/overflow never occur in practice.
std::uint64_t parse_u64(sim::Slice s) {
  std::size_t i = 0;
  while (i < s.size() && sim::is_ascii_space(s[i])) ++i;
  std::uint64_t v = 0;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
  }
  return v;
}

}  // namespace

void WtpEndpoint::Reassembly::add(std::uint32_t seg, sim::Slice body) {
  if (segments.empty() && total > 0) {
    segments.resize(total);
    seen.resize(total);
  }
  if (seg >= segments.size() || seen[seg]) return;  // malformed / duplicate
  seen[seg] = 1;
  ++received;
  segments[seg].assign(body.data(), body.size());
  MCS_INVARIANT(received <= total,
                "reassembly cannot hold more segments than were announced");
}

std::string WtpEndpoint::Reassembly::assemble() const {
  std::size_t n = 0;
  for (const auto& s : segments) n += s.size();
  return sim::build(n, [this](std::string& out) {
    for (const auto& s : segments) out += s;
  });
}

WtpEndpoint::WtpEndpoint(transport::UdpStack& udp, std::uint16_t port)
    : udp_{udp}, port_{port} {
  // Seed the tid space from the node address so tids are globally distinct
  // (useful in traces; correctness relies on the per-endpoint keying).
  next_tid_ = (static_cast<std::uint64_t>(udp_.node().addr().v) << 20) + 1;
  udp_.bind(port_, [this](const std::string& data, net::Endpoint from,
                          std::uint16_t) { on_datagram(data, from); });
}

void WtpEndpoint::send_segments(net::Endpoint to, const char* kind,
                                std::uint64_t tid, const std::string& payload) {
  const std::size_t nsegs =
      payload.empty() ? 1 : (payload.size() + kMtu - 1) / kMtu;
  for (std::size_t seg = 0; seg < nsegs; ++seg) {
    const std::size_t off = seg * kMtu;
    const std::size_t len = std::min(kMtu, payload.size() - off);
    // One right-sized allocation per datagram; the UDP stack takes
    // ownership of the frame bytes (same bytes as
    // strf("%s %llu %zu %zu\n") + the payload window).
    auto frame = sim::build(0, [&](std::string& out) {
      sim::BufWriter w{out};
      w.need(48 + len);
      w.put(kind).ch(' ').u64(tid).ch(' ').u64(seg).ch(' ').u64(nsegs).ch(
          '\n');
      w.put(sim::Slice{payload.data() + off, len});
    });
    stats_.counter(c_datagrams_sent_).add();
    stats_.counter(c_bytes_sent_).add(frame.size());
    udp_.send(to, port_, frame);
  }
}

void WtpEndpoint::invoke(net::Endpoint responder, std::string&& payload,
                         ResultCallback cb) {
  const std::uint64_t tid = next_tid_++;
  MCS_ASSERT(!outgoing_.contains(tid),
             "WTP transaction id reused while still outstanding");
  OutgoingTxn& txn = outgoing_[tid];
  txn.responder = responder;
  txn.payload = std::move(payload);
  txn.cb = std::move(cb);
  txn.ctx = obs::active_context();
  stats_.counter(c_invokes_).add();
  send_segments(responder, "INV", tid, txn.payload);
  arm_retry(tid);
}

void WtpEndpoint::arm_retry(std::uint64_t tid) {
  auto it = outgoing_.find(tid);
  if (it == outgoing_.end()) return;
  it->second.timer = udp_.node().sim().after(kRetryInterval, [this, tid] {
    auto tit = outgoing_.find(tid);
    if (tit == outgoing_.end() || tit->second.done) return;
    OutgoingTxn& txn = tit->second;
    txn.timer = sim::kInvalidEventId;
    if (++txn.retries > kMaxRetries) {
      stats_.counter(c_transactions_failed_).add();
      finish(tid, std::nullopt);
      return;
    }
    MCS_INVARIANT(txn.retries <= kMaxRetries,
                  "WTP retry loop escaped its budget");
    stats_.counter(c_retransmissions_).add();
    obs::ActiveScope scope{txn.ctx};
    obs::instant(txn.ctx, obs::Component::kMiddleware, "wtp.rtx",
                 udp_.node().sim().now());
    send_segments(txn.responder, "INV", tid, txn.payload);
    arm_retry(tid);
  });
}

void WtpEndpoint::finish(std::uint64_t tid,
                         std::optional<std::string>&& result) {
  auto it = outgoing_.find(tid);
  if (it == outgoing_.end() || it->second.done) return;
  it->second.done = true;
  if (it->second.timer != sim::kInvalidEventId) {
    udp_.node().sim().cancel(it->second.timer);
  }
  ResultCallback cb = std::move(it->second.cb);
  outgoing_.erase(it);
  if (cb) cb(std::move(result));
}

void WtpEndpoint::on_datagram(const std::string& data, net::Endpoint from) {
  stats_.counter(c_datagrams_received_).add();
  const std::size_t nl = data.find('\n');
  if (nl == std::string::npos) return;
  const sim::Slice head{data.data(), nl};
  const sim::Slice body{data.data() + nl + 1, data.size() - nl - 1};

  // Split the header on ' ' exactly as sim::split would (empty fields
  // count toward the field total) without materializing the field vector.
  sim::Slice f[4];
  std::size_t nf = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= head.size(); ++i) {
    if (i == head.size() || head[i] == ' ') {
      if (nf < 4) f[nf] = sim::Slice{head.data() + start, i - start};
      ++nf;
      start = i + 1;
    }
  }

  if (f[0] == "INV" && nf == 4) {
    const std::uint64_t tid = parse_u64(f[1]);
    const auto seg = static_cast<std::uint32_t>(parse_u64(f[2]));
    const auto total = static_cast<std::uint32_t>(parse_u64(f[3]));
    const RespKey key{from, tid};
    ResponderTxn& txn = responding_[key];
    if (txn.responded) {
      // Duplicate invoke after we answered: retransmit the cached result.
      stats_.counter(c_result_retransmissions_).add();
      send_segments(from, "RES", tid, txn.cached_result);
      return;
    }
    txn.invoke.total = total;
    txn.invoke.add(seg, body);
    if (!txn.invoke.complete() || txn.handled) return;
    txn.handled = true;
    if (!on_invoke) return;
    const auto payload = txn.invoke.assemble();
    stats_.counter(c_invokes_handled_).add();
    on_invoke(payload, from, [this, key, from](std::string&& result) {
      auto rit = responding_.find(key);
      if (rit == responding_.end() || rit->second.responded) return;
      rit->second.responded = true;
      MCS_INVARIANT(rit->second.handled,
                    "WTP responder answered an invoke it never handled");
      rit->second.cached_result = std::move(result);
      send_segments(from, "RES", key.tid, rit->second.cached_result);
      // Drop cached state after the TTL even if the ACK is lost.
      rit->second.expiry =
          udp_.node().sim().after(kResponderCacheTtl,
                                  [this, key] { responding_.erase(key); });
    });
    return;
  }
  if (f[0] == "RES" && nf == 4) {
    const std::uint64_t tid = parse_u64(f[1]);
    auto it = outgoing_.find(tid);
    if (it == outgoing_.end()) {
      // Late duplicate: ack so the responder stops retransmitting.
      udp_.send(from, port_, sim::cat("ACK ", sim::u64s(tid), "\n"));
      return;
    }
    OutgoingTxn& txn = it->second;
    const auto seg = static_cast<std::uint32_t>(parse_u64(f[2]));
    const auto total = static_cast<std::uint32_t>(parse_u64(f[3]));
    txn.result.total = total;
    txn.result.add(seg, body);
    if (!txn.result.complete()) return;
    MCS_INVARIANT(txn.result.received == txn.result.total,
                  "WTP reassembly completed with a segment-count mismatch");
    udp_.send(from, port_, sim::cat("ACK ", sim::u64s(tid), "\n"));
    stats_.counter(c_transactions_completed_).add();
    finish(tid, txn.result.assemble());
    return;
  }
  if (f[0] == "ACK" && nf == 2) {
    const std::uint64_t tid = parse_u64(f[1]);
    const RespKey key{from, tid};
    auto rit = responding_.find(key);
    if (rit != responding_.end()) {
      if (rit->second.expiry != sim::kInvalidEventId) {
        udp_.node().sim().cancel(rit->second.expiry);
      }
      responding_.erase(rit);
    }
    return;
  }
}

}  // namespace mcs::middleware
