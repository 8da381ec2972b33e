#include "transport/snoop.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/contract.h"
#include "sim/logging.h"

namespace mcs::transport {

namespace {
// Local retransmission timeout over the wireless hop; much shorter than the
// end-to-end RTO, which is the point of the scheme.
constexpr sim::Time kLocalRto = sim::Time::millis(100);
// How often the agent scans its cache for overdue segments.
constexpr sim::Time kScanInterval = sim::Time::millis(50);
constexpr std::size_t kMaxCachedBytesPerFlow = 256 * 1024;
// Give up on a segment after this many local retransmissions (the segment
// is dropped from the cache and end-to-end recovery takes over).
constexpr int kMaxLocalRetransmissions = 8;
}  // namespace

SnoopAgent::SnoopAgent(net::Node& ap,
                       std::function<bool(net::IpAddress)> is_mobile)
    : ap_{ap}, is_mobile_{std::move(is_mobile)} {
  filter_id_ =
      ap_.add_filter([this](const net::PacketPtr& p, net::Interface* in) {
        return on_packet(p, in);
      });
}

SnoopAgent::~SnoopAgent() {
  if (scan_timer_ != sim::kInvalidEventId) ap_.sim().cancel(scan_timer_);
  ap_.remove_filter(filter_id_);
}

void SnoopAgent::flush() {
  flows_.clear();
  if (scan_timer_ != sim::kInvalidEventId) {
    ap_.sim().cancel(scan_timer_);
    scan_timer_ = sim::kInvalidEventId;
  }
  MCS_INVARIANT(!any_cached() && scan_timer_ == sim::kInvalidEventId,
                "flush must leave no cached segments and no scan timer, "
                "or a dead AP keeps retransmitting into the void");
}

bool SnoopAgent::any_cached() const {
  for (const auto& [key, flow] : flows_) {
    if (!flow.cache.empty()) return true;
  }
  return false;
}

// The scan timer only runs while something is cached, so an idle agent
// never keeps the event loop alive.
void SnoopAgent::maybe_arm_scan_timer() {
  if (scan_timer_ != sim::kInvalidEventId) return;
  if (!any_cached()) return;
  scan_timer_ = ap_.sim().after(kScanInterval, [this] {
    scan_timer_ = sim::kInvalidEventId;
    scan_cache();
  });
}

net::FilterVerdict SnoopAgent::on_packet(const net::PacketPtr& p,
                                         net::Interface* /*in*/) {
  if (p->proto != net::Protocol::kTcp) return net::FilterVerdict::kPass;

  if (is_mobile_(p->dst) && !p->payload.empty()) {
    FlowKey key{p->src, p->tcp.src_port, p->dst, p->tcp.dst_port};
    on_data_to_mobile(p, flows_[key]);
    return net::FilterVerdict::kPass;
  }
  if (is_mobile_(p->src) && p->tcp.has(net::kTcpAck) && p->payload.empty() &&
      !p->tcp.has(net::kTcpSyn) && !p->tcp.has(net::kTcpFin)) {
    FlowKey key{p->dst, p->tcp.dst_port, p->src, p->tcp.src_port};
    auto it = flows_.find(key);
    if (it != flows_.end()) return on_ack_from_mobile(p, it->second);
  }
  return net::FilterVerdict::kPass;
}

void SnoopAgent::on_data_to_mobile(const net::PacketPtr& p, Flow& flow) {
  const std::uint64_t seq = p->tcp.seq;
  if (seq + p->payload.size() <= flow.last_ack) return;  // already acked
  if (flow.cached_bytes + p->payload.size() > kMaxCachedBytesPerFlow) {
    return;  // cache full: degrade to plain forwarding
  }
  auto [it, inserted] = flow.cache.try_emplace(seq);
  if (inserted) {
    it->second.packet = p->clone();
    it->second.cached_at = ap_.sim().now();
    flow.cached_bytes += p->payload.size();
    ++stats_.cached_segments;
  }
  it->second.last_sent_at = ap_.sim().now();
  maybe_arm_scan_timer();
}

net::FilterVerdict SnoopAgent::on_ack_from_mobile(const net::PacketPtr& p,
                                                  Flow& flow) {
  const std::uint64_t ack = p->tcp.ack;
  if (ack > flow.last_ack) {
    // New ack: drop covered segments from the cache and let it through.
    flow.last_ack = ack;
    flow.dupacks = 0;
    auto it = flow.cache.begin();
    while (it != flow.cache.end() &&
           it->first + it->second.packet->payload.size() <= ack) {
      MCS_INVARIANT(flow.cached_bytes >= it->second.packet->payload.size(),
                    "snoop cache byte accounting underflow");
      flow.cached_bytes -= it->second.packet->payload.size();
      it = flow.cache.erase(it);
    }
    return net::FilterVerdict::kPass;
  }
  if (ack == flow.last_ack) {
    ++flow.dupacks;
    auto it = flow.cache.find(ack);
    if (it != flow.cache.end()) {
      // The lost segment is ours to repair: retransmit locally and hide the
      // duplicate ACK from the fixed sender. The first dupack triggers the
      // retransmission; later ones are suppressed while we are at it.
      if (flow.dupacks == 1) {
        retransmit(flow, ack, /*timeout=*/false);
      }
      ++stats_.dupacks_suppressed;
      return net::FilterVerdict::kConsumed;
    }
  }
  return net::FilterVerdict::kPass;
}

void SnoopAgent::retransmit(Flow& flow, std::uint64_t seq, bool timeout) {
  auto it = flow.cache.find(seq);
  if (it == flow.cache.end()) return;
  ++stats_.local_retransmissions;
  if (timeout) ++stats_.timeout_retransmissions;
  ++it->second.retransmissions;
  MCS_INVARIANT(!timeout ||
                    it->second.retransmissions <= kMaxLocalRetransmissions,
                "snoop timeout path exceeded the local retransmission budget");
  it->second.last_sent_at = ap_.sim().now();
  sim::logf(sim::LogLevel::kDebug, ap_.sim().now(),
            "snoop %s: local rtx seq=%llu%s", ap_.name().c_str(),
            static_cast<unsigned long long>(seq), timeout ? " (timeout)" : "");
  ap_.send(it->second.packet->clone());
}

void SnoopAgent::scan_cache() {
  const sim::Time now = ap_.sim().now();
  // Scan in flow-key order, not hash order: this loop sends packets (via
  // retransmit), so unordered_map iteration order would become local
  // retransmission *event* order and replay would depend on hash layout.
  // Surfaced by mcs-analyze unordered-sink, which follows the call into
  // retransmit(); the old regex lint could not see the indirect send.
  std::vector<std::pair<const FlowKey*, Flow*>> order;
  order.reserve(flows_.size());
  for (auto& [key, flow] : flows_) order.emplace_back(&key, &flow);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    const FlowKey& x = *a.first;
    const FlowKey& y = *b.first;
    return std::tie(x.fixed.v, x.fixed_port, x.mobile.v, x.mobile_port) <
           std::tie(y.fixed.v, y.fixed_port, y.mobile.v, y.mobile_port);
  });
  for (auto& [key_ptr, flow_ptr] : order) {
    Flow& flow = *flow_ptr;
    if (flow.cache.empty()) continue;
    // Only the head-of-line segment is timed; later ones follow once the
    // hole is repaired.
    auto it = flow.cache.begin();
    if (now - it->second.last_sent_at >= kLocalRto) {
      if (it->second.retransmissions >= kMaxLocalRetransmissions) {
        // Stop repairing: evict and let end-to-end recovery handle it.
        MCS_INVARIANT(flow.cached_bytes >= it->second.packet->payload.size(),
                      "snoop cache byte accounting underflow");
        flow.cached_bytes -= it->second.packet->payload.size();
        flow.cache.erase(it);
        ++stats_.segments_abandoned;
      } else {
        retransmit(flow, it->first, /*timeout=*/true);
      }
    }
  }
  maybe_arm_scan_timer();
}

}  // namespace mcs::transport
