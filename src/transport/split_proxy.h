#pragma once

#include <cstdint>
#include <list>
#include <memory>

#include "transport/tcp.h"

namespace mcs::transport {

// Split-connection / indirect TCP (Yavatkar & Bhagawat [16] in the paper):
// the path between mobile and fixed host is split at an intermediary (the
// WAP gateway or AP). Each half runs its own TCP with its own congestion
// control, so wireless losses never shrink the wired sender's window and
// vice versa. Listens on `listen_port`, relays each accepted connection to
// `upstream`, piping bytes and close events in both directions.
class SplitTcpProxy {
 public:
  SplitTcpProxy(TcpStack& stack, std::uint16_t listen_port,
                net::Endpoint upstream);
  SplitTcpProxy(const SplitTcpProxy&) = delete;
  SplitTcpProxy& operator=(const SplitTcpProxy&) = delete;

  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t bytes_up = 0;    // mobile -> fixed
    std::uint64_t bytes_down = 0;  // fixed -> mobile
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Relay {
    TcpSocket::Ptr down;  // toward the mobile client
    TcpSocket::Ptr up;    // toward the fixed host
  };
  void wire(const std::shared_ptr<Relay>& relay);

  TcpStack& stack_;
  net::Endpoint upstream_;
  Stats stats_;
};

}  // namespace mcs::transport
