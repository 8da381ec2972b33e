#pragma once

#include <functional>
#include <memory>

#include "host/embedded_db.h"
#include "sim/stats.h"
#include "transport/tcp.h"

namespace mcs::host {

// Bidirectional changeset sync between a device's EmbeddedDb and a server
// replica, over TCP (the paper's mobile-database scenario: sporadic
// low-bandwidth synchronization instead of per-operation round trips).
//
// Client -> server:  "SYNC <last_seen_server_version>\n"
//                    CHG lines for local changes, then "END\n"
// Server -> client:  CHG lines the client has not seen, then
//                    "DONE <server_version>\n"
class SyncServer {
 public:
  SyncServer(transport::TcpStack& stack, std::uint16_t port,
             EmbeddedDb& replica);
  SyncServer(const SyncServer&) = delete;
  SyncServer& operator=(const SyncServer&) = delete;

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }

 private:
  struct Session {
    transport::TcpSocket::Ptr socket;
    std::string buffer;
    std::uint64_t since = 0;
    bool got_header = false;
    std::vector<ChangeRecord> incoming;
  };
  void on_line(const std::shared_ptr<Session>& s, const std::string& line);

  transport::TcpStack& stack_;
  EmbeddedDb& replica_;
  sim::StatsRegistry stats_;
  // Counter handles into stats_, resolved on first use (sim/stats.h).
  sim::CounterHandle c_sessions_{"sessions"};
  sim::CounterHandle c_changes_applied_{"changes_applied"};
  sim::CounterHandle c_changes_sent_{"changes_sent"};
};

// One client-initiated sync round; create per sync (cheap).
class SyncClient {
 public:
  struct Outcome {
    bool ok = false;
    std::size_t changes_pushed = 0;
    std::size_t changes_pulled = 0;
    std::size_t bytes_sent = 0;
    std::size_t bytes_received = 0;
    sim::Time duration;
  };
  using DoneCallback = std::function<void(Outcome)>;

  SyncClient(transport::TcpStack& stack, EmbeddedDb& local,
             net::Endpoint server);

  // Run one sync round. `last_server_version` is persisted by the caller
  // between rounds (returned via the outcome's pulled high-water mark).
  void sync(std::uint64_t last_server_version, DoneCallback done);
  std::uint64_t server_version_high_water() const { return high_water_; }

 private:
  transport::TcpStack& stack_;
  EmbeddedDb& local_;
  net::Endpoint server_;
  std::uint64_t local_version_sent_ = 0;  // local changes below this synced
  std::uint64_t high_water_ = 0;
  sim::StatsRegistry stats_;
};

}  // namespace mcs::host
