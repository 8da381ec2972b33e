#include "host/sync.h"

#include "sim/contract.h"
#include "sim/util.h"

namespace mcs::host {

SyncServer::SyncServer(transport::TcpStack& stack, std::uint16_t port,
                       EmbeddedDb& replica)
    : stack_{stack}, replica_{replica} {
  stack_.listen(port, [this](transport::TcpSocket::Ptr sock) {
    stats_.counter(c_sessions_).add();
    auto s = std::make_shared<Session>();
    s->socket = std::move(sock);
    s->socket->on_data = [this, s](const std::string& bytes) {
      s->buffer += bytes;
      std::size_t nl;
      while ((nl = s->buffer.find('\n')) != std::string::npos) {
        std::string line = s->buffer.substr(0, nl);
        s->buffer.erase(0, nl + 1);
        if (!line.empty()) on_line(s, line);
      }
    };
    s->socket->on_remote_close = [s] { s->socket->close(); };
  });
}

void SyncServer::on_line(const std::shared_ptr<Session>& s,
                         const std::string& line) {
  if (!s->got_header) {
    if (!sim::starts_with(line, "SYNC ")) {
      s->socket->close();
      return;
    }
    s->since = std::strtoull(line.c_str() + 5, nullptr, 10);
    s->got_header = true;
    return;
  }
  if (sim::starts_with(line, "CHG ")) {
    if (auto c = ChangeRecord::decode(line); c.has_value()) {
      s->incoming.push_back(std::move(*c));
    }
    return;
  }
  if (line == "END") {
    MCS_INVARIANT(s->got_header,
                  "sync session reached END without a SYNC header");
    // Collect our outgoing delta BEFORE applying theirs, so the client does
    // not get its own changes echoed back.
    const auto outgoing = replica_.changes_since(s->since);
    std::size_t applied = 0;
    for (const auto& c : s->incoming) {
      if (replica_.apply_remote(c)) ++applied;
    }
    stats_.counter(c_changes_applied_).add(applied);
    std::string reply;
    for (const auto& c : outgoing) reply += c.encode() + "\n";
    reply += sim::strf("DONE %llu\n", static_cast<unsigned long long>(
                                          replica_.current_version()));
    stats_.counter(c_changes_sent_).add(outgoing.size());
    s->socket->send(reply);
    s->socket->close();
  }
}

SyncClient::SyncClient(transport::TcpStack& stack, EmbeddedDb& local,
                       net::Endpoint server)
    : stack_{stack}, local_{local}, server_{server} {}

void SyncClient::sync(std::uint64_t last_server_version, DoneCallback done) {
  struct State {
    std::string buffer;
    Outcome outcome;
    sim::Time started;
    std::vector<ChangeRecord> pulled;
    bool finished = false;
  };
  auto st = std::make_shared<State>();
  st->started = stack_.sim().now();

  auto sock = stack_.connect(server_);
  const auto local_changes = local_.changes_since(local_version_sent_);
  std::string push = sim::strf(
      "SYNC %llu\n", static_cast<unsigned long long>(last_server_version));
  for (const auto& c : local_changes) push += c.encode() + "\n";
  push += "END\n";
  st->outcome.changes_pushed = local_changes.size();
  st->outcome.bytes_sent = push.size();
  local_version_sent_ = local_.current_version();
  sock->send(push);

  auto finish = [this, st, done](bool ok) {
    if (st->finished) return;
    st->finished = true;
    st->outcome.ok = ok;
    st->outcome.duration = stack_.sim().now() - st->started;
    if (ok) {
      // If nothing was written locally while the sync was in flight, the
      // versions created by applying the pulled changes are already known to
      // the server -- advance the push watermark past them so they are not
      // echoed back on the next round.
      const bool quiescent = local_.current_version() == local_version_sent_;
      for (const auto& c : st->pulled) local_.apply_remote(c);
      st->outcome.changes_pulled = st->pulled.size();
      if (quiescent) local_version_sent_ = local_.current_version();
    }
    done(st->outcome);
  };

  sock->on_data = [this, st, sock, finish](const std::string& bytes) {
    st->buffer += bytes;
    st->outcome.bytes_received += bytes.size();
    std::size_t nl;
    while ((nl = st->buffer.find('\n')) != std::string::npos) {
      std::string line = st->buffer.substr(0, nl);
      st->buffer.erase(0, nl + 1);
      if (sim::starts_with(line, "CHG ")) {
        if (auto c = ChangeRecord::decode(line); c.has_value()) {
          st->pulled.push_back(std::move(*c));
        }
      } else if (sim::starts_with(line, "DONE ")) {
        const std::uint64_t done_version =
            std::strtoull(line.c_str() + 5, nullptr, 10);
        MCS_INVARIANT(done_version >= high_water_,
                      "sync server version went backwards between rounds");
        high_water_ = done_version;
        sock->close();
        finish(true);
        return;
      }
    }
  };
  sock->on_closed = [finish] { finish(false); };
}

}  // namespace mcs::host
