#include "host/http_server.h"

#include <algorithm>

#include "obs/trace.h"
#include "sim/contract.h"
#include "sim/logging.h"
#include "sim/util.h"

namespace mcs::host {

HttpServer::HttpServer(transport::TcpStack& stack, std::uint16_t port,
                       std::string server_name)
    : stack_{stack}, server_name_{std::move(server_name)} {
  stack_.listen(port,
                [this](transport::TcpSocket::Ptr s) { on_accept(std::move(s)); });
}

void HttpServer::add_content(const std::string& path,
                             const std::string& content_type,
                             std::string body) {
  content_[path] = Content{content_type, std::move(body)};
}

void HttpServer::route(const std::string& method,
                       const std::string& path_prefix, Handler h) {
  MCS_ASSERT(!method.empty(), "routes match on an explicit HTTP method");
  route_async(method, path_prefix,
              [h = std::move(h)](const HttpRequest& req,
                                 std::function<void(HttpResponse)> respond) {
                respond(h(req));
              });
}

void HttpServer::route_async(const std::string& method,
                             const std::string& path_prefix, AsyncHandler h) {
  routes_.push_back(Route{method, path_prefix, std::move(h)});
}

const HttpServer::Route* HttpServer::match(const HttpRequest& req) const {
  const Route* best = nullptr;
  for (const auto& r : routes_) {
    if (r.method != req.method) continue;
    if (!sim::starts_with(req.path, r.prefix)) continue;
    if (best == nullptr || r.prefix.size() > best->prefix.size()) best = &r;
  }
  return best;
}

sim::Counter& HttpServer::status_counter(int status) {
  for (const auto& [code, counter] : c_status_) {
    if (code == status) return *counter;
  }
  sim::Counter& counter = stats_.counter(sim::strf("status_%d", status));
  c_status_.emplace_back(status, &counter);
  return counter;
}

void HttpServer::on_accept(transport::TcpSocket::Ptr s) {
  stats_.counter(c_connections_).add();
  auto conn = std::make_shared<Connection>();
  conn->socket = std::move(s);
  conn->peer = conn->socket->remote().to_string();
  // The parser lives inside Connection, so its callbacks must hold the
  // connection weakly: a strong capture would be a self-cycle that outlives
  // even socket teardown. The socket callbacks below keep conn alive.
  std::weak_ptr<Connection> weak = conn;
  conn->parser.on_request = [this, weak](HttpRequest&& req) {
    auto c = weak.lock();
    if (!c) return;
    // Synthetic header: lets CGI programs and gateways identify the client
    // connection (sessions, per-phone cookie jars).
    req.set_header("X-Peer", c->peer);
    dispatch(c, req);
  };
  conn->parser.on_error = [this, weak](const std::string&) {
    auto c = weak.lock();
    if (!c) return;
    stats_.counter(c_parse_errors_).add();
    wire_.clear();
    sim::BufWriter w{wire_};
    HttpResponse::bad_request("malformed").serialize_to(w);
    c->socket->send(wire_);
    c->socket->close();
  };
  conn->socket->on_data = [conn](const std::string& bytes) {
    conn->parser.feed(bytes);
  };
  conn->socket->on_remote_close = [conn] { conn->socket->close(); };
}

void HttpServer::dispatch(const std::shared_ptr<Connection>& conn,
                          HttpRequest& req) {
  stats_.counter(c_requests_).add();
  stats_.counter(c_request_bytes_).add(req.wire_size());
  obs::metric_add(m_requests_);

  const std::uint32_t slot = acquire_exchange();
  Exchange& ex = exchanges_[slot];
  // Swap, not move: the parser gets this exchange's earlier request back
  // and refills its buffers for the next message.
  std::swap(ex.req, req);
  ex.conn = conn;
  ex.seq = conn->next_seq++;
  ex.close_after = sim::iequals(ex.req.headers.get("Connection"), "close") ||
                   ex.req.version == "HTTP/1.0";
  // Request span: child of whatever the arriving bytes were stamped with
  // (the gateway's span, or the browse span for direct clients). Closed by
  // finish; the response bytes go out re-entered into it.
  ex.req_ctx = obs::begin_span(obs::Component::kHostWeb, "http.request",
                               stack_.sim().now());

  // Static content first (exact match), then dynamic routes.
  if (ex.req.method == "GET") {
    auto it = content_.find(ex.req.path);
    if (it != content_.end()) {
      finish(slot, ex.gen,
             HttpResponse::make(200, it->second.type, it->second.body));
      return;
    }
  }
  ex.route = match(ex.req);
  if (ex.route == nullptr) {
    finish(slot, ex.gen, HttpResponse::not_found(ex.req.path));
    return;
  }
  // Application-program span: processing delay plus everything the handler
  // awaits (database round trips) until it responds.
  ex.app = obs::begin_child(ex.req_ctx, obs::Component::kApplication,
                            "app.program", stack_.sim().now());
  ex.app_start = stack_.sim().now();
  if (processing_delay_.is_zero()) {
    run_handler(slot);
    return;
  }
  // Simulate CGI / application-program processing time.
  stack_.sim().after(processing_delay_,
                     [this, slot] { run_handler(slot); });
}

std::uint32_t HttpServer::acquire_exchange() {
  if (free_exchanges_.empty()) {
    exchanges_.emplace_back();
    return static_cast<std::uint32_t>(exchanges_.size() - 1);
  }
  const std::uint32_t slot = free_exchanges_.back();
  free_exchanges_.pop_back();
  return slot;
}

void HttpServer::run_handler(std::uint32_t slot) {
  Exchange& ex = exchanges_[slot];
  obs::ActiveScope scope{ex.app};
  ex.route->handler(ex.req,
                    [this, slot, gen = ex.gen](HttpResponse resp) {
                      finish(slot, gen, std::move(resp));
                    });
}

void HttpServer::finish(std::uint32_t slot, std::uint32_t gen,
                        HttpResponse resp) {
  Exchange& ex = exchanges_[slot];
  MCS_ASSERT(ex.gen == gen && ex.conn != nullptr,
             "a request is answered exactly once");
  const sim::Time now = stack_.sim().now();
  if (ex.route != nullptr) {  // the application program answered
    obs::end_span(ex.app, now);
    obs::metric_add(m_app_responses_);
    obs::metric_record(m_app_us_, (now - ex.app_start).to_micros());
  }
  resp.set_header("Server", server_name_);
  if (ex.close_after) resp.set_header("Connection", "close");
  wire_.clear();
  sim::BufWriter wire{wire_};
  resp.serialize_to(wire);
  stats_.counter(c_response_bytes_).add(wire_.size());
  status_counter(resp.status).add();
  obs::end_span(ex.req_ctx, now);
  obs::ActiveScope scope{ex.req_ctx};
  // Release the exchange before sending: the response no longer needs it.
  const std::shared_ptr<Connection> conn = std::move(ex.conn);
  const std::uint64_t seq = ex.seq;
  const bool close_after = ex.close_after;
  ex.conn = nullptr;
  ex.route = nullptr;
  ++ex.gen;
  free_exchanges_.push_back(slot);
  deliver(*conn, seq, close_after);
}

void HttpServer::deliver(Connection& conn, std::uint64_t seq,
                         bool close_after) {
  if (seq != conn.sent_seq) {
    conn.parked.push_back(Parked{seq, wire_, close_after});
    return;
  }
  conn.socket->send(wire_);
  ++conn.sent_seq;
  bool closed = close_after;
  // Then every parked response that is now next in line.
  while (!closed) {
    auto it = std::find_if(conn.parked.begin(), conn.parked.end(),
                           [&conn](const Parked& p) {
                             return p.seq == conn.sent_seq;
                           });
    if (it == conn.parked.end()) break;
    conn.socket->send(it->wire);
    ++conn.sent_seq;
    closed = it->close_after;
    conn.parked.erase(it);
  }
  if (closed) conn.socket->close();
}

// ---------------------------------------------------------------------------
// HttpClient
// ---------------------------------------------------------------------------

std::shared_ptr<HttpClient::PooledConn> HttpClient::conn_for(
    net::Endpoint server) {
  auto it = pool_.find(server);
  if (it != pool_.end() && !it->second->broken) return it->second;

  auto conn = std::make_shared<PooledConn>();
  conn->parser = std::make_shared<HttpParser>(HttpParser::Mode::kResponse);
  conn->socket = stack_.connect(server);
  conn->host = server.to_string();
  stats_.counter(c_connections_opened_).add();

  std::weak_ptr<PooledConn> weak = conn;
  conn->parser->on_response = [this, weak](HttpResponse&& resp) {
    auto c = weak.lock();
    if (!c || c->waiters.empty()) return;
    stats_.counter(c_responses_).add();
    auto cb = std::move(c->waiters.front());
    c->waiters.pop_front();
    cb(&resp);
  };
  conn->socket->on_data = [c = conn](const std::string& bytes) {
    c->parser->feed(bytes);
  };
  auto fail_all = [this, weak, server] {
    auto c = weak.lock();
    if (!c) return;
    c->broken = true;
    auto waiters = std::move(c->waiters);
    c->waiters.clear();
    // Only evict ourselves: a replacement may already occupy the slot.
    if (auto pit = pool_.find(server); pit != pool_.end() && pit->second == c) {
      pool_.erase(pit);
    }
    for (auto& cb : waiters) {
      stats_.counter(c_failed_requests_).add();
      cb(nullptr);
    }
  };
  conn->socket->on_remote_close = fail_all;
  conn->socket->on_closed = fail_all;

  pool_[server] = conn;
  return conn;
}

void HttpClient::send(PooledConn& conn, const HttpRequest& req,
                      ResponseCallback cb) {
  MCS_ASSERT(cb != nullptr,
             "every request must have a completion callback (errors are "
             "reported through it too)");
  MCS_ASSERT(!req.method.empty() && !req.path.empty(),
             "a request needs a method and a path");
  conn.waiters.push_back(std::move(cb));
  stats_.counter(c_requests_).add();
  wire_.clear();
  sim::BufWriter w{wire_};
  req.serialize_to(w);
  conn.socket->send(wire_);
}

void HttpClient::request(net::Endpoint server, const HttpRequest& req,
                         ResponseCallback cb) {
  send(*conn_for(server), req, std::move(cb));
}

void HttpClient::get(net::Endpoint server, const std::string& path,
                     ResponseCallback cb) {
  MCS_ASSERT(!path.empty(), "GET needs a target path");
  const std::shared_ptr<PooledConn> conn = conn_for(server);
  get_.method = "GET";
  get_.path = path;
  get_.headers.clear();
  get_.set_header("Host", conn->host);
  send(*conn, get_, std::move(cb));
}

void HttpClient::reset_pool() {
  for (auto& [ep, conn] : pool_) {
    conn->broken = true;
    conn->socket->close();
  }
  pool_.clear();
  MCS_INVARIANT(pool_.empty(),
                "after a reset no cached connection may be reused");
}

}  // namespace mcs::host
