#include "host/http_server.h"

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
  // The parser lives inside Connection, so its callbacks must hold the
  // connection weakly: a strong capture would be a self-cycle that outlives
  // even socket teardown. The socket callbacks below keep conn alive.
  std::weak_ptr<Connection> weak = conn;
  conn->parser.on_request = [this, weak](HttpRequest&& req) {
    auto c = weak.lock();
    if (!c) return;
    // Synthetic header: lets CGI programs and gateways identify the client
    // connection (sessions, per-phone cookie jars).
    req.set_header("X-Peer", c->socket->remote().to_string());
    dispatch(c, std::move(req));
  };
  conn->parser.on_error = [this, weak](const std::string&) {
    auto c = weak.lock();
    if (!c) return;
    stats_.counter(c_parse_errors_).add();
    c->socket->send(HttpResponse::bad_request("malformed").serialize());
    c->socket->close();
  };
  conn->socket->on_data = [conn](const std::string& bytes) {
    conn->parser.feed(bytes);
  };
  conn->socket->on_remote_close = [conn] { conn->socket->close(); };
}

void HttpServer::flush_outbox(const std::shared_ptr<Connection>& conn) {
  while (!conn->outbox.empty() && conn->outbox.front()->ready) {
    auto slot = conn->outbox.front();
    conn->outbox.pop_front();
    conn->socket->send(slot->wire);
    if (slot->close_after) {
      conn->socket->close();
      return;
    }
  }
}

void HttpServer::dispatch(const std::shared_ptr<Connection>& conn,
                          HttpRequest&& req) {
  stats_.counter(c_requests_).add();
  stats_.counter(c_request_bytes_).add(req.wire_size());
  obs::metric_add(m_requests_);
  const bool close_after =
      sim::to_lower(req.header("Connection")) == "close" ||
      req.version == "HTTP/1.0";

  // Request span: child of whatever the arriving bytes were stamped with
  // (the gateway's span, or the browse span for direct clients). Closed by
  // respond; the response bytes go out re-entered into it.
  const obs::TraceContext req_ctx = obs::begin_span(
      obs::Component::kHostWeb, "http.request", stack_.sim().now());

  auto slot = std::make_shared<PendingResponse>();
  slot->close_after = close_after;
  conn->outbox.push_back(slot);
  auto respond = [this, conn, slot, req_ctx](HttpResponse resp) {
    resp.set_header("Server", server_name_);
    if (slot->close_after) resp.set_header("Connection", "close");
    sim::BufWriter wire{slot->wire};
    resp.serialize_to(wire);
    slot->ready = true;
    stats_.counter(c_response_bytes_).add(slot->wire.size());
    status_counter(resp.status).add();
    obs::end_span(req_ctx, stack_.sim().now());
    obs::ActiveScope scope{req_ctx};
    flush_outbox(conn);
  };

  // Static content first (exact match), then dynamic routes.
  if (req.method == "GET") {
    auto it = content_.find(req.path);
    if (it != content_.end()) {
      respond(HttpResponse::make(200, it->second.type, it->second.body));
      return;
    }
  }
  const Route* r = match(req);
  if (r == nullptr) {
    respond(HttpResponse::not_found(req.path));
    return;
  }
  // Application-program span: processing delay plus everything the handler
  // awaits (database round trips) until it responds.
  const obs::TraceContext app = obs::begin_child(
      req_ctx, obs::Component::kApplication, "app.program",
      stack_.sim().now());
  const sim::Time app_start = stack_.sim().now();
  auto app_respond = [this, app, app_start,
                      respond = std::move(respond)](HttpResponse resp) mutable {
    obs::end_span(app, stack_.sim().now());
    obs::metric_add(m_app_responses_);
    obs::metric_record(m_app_us_,
                       (stack_.sim().now() - app_start).to_micros());
    respond(std::move(resp));
  };
  if (processing_delay_.is_zero()) {
    obs::ActiveScope scope{app};
    r->handler(req, app_respond);
    return;
  }
  // Simulate CGI / application-program processing time.
  auto& sim = stack_.sim();
  sim.after(processing_delay_, [r, app, req = std::move(req),
                                respond = std::move(app_respond)]() mutable {
    obs::ActiveScope scope{app};
    r->handler(req, respond);
  });
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
  stats_.counter(c_connections_opened_).add();

  std::weak_ptr<PooledConn> weak = conn;
  conn->parser->on_response = [this, weak](HttpResponse&& resp) {
    auto c = weak.lock();
    if (!c || c->waiters.empty()) return;
    stats_.counter(c_responses_).add();
    auto cb = std::move(c->waiters.front());
    c->waiters.pop_front();
    cb(std::move(resp));
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
      cb(std::nullopt);
    }
  };
  conn->socket->on_remote_close = fail_all;
  conn->socket->on_closed = fail_all;

  pool_[server] = conn;
  return conn;
}

void HttpClient::request(net::Endpoint server, const HttpRequest& req,
                         ResponseCallback cb) {
  MCS_ASSERT(cb != nullptr,
             "every request must have a completion callback (errors are "
             "reported through it too)");
  MCS_ASSERT(!req.method.empty() && !req.path.empty(),
             "a request needs a method and a path");
  auto conn = conn_for(server);
  conn->waiters.push_back(std::move(cb));
  stats_.counter(c_requests_).add();
  conn->socket->send(req.serialize());
}

void HttpClient::get(net::Endpoint server, const std::string& path,
                     ResponseCallback cb) {
  MCS_ASSERT(!path.empty(), "GET needs a target path");
  HttpRequest req;
  req.method = "GET";
  req.path = path;
  req.set_header("Host", server.to_string());
  request(server, req, std::move(cb));
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
