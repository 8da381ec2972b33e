#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "host/http.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "transport/tcp.h"

namespace mcs::host {

// Web server component of the paper's host computer (§7): serves static
// content and dynamic CGI-style handlers over HTTP/1.1 with keep-alive.
class HttpServer {
 public:
  // Synchronous handler: compute the response inline.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  // Asynchronous handler: respond later (e.g. after a database round trip).
  using AsyncHandler =
      std::function<void(const HttpRequest&,
                         std::function<void(HttpResponse)> respond)>;

  HttpServer(transport::TcpStack& stack, std::uint16_t port,
             std::string server_name = "mcs-httpd/1.0");
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Static content: exact-path resources ("the Web pages stored on the Web
  // site's database" in the paper's description).
  void add_content(const std::string& path, const std::string& content_type,
                   std::string body);
  bool has_content(const std::string& path) const {
    return content_.contains(path);
  }
  // The body stored at `path`, or null when there is none.
  const std::string* content_body(const std::string& path) const {
    const auto it = content_.find(path);
    return it == content_.end() ? nullptr : &it->second.body;
  }

  // Dynamic routes: longest matching (method, path-prefix) wins.
  void route(const std::string& method, const std::string& path_prefix,
             Handler h);
  void route_async(const std::string& method, const std::string& path_prefix,
                   AsyncHandler h);

  // Simulated server-side processing time added to every dynamic response
  // (CGI fork/exec, script startup); zero by default.
  void set_processing_delay(sim::Time d) { processing_delay_ = d; }

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }

 private:
  struct Route {
    std::string method;
    std::string prefix;
    AsyncHandler handler;
  };
  // A response that finished ahead of an earlier request's on the same
  // connection, held until the earlier ones are sent.
  struct Parked {
    std::uint64_t seq = 0;
    std::string wire;
    bool close_after = false;
  };
  struct Connection {
    transport::TcpSocket::Ptr socket;
    HttpParser parser{HttpParser::Mode::kRequest};
    std::string peer;  // remote endpoint text: every request's X-Peer value
    // HTTP/1.1 keep-alive requires responses in request order even when
    // handlers complete out of order (async DB round trips vs. static
    // hits): requests are numbered as they arrive and answered strictly in
    // that order.
    std::uint64_t next_seq = 0;  // number of the next request to arrive
    std::uint64_t sent_seq = 0;  // number of the next response to send
    std::vector<Parked> parked;
  };
  // One request from dispatch to its response. Exchanges are pooled and
  // addressed by index and generation, so the respond callback a handler
  // gets captures three words (this, slot, gen): 16 bytes, which
  // std::function stores inline.
  struct Exchange {
    std::shared_ptr<Connection> conn;
    HttpRequest req;
    const Route* route = nullptr;
    obs::TraceContext req_ctx;
    obs::TraceContext app;  // the application-program span, if routed
    sim::Time app_start;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;  // bumped on release; stale responders fail it
    bool close_after = false;
  };

  void on_accept(transport::TcpSocket::Ptr s);
  void dispatch(const std::shared_ptr<Connection>& conn, HttpRequest& req);
  std::uint32_t acquire_exchange();
  void run_handler(std::uint32_t slot);
  void finish(std::uint32_t slot, std::uint32_t gen, HttpResponse resp);
  // Sends wire_ as response `seq` of `conn`, in request order.
  void deliver(Connection& conn, std::uint64_t seq, bool close_after);
  const Route* match(const HttpRequest& req) const;
  sim::Counter& status_counter(int status);

  transport::TcpStack& stack_;
  std::string server_name_;
  struct Content {
    std::string type;
    std::string body;
  };
  std::unordered_map<std::string, Content> content_;
  std::vector<Route> routes_;
  sim::Time processing_delay_;
  std::deque<Exchange> exchanges_;  // deque: handlers hold `req` by reference
  std::vector<std::uint32_t> free_exchanges_;
  std::string wire_;  // the response being sent, reused across responses
  sim::StatsRegistry stats_;
  // Counter handles into stats_, resolved on first use (sim/stats.h).
  sim::CounterHandle c_connections_{"connections"};
  sim::CounterHandle c_parse_errors_{"parse_errors"};
  sim::CounterHandle c_requests_{"requests"};
  sim::CounterHandle c_request_bytes_{"request_bytes"};
  sim::CounterHandle c_response_bytes_{"response_bytes"};
  // "status_<code>" counters, looked up by name once per distinct status.
  std::vector<std::pair<int, sim::Counter*>> c_status_;
  // Telemetry handles, cached at construction (obs/metrics.h). Application
  // programs (dynamic routes) count separately under "application." so the
  // Figure-2 application bucket has its own throughput series.
  sim::Counter* m_requests_ = obs::metric_counter("host.http.requests");
  sim::Counter* m_app_responses_ =
      obs::metric_counter("application.responses");
  sim::Histogram* m_app_us_ =
      obs::metric_histogram("application.latency_us");
};

// Minimal async HTTP client with per-endpoint persistent connections
// (keep-alive); used by gateways, browsers and app servers.
class HttpClient {
 public:
  // Called with the response, or with null on connection failure. The
  // response is the connection parser's scratch message, valid only during
  // the call: a callee may move parts out (say, the body) but must not keep
  // the pointer; the parser reuses the rest of its buffers for the next one.
  using ResponseCallback = std::function<void(HttpResponse*)>;

  explicit HttpClient(transport::TcpStack& stack) : stack_{stack} {}
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Issue a request; reuses an existing connection to `server` when one is
  // open, otherwise dials. Calls back with null on connection failure.
  void request(net::Endpoint server, const HttpRequest& req,
               ResponseCallback cb);
  void get(net::Endpoint server, const std::string& path, ResponseCallback cb);

  // Close all pooled connections.
  void reset_pool();
  std::size_t pooled_connections() const { return pool_.size(); }

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }

 private:
  struct PooledConn {
    transport::TcpSocket::Ptr socket;
    std::shared_ptr<HttpParser> parser;
    std::deque<ResponseCallback> waiters;
    std::string host;  // the server endpoint's text, for Host headers
    bool broken = false;
  };

  std::shared_ptr<PooledConn> conn_for(net::Endpoint server);
  void send(PooledConn& conn, const HttpRequest& req, ResponseCallback cb);

  transport::TcpStack& stack_;
  std::unordered_map<net::Endpoint, std::shared_ptr<PooledConn>> pool_;
  HttpRequest get_;   // get()'s request, refilled per call
  std::string wire_;  // the request being sent, reused across requests
  sim::StatsRegistry stats_;
  // Counter handles into stats_, resolved on first use (sim/stats.h).
  sim::CounterHandle c_connections_opened_{"connections_opened"};
  sim::CounterHandle c_requests_{"requests"};
  sim::CounterHandle c_responses_{"responses"};
  sim::CounterHandle c_failed_requests_{"failed_requests"};
};

}  // namespace mcs::host
