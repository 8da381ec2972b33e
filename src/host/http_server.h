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
  // HTTP/1.1 keep-alive requires responses in request order even when
  // handlers complete out of order (async DB round trips vs. static hits);
  // per-request slots are flushed strictly FIFO.
  struct PendingResponse {
    std::string wire;
    bool ready = false;
    bool close_after = false;
  };
  struct Connection {
    transport::TcpSocket::Ptr socket;
    HttpParser parser{HttpParser::Mode::kRequest};
    std::deque<std::shared_ptr<PendingResponse>> outbox;
  };

  void on_accept(transport::TcpSocket::Ptr s);
  void dispatch(const std::shared_ptr<Connection>& conn, HttpRequest&& req);
  void flush_outbox(const std::shared_ptr<Connection>& conn);
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
  sim::LogHistogram* m_app_us_ =
      obs::metric_histogram("application.latency_us");
};

// Minimal async HTTP client with per-endpoint persistent connections
// (keep-alive); used by gateways, browsers and app servers.
class HttpClient {
 public:
  using ResponseCallback = std::function<void(std::optional<HttpResponse>)>;

  explicit HttpClient(transport::TcpStack& stack) : stack_{stack} {}
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Issue a request; reuses an existing connection to `server` when one is
  // open, otherwise dials. Calls back with nullopt on connection failure.
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
    bool broken = false;
  };

  std::shared_ptr<PooledConn> conn_for(net::Endpoint server);

  transport::TcpStack& stack_;
  std::unordered_map<net::Endpoint, std::shared_ptr<PooledConn>> pool_;
  sim::StatsRegistry stats_;
  // Counter handles into stats_, resolved on first use (sim/stats.h).
  sim::CounterHandle c_connections_opened_{"connections_opened"};
  sim::CounterHandle c_requests_{"requests"};
  sim::CounterHandle c_responses_{"responses"};
  sim::CounterHandle c_failed_requests_{"failed_requests"};
};

}  // namespace mcs::host
