#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "host/db/db_server.h"
#include "host/http_server.h"
#include "sim/contract.h"

namespace mcs::host {

// "Application programs and support software" (§7): CGI-style server-side
// programs mounted on a web server, with access to the (remote) database
// server. Each program handles one route; the context carries shared
// resources.
class AppServer {
 public:
  struct Context {
    db::DbClient* db = nullptr;       // database-server connection
    sim::Simulator* sim = nullptr;
  };
  // A program answers asynchronously (database round trips are async).
  using Program = std::function<void(const HttpRequest&, Context&,
                                     std::function<void(HttpResponse)>)>;

  AppServer(HttpServer& http, Context ctx) : http_{http}, ctx_{ctx} {}
  AppServer(const AppServer&) = delete;
  AppServer& operator=(const AppServer&) = delete;

  // Mount a program at (method, path prefix). Models CGI dispatch: the web
  // server hands matching requests to the program.
  void install(const std::string& method, const std::string& prefix,
               Program program) {
    MCS_ASSERT(!method.empty() && !prefix.empty(),
               "programs mount on an explicit (method, path prefix)");
    MCS_ASSERT(program != nullptr, "cannot install a null program");
    http_.route_async(method, prefix,
                      [this, program = std::move(program)](
                          const HttpRequest& req,
                          std::function<void(HttpResponse)> respond) {
                        program(req, ctx_, std::move(respond));
                      });
    ++programs_;
  }

  std::size_t installed_programs() const { return programs_; }
  Context& context() { return ctx_; }

 private:
  HttpServer& http_;
  Context ctx_;
  std::size_t programs_ = 0;
};

// Query-string helper for CGI parameters: "/buy?item=5&qty=2". The first
// pair named `key` wins; pairs without '=' are skipped. Returns an owned
// string because callers capture it into DB callbacks that outlive the
// request.
std::string query_param(std::string_view path, std::string_view key);
// Path without the query string.
std::string path_without_query(const std::string& path);

}  // namespace mcs::host
