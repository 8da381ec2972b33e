#include "host/http_server.h"

#include <gtest/gtest.h>

#include "host/app_server.h"
#include "net/network.h"

namespace mcs::host {
namespace {

struct WebFixture : public ::testing::Test {
  WebFixture() : network{sim, 29} {
    client_node = network.add_node("client");
    server_node = network.add_node("server");
    network.connect(client_node, server_node);
    network.compute_routes();
    client_tcp = std::make_unique<transport::TcpStack>(*client_node);
    server_tcp = std::make_unique<transport::TcpStack>(*server_node);
    server = std::make_unique<HttpServer>(*server_tcp, 80);
    client = std::make_unique<HttpClient>(*client_tcp);
  }

  net::Endpoint server_ep() { return {server_node->addr(), 80}; }

  // A response callback that copies the response, if any, into `into`.
  static HttpClient::ResponseCallback keep(std::optional<HttpResponse>& into) {
    return [&into](HttpResponse* r) {
      if (r != nullptr) into = *r;
    };
  }

  sim::Simulator sim;
  net::Network network;
  net::Node* client_node;
  net::Node* server_node;
  std::unique_ptr<transport::TcpStack> client_tcp;
  std::unique_ptr<transport::TcpStack> server_tcp;
  std::unique_ptr<HttpServer> server;
  std::unique_ptr<HttpClient> client;
};

TEST_F(WebFixture, ServesStaticContent) {
  server->add_content("/index.html", "text/html", "<html>hello</html>");
  std::optional<HttpResponse> got;
  client->get(server_ep(), "/index.html", keep(got));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(got->body, "<html>hello</html>");
  EXPECT_EQ(got->header("content-type"), "text/html");
  EXPECT_EQ(got->header("server"), "mcs-httpd/1.0");
}

TEST_F(WebFixture, Returns404ForUnknownPath) {
  std::optional<HttpResponse> got;
  client->get(server_ep(), "/missing", keep(got));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 404);
}

TEST_F(WebFixture, DynamicRouteAndLongestPrefixWins) {
  server->route("GET", "/api", [](const HttpRequest&) {
    return HttpResponse::make(200, "text/plain", "api-root");
  });
  server->route("GET", "/api/cart", [](const HttpRequest&) {
    return HttpResponse::make(200, "text/plain", "cart");
  });
  std::optional<HttpResponse> r1, r2;
  client->get(server_ep(), "/api/cart?id=1", keep(r1));
  client->get(server_ep(), "/api/other", keep(r2));
  sim.run();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->body, "cart");
  EXPECT_EQ(r2->body, "api-root");
}

TEST_F(WebFixture, MethodsAreDistinct) {
  server->route("POST", "/submit", [](const HttpRequest& req) {
    return HttpResponse::make(201, "text/plain", "created:" + req.body);
  });
  std::optional<HttpResponse> got;
  HttpRequest req;
  req.method = "POST";
  req.path = "/submit";
  req.body = "payload";
  client->request(server_ep(), req, keep(got));

  std::optional<HttpResponse> wrong;
  client->get(server_ep(), "/submit", keep(wrong));
  sim.run();
  ASSERT_TRUE(got && wrong);
  EXPECT_EQ(got->status, 201);
  EXPECT_EQ(got->body, "created:payload");
  EXPECT_EQ(wrong->status, 404);
}

TEST_F(WebFixture, KeepAliveReusesOneConnection) {
  server->add_content("/a", "text/plain", "A");
  server->add_content("/b", "text/plain", "B");
  int done = 0;
  client->get(server_ep(), "/a", [&](auto) { ++done; });
  client->get(server_ep(), "/b", [&](auto) { ++done; });
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(client->stats().counter("connections_opened").value(), 1u);
  EXPECT_EQ(server->stats().counter("connections").value(), 1u);
  EXPECT_EQ(server->stats().counter("requests").value(), 2u);
}

TEST_F(WebFixture, ConnectionCloseHeaderClosesAfterResponse) {
  server->add_content("/a", "text/plain", "A");
  HttpRequest req;
  req.path = "/a";
  req.set_header("Connection", "close");
  std::optional<HttpResponse> got;
  client->request(server_ep(), req, keep(got));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->header("connection"), "close");
  EXPECT_EQ(client->pooled_connections(), 0u);  // evicted on close
}

TEST_F(WebFixture, AsyncHandlerRespondsLater) {
  server->route_async("GET", "/slow",
                      [this](const HttpRequest&, auto respond) {
                        sim.after(sim::Time::millis(250), [respond] {
                          respond(HttpResponse::make(200, "text/plain", "ok"));
                        });
                      });
  std::optional<HttpResponse> got;
  sim::Time when;
  client->get(server_ep(), "/slow", [&](auto r) {
    if (r) got = *r;
    when = sim.now();
  });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_GT(when, sim::Time::millis(250));
}

TEST_F(WebFixture, ProcessingDelayAddsLatency) {
  server->route("GET", "/cgi", [](const HttpRequest&) {
    return HttpResponse::make(200, "text/plain", "done");
  });
  server->set_processing_delay(sim::Time::millis(100));
  sim::Time when;
  client->get(server_ep(), "/cgi", [&](auto) { when = sim.now(); });
  sim.run();
  EXPECT_GT(when, sim::Time::millis(100));
}

TEST_F(WebFixture, FailedConnectionReportsNullopt) {
  bool called = false;
  client->get({server_node->addr(), 81}, "/x", [&](auto r) {
    called = true;
    EXPECT_EQ(r, nullptr);
  });
  sim.run();
  EXPECT_TRUE(called);
}

TEST_F(WebFixture, QueryParamHelpers) {
  EXPECT_EQ(query_param("/buy?item=5&qty=2", "item"), "5");
  EXPECT_EQ(query_param("/buy?item=5&qty=2", "qty"), "2");
  EXPECT_EQ(query_param("/buy?item=5", "missing"), "");
  EXPECT_EQ(query_param("/buy", "item"), "");
  EXPECT_EQ(path_without_query("/buy?item=5"), "/buy");
  EXPECT_EQ(path_without_query("/buy"), "/buy");
}

// Edge cases pinned to the outputs of the original split-and-substr
// implementation, so the view-based scan stays a drop-in replacement.
TEST(QueryParamTest, EdgeCasesMatchSplitSemantics) {
  EXPECT_EQ(query_param("/buy&item=5", "item"), "");  // no '?'
  EXPECT_EQ(query_param("/buy?", "item"), "");        // empty query
  EXPECT_EQ(query_param("/x?username=bob&user=al", "user"), "al");
  EXPECT_EQ(query_param("/x?username=bob&user=al", "username"), "bob");
  EXPECT_EQ(query_param("/x?username=bob", "user"), "");
  EXPECT_EQ(query_param("/x?k=1&k=2", "k"), "1");  // first wins
  EXPECT_EQ(query_param("/x?flag&k=v", "flag"), "");  // no '='
  EXPECT_EQ(query_param("/x?flag&k=v", "k"), "v");
  EXPECT_EQ(query_param("/x?k=&j=2", "k"), "");  // empty value
  EXPECT_EQ(query_param("/x?k=&j=2", "j"), "2");
  EXPECT_EQ(query_param("/x?a=1&&b=2", "b"), "2");  // '&&'
  EXPECT_EQ(query_param("/x?a=1&", "a"), "1");      // trailing '&'
  EXPECT_EQ(query_param("/x?a=1&", ""), "");
  EXPECT_EQ(query_param("/x?=v", ""), "v");  // empty key matches "=v"
  EXPECT_EQ(query_param("/x?k=a=b", "k"), "a=b");
  EXPECT_EQ(query_param("/x?k=1?j=2", "k"), "1?j=2");
}

TEST_F(WebFixture, PipelinedResponsesStayInRequestOrder) {
  // Regression: a slow async handler followed by a fast static hit must not
  // let the fast response overtake the slow one on the shared connection.
  server->route_async("GET", "/slow",
                      [this](const HttpRequest&, auto respond) {
                        sim.after(sim::Time::millis(300), [respond] {
                          respond(HttpResponse::make(200, "text/plain",
                                                     "slow"));
                        });
                      });
  server->add_content("/fast", "text/plain", "fast");
  std::vector<std::string> order;
  client->get(server_ep(), "/slow", [&](auto r) {
    ASSERT_NE(r, nullptr);
    order.push_back(r->body);
  });
  client->get(server_ep(), "/fast", [&](auto r) {
    ASSERT_NE(r, nullptr);
    order.push_back(r->body);
  });
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "slow");
  EXPECT_EQ(order[1], "fast");
  EXPECT_EQ(client->stats().counter("connections_opened").value(), 1u);
}

TEST_F(WebFixture, CalleeMayMoveTheBodyOutOfAPipelinedResponse) {
  server->add_content("/a", "text/plain", "first body");
  server->add_content("/b", "text/plain", "second");
  std::vector<std::string> bodies;
  std::vector<std::string> types;
  for (const char* path : {"/a", "/b", "/a"}) {
    client->get(server_ep(), path, [&](HttpResponse* r) {
      ASSERT_NE(r, nullptr);
      types.push_back(r->header("Content-Type"));
      bodies.push_back(std::move(r->body));
    });
  }
  sim.run();
  EXPECT_EQ(bodies, (std::vector<std::string>{"first body", "second",
                                              "first body"}));
  EXPECT_EQ(types, (std::vector<std::string>(3, "text/plain")));
}

TEST_F(WebFixture, ResponsesFinishingInReverseStillGoOutInRequestOrder) {
  server->route_async("GET", "/slow",
                      [this](const HttpRequest&, auto respond) {
                        sim.after(sim::Time::millis(300), [respond] {
                          respond(HttpResponse::make(200, "text/plain",
                                                     "slow"));
                        });
                      });
  server->route_async("GET", "/medium",
                      [this](const HttpRequest&, auto respond) {
                        sim.after(sim::Time::millis(100), [respond] {
                          respond(HttpResponse::make(200, "text/plain",
                                                     "medium"));
                        });
                      });
  server->add_content("/fast", "text/plain", "fast");
  std::vector<std::string> order;
  for (const char* path : {"/slow", "/medium", "/fast", "/medium"}) {
    client->get(server_ep(), path, [&](auto r) {
      ASSERT_NE(r, nullptr);
      order.push_back(r->body);
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"slow", "medium", "fast",
                                             "medium"}));
  EXPECT_EQ(server->stats().counter("requests").value(), 4u);
  EXPECT_EQ(server->stats().counter("status_200").value(), 4u);
}

TEST_F(WebFixture, BadContentLengthGets400AndTheConnectionCloses) {
  server->add_content("/a", "text/plain", "A");
  auto sock = client_tcp->connect(server_ep());
  std::string received;
  bool closed = false;
  sock->on_data = [&](const std::string& bytes) { received += bytes; };
  sock->on_remote_close = [&] {
    closed = true;
    sock->close();
  };
  // "-5" used to wrap to a huge length: the body swallowed the pipelined
  // GET and the leftovers failed as a malformed request line.
  sock->send(
      "POST /a HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
      "GET /a HTTP/1.1\r\n\r\n");
  sim.run();
  EXPECT_TRUE(closed);
  EXPECT_EQ(received.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u)
      << received;
  EXPECT_EQ(received.find("HTTP/1.1", 1), std::string::npos) << received;
  EXPECT_EQ(server->stats().counter("parse_errors").value(), 1u);
  EXPECT_EQ(server->stats().counter("requests").value(), 0u);
}

TEST_F(WebFixture, AnsweringARequestTwiceAborts) {
  server->route_async("GET", "/twice",
                      [](const HttpRequest&, auto respond) {
                        respond(HttpResponse::make(200, "text/plain", "1"));
                        respond(HttpResponse::make(200, "text/plain", "2"));
                      });
  EXPECT_DEATH(
      {
        client->get(server_ep(), "/twice", [](auto) {});
        sim.run();
      },
      "mcs contract violation");
}

TEST_F(WebFixture, AppServerInstallsPrograms) {
  AppServer::Context ctx;
  ctx.sim = &sim;
  AppServer app{*server, ctx};
  app.install("GET", "/app/hello",
              [](const HttpRequest& req, AppServer::Context&, auto respond) {
                respond(HttpResponse::make(
                    200, "text/plain",
                    "hello " + query_param(req.path, "name")));
              });
  EXPECT_EQ(app.installed_programs(), 1u);
  std::optional<HttpResponse> got;
  client->get(server_ep(), "/app/hello?name=bob", keep(got));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->body, "hello bob");
}

}  // namespace
}  // namespace mcs::host
