#include "host/http.h"

#include <gtest/gtest.h>

namespace mcs::host {
namespace {

TEST(HttpMessageTest, RequestSerializeIncludesContentLength) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/order";
  req.set_header("Host", "shop");
  req.body = "item=5";
  const std::string wire = req.serialize();
  EXPECT_NE(wire.find("POST /order HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\nitem=5"), std::string::npos);
}

TEST(HttpMessageTest, WireSizeIsTheSerializedSize) {
  // The station prices received pages with wire_size(), so it must count
  // exactly the bytes serialize() would build.
  for (const int status : {200, 404, 502, 99, 1000}) {
    for (const std::string& body :
         {std::string{}, std::string{"x"}, std::string(3000, 'b')}) {
      HttpResponse r = HttpResponse::make(status, "text/html; charset=cp932",
                                          body);
      EXPECT_EQ(r.wire_size(), r.serialize().size()) << status;
      r.set_header("Set-Cookie", "session=abc; Path=/");
      r.set_header("Content-Length", "7");
      EXPECT_EQ(r.wire_size(), r.serialize().size()) << status;
    }
  }
}

TEST(HttpMessageTest, HeaderLookupIsCaseInsensitive) {
  HttpResponse resp;
  resp.set_header("Content-Type", "text/html");
  EXPECT_EQ(resp.header("content-type"), "text/html");
  EXPECT_EQ(resp.header("CONTENT-TYPE"), "text/html");
  EXPECT_EQ(resp.header("missing"), "");
}

TEST(HttpMessageTest, MakeHelpers) {
  const auto r = HttpResponse::make(200, "text/plain", "hi");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.reason, "OK");
  EXPECT_EQ(r.body, "hi");
  EXPECT_EQ(HttpResponse::not_found("/x").status, 404);
  EXPECT_EQ(HttpResponse::bad_request("y").status, 400);
  EXPECT_EQ(HttpResponse::server_error("z").status, 500);
  EXPECT_STREQ(reason_for_status(503), "Service Unavailable");
}

TEST(HttpParserTest, ParsesSingleRequest) {
  HttpParser p{HttpParser::Mode::kRequest};
  std::vector<HttpRequest> got;
  p.on_request = [&](HttpRequest&& r) { got.push_back(std::move(r)); };
  p.feed("GET /index.html HTTP/1.1\r\nHost: shop\r\nUser-Agent: ua\r\n\r\n");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].method, "GET");
  EXPECT_EQ(got[0].path, "/index.html");
  EXPECT_EQ(got[0].header("host"), "shop");
}

TEST(HttpParserTest, HandlesSplitDelivery) {
  HttpParser p{HttpParser::Mode::kRequest};
  int got = 0;
  std::string body;
  p.on_request = [&](HttpRequest&& r) {
    ++got;
    body = r.body;
  };
  const std::string wire =
      "POST /pay HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
  // Deliver byte by byte (worst-case TCP segmentation).
  for (char c : wire) p.feed(std::string(1, c));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(body, "hello world");
}

TEST(HttpParserTest, HandlesPipelinedMessages) {
  HttpParser p{HttpParser::Mode::kRequest};
  std::vector<std::string> paths;
  p.on_request = [&](HttpRequest&& r) { paths.push_back(r.path); };
  p.feed(
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\n\r\n"
      "GET /c HTTP/1.1\r\n\r\n");
  EXPECT_EQ(paths, (std::vector<std::string>{"/a", "/b", "/c"}));
}

TEST(HttpParserTest, ParsesResponseWithBody) {
  HttpParser p{HttpParser::Mode::kResponse};
  std::vector<HttpResponse> got;
  p.on_response = [&](HttpResponse&& r) { got.push_back(std::move(r)); };
  HttpResponse out = HttpResponse::make(404, "text/plain", "nope");
  p.feed(out.serialize());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, 404);
  EXPECT_EQ(got[0].body, "nope");
}

TEST(HttpParserTest, RoundTripLargeBody) {
  HttpParser p{HttpParser::Mode::kResponse};
  std::string body(100'000, 'q');
  body[12345] = 'Z';
  HttpResponse out = HttpResponse::make(200, "application/octet-stream", body);
  std::string received;
  p.on_response = [&](HttpResponse&& r) { received = r.body; };
  const std::string wire = out.serialize();
  // Feed in 1460-byte MSS chunks.
  for (std::size_t i = 0; i < wire.size(); i += 1460) {
    p.feed(wire.substr(i, 1460));
  }
  EXPECT_EQ(received, body);
}

TEST(HttpParserTest, MalformedStartLineFails) {
  HttpParser p{HttpParser::Mode::kRequest};
  std::string err;
  p.on_error = [&](const std::string& e) { err = e; };
  p.feed("NOT-HTTP\r\n\r\n");
  EXPECT_TRUE(p.failed());
  EXPECT_FALSE(err.empty());
}

TEST(UrlTest, ParsesHostPortPath) {
  auto u = parse_url("http://10.0.0.5:8080/cart?item=1");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "10.0.0.5");
  EXPECT_EQ(u->port, 8080);
  EXPECT_EQ(u->path, "/cart?item=1");
}

TEST(UrlTest, DefaultsPort80AndRootPath) {
  auto u = parse_url("shop.example");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "shop.example");
  EXPECT_EQ(u->port, 80);
  EXPECT_EQ(u->path, "/");
}

TEST(UrlTest, RejectsGarbage) {
  EXPECT_FALSE(parse_url("").has_value());
  EXPECT_FALSE(parse_url("http://").has_value());
  EXPECT_FALSE(parse_url("host:99999/x").has_value());
}

// Edge cases pinned to the outputs of the original substr-chain parser;
// the port keeps atoi semantics (leading blanks skipped, trailing junk
// ignored, out-of-range rejected).
TEST(UrlTest, EdgeCasesMatchAtoiSemantics) {
  EXPECT_FALSE(parse_url("http://").has_value());
  EXPECT_FALSE(parse_url("host:0").has_value());
  EXPECT_FALSE(parse_url("host:65536").has_value());
  EXPECT_FALSE(parse_url("host:-1").has_value());
  EXPECT_FALSE(parse_url("host:/x").has_value());
  EXPECT_FALSE(parse_url(":80/x").has_value());  // no host
  EXPECT_FALSE(parse_url("http://http://x").has_value());  // port ""
  EXPECT_FALSE(parse_url("HTTP://host/x").has_value());    // case-sensitive

  auto u = parse_url("host:8080");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "host");
  EXPECT_EQ(u->port, 8080);
  EXPECT_EQ(u->path, "/");

  u = parse_url("host:65535/a");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->port, 65535);
  EXPECT_EQ(u->path, "/a");

  u = parse_url("host:80abc");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "host");
  EXPECT_EQ(u->port, 80);
  EXPECT_EQ(u->path, "/");

  u = parse_url("http://host: 8080/x/y");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "host");
  EXPECT_EQ(u->port, 8080);
  EXPECT_EQ(u->path, "/x/y");

  u = parse_url("http://h/");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "h");
  EXPECT_EQ(u->port, 80);
  EXPECT_EQ(u->path, "/");
}

}  // namespace
}  // namespace mcs::host
