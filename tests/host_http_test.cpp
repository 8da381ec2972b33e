#include "host/http.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/util.h"

namespace mcs::host {
namespace {

// The header store HttpHeaders replaced: a std::map with exact-case keys,
// looked up case-insensitively in key order, and its serializer. It is the
// golden reference for wire compatibility: every byte a message writes
// must equal what this map-based writer wrote.
struct MapHeaders {
  std::map<std::string, std::string, std::less<>> fields;

  void set(const std::string& name, const std::string& value) {
    fields[name] = value;
  }
  std::string get(const std::string& name) const {
    for (const auto& [k, v] : fields) {
      if (sim::iequals(k, name)) return v;
    }
    return "";
  }
  std::string serialize(const std::string& start_line,
                        const std::string& body) const {
    std::string out = start_line + "\r\n";
    bool have_length = false;
    for (const auto& [k, v] : fields) {
      out += k + ": " + v + "\r\n";
      if (sim::iequals(k, "content-length")) have_length = true;
    }
    if (!have_length && !body.empty()) {
      out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    return out + "\r\n" + body;
  }
};

// Fields as a parsed message carries them: the block's wire bytes.
std::string fields_of(const HttpHeaders& h) { return std::string{h.wire()}; }

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

TEST(HttpMessageTest, GoldenRequestBytes) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/shop/buy?item=3";
  req.set_header("User-Agent", "mcs-imode-gateway/1.0");
  req.set_header("Host", "10.0.0.2:80");
  req.set_header("host", "lower-case spelling is a separate field");
  req.set_header("Cookie", "sid=1");
  req.set_header("Host", "10.0.0.3:80");  // exact case: overwrites
  req.body = "qty=1";
  const std::string golden =
      "POST /shop/buy?item=3 HTTP/1.1\r\n"
      "Cookie: sid=1\r\n"
      "Host: 10.0.0.3:80\r\n"
      "User-Agent: mcs-imode-gateway/1.0\r\n"
      "host: lower-case spelling is a separate field\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "qty=1";
  EXPECT_EQ(req.serialize(), golden);
  EXPECT_EQ(req.wire_size(), golden.size());
  // Lookup ignores case and reads the first field in byte order.
  EXPECT_EQ(req.header("HOST"), "10.0.0.3:80");
  EXPECT_EQ(req.header("user-agent"), "mcs-imode-gateway/1.0");
}

TEST(HttpMessageTest, GoldenResponseBytesKeepAnExplicitContentLength) {
  HttpResponse resp = HttpResponse::make(404, "text/plain", "gone");
  resp.set_header("Server", "mcs-httpd/1.0");
  resp.set_header("content-length", "4");
  const std::string golden =
      "HTTP/1.1 404 Not Found\r\n"
      "Content-Type: text/plain\r\n"
      "Server: mcs-httpd/1.0\r\n"
      "content-length: 4\r\n"
      "\r\n"
      "gone";
  EXPECT_EQ(resp.serialize(), golden);
  EXPECT_EQ(resp.wire_size(), golden.size());
}

TEST(HttpMessageTest, RandomHeaderSetsMatchTheMapReference) {
  const std::vector<std::string> names = {
      "Host",   "host",       "HOST",           "Content-Type", "content-type",
      "Server", "Connection", "Content-Length", "X-Peer",       "Set-Cookie",
      "a",      "Zeta",       "_x",             "",             "User-Agent"};
  const std::vector<std::string> values = {
      "", "v", "10.0.0.2:80", "text/html; charset=cp932", "a: b, c",
      std::string(200, 'x'), "12"};
  std::mt19937 rng{7};
  for (int round = 0; round < 400; ++round) {
    HttpRequest req;
    HttpResponse resp;
    MapHeaders ref;
    const int n = static_cast<int>(rng() % 9);
    for (int i = 0; i < n; ++i) {
      const std::string& name = names[rng() % names.size()];
      const std::string& value = values[rng() % values.size()];
      req.set_header(name, value);
      resp.set_header(name, value);
      ref.set(name, value);
    }
    req.body = (rng() % 2) != 0 ? "body" : "";
    resp.body = req.body;
    const std::string want_req = ref.serialize("GET / HTTP/1.1", req.body);
    EXPECT_EQ(req.serialize(), want_req) << round;
    EXPECT_EQ(req.wire_size(), want_req.size()) << round;
    const std::string want_resp = ref.serialize("HTTP/1.1 200 OK", resp.body);
    EXPECT_EQ(resp.serialize(), want_resp) << round;
    EXPECT_EQ(resp.wire_size(), want_resp.size()) << round;
    for (const char* probe :
         {"host", "CONTENT-TYPE", "x-peer", "", "missing", "set-cookie"}) {
      EXPECT_EQ(req.header(probe), ref.get(probe)) << round << " " << probe;
    }
  }
}

TEST(HttpHeadersDeathTest, NewlineInAFieldAborts) {
  // A newline would split the field on the wire (header injection).
  HttpRequest req;
  EXPECT_DEATH(req.set_header("X-A", "1\r\nInjected: yes"),
               "mcs contract violation");
  EXPECT_DEATH(req.set_header("Bad:Name", "v"), "mcs contract violation");
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

TEST(HttpParserTest, RepeatedFieldLinesFoldIntoOneValue) {
  HttpParser p{HttpParser::Mode::kResponse};
  std::vector<HttpResponse> got;
  p.on_response = [&](HttpResponse&& r) { got.push_back(std::move(r)); };
  p.feed(
      "HTTP/1.1 200 OK\r\n"
      "Set-Cookie: a=1\r\n"
      "Content-Length: 0\r\n"
      "Set-Cookie: b=2\r\n"
      "set-cookie: c=3\r\n"
      "\r\n");
  ASSERT_EQ(got.size(), 1u);
  // Same exact name: one comma-joined field. Another spelling stays its own
  // field, after the first in byte order.
  EXPECT_EQ(fields_of(got[0].headers),
            "Content-Length: 0\r\nSet-Cookie: a=1, b=2\r\n"
            "set-cookie: c=3\r\n");
  EXPECT_EQ(got[0].header("SET-COOKIE"), "a=1, b=2");

  CookieJar jar;
  jar.update_from("10.0.0.2:80", got[0]);
  EXPECT_EQ(jar.size(), 2u);
  EXPECT_EQ(jar.cookie_header("10.0.0.2:80"), "a=1; b=2");
}

// One framing error per case: the parser fails with the message, emits
// nothing for the bad message, and ignores everything after it.
TEST(HttpParserTest, BadContentLengthIsAParseError) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"-5", "bad Content-Length: -5"},
      {"+5", "bad Content-Length: +5"},
      {"5x", "bad Content-Length: 5x"},
      {"0x10", "bad Content-Length: 0x10"},
      {"", "bad Content-Length: "},
      {"1 2", "bad Content-Length: 1 2"},
      {"18446744073709551616", "bad Content-Length: 18446744073709551616"},
      {"99999999999999999999999",
       "bad Content-Length: 99999999999999999999999"},
  };
  for (const auto& [value, why] : cases) {
    HttpParser p{HttpParser::Mode::kRequest};
    std::vector<std::string> paths;
    std::string err;
    p.on_request = [&](HttpRequest&& r) { paths.push_back(r.path); };
    p.on_error = [&](const std::string& e) { err = e; };
    p.feed("GET /before HTTP/1.1\r\n\r\n"
           "POST /bad HTTP/1.1\r\nContent-Length: " + value +
           "\r\n\r\n"
           "GET /after HTTP/1.1\r\n\r\n");
    EXPECT_TRUE(p.failed()) << value;
    EXPECT_EQ(err, why);
    EXPECT_EQ(paths, std::vector<std::string>{"/before"}) << value;
    p.feed("GET /later HTTP/1.1\r\n\r\n");
    EXPECT_EQ(paths.size(), 1u) << value;
  }
}

TEST(HttpParserTest, RepeatedContentLengthIsAParseError) {
  HttpParser p{HttpParser::Mode::kRequest};
  std::string err;
  p.on_request = [](HttpRequest&&) { ADD_FAILURE() << "framed a message"; };
  p.on_error = [&](const std::string& e) { err = e; };
  p.feed("POST /x HTTP/1.1\r\nContent-Length: 1\r\ncontent-length: 1"
         "\r\n\r\nab");
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(err, "repeated Content-Length");
}

TEST(HttpParserTest, ContentLengthValueIsTrimmed) {
  HttpParser p{HttpParser::Mode::kRequest};
  std::string body;
  p.on_request = [&](HttpRequest&& r) { body = r.body; };
  p.feed("POST /x HTTP/1.1\r\nContent-Length:   3 \r\n\r\nabc");
  EXPECT_FALSE(p.failed());
  EXPECT_EQ(body, "abc");
}

// A message as the tests compare it: every parsed field.
struct Parsed {
  std::string start;
  std::string fields;
  std::string body;
  bool operator==(const Parsed&) const = default;
};

// Feeds `wire` to a parser cut at `cuts` and returns every message it
// emits.
std::vector<Parsed> parse_stream(HttpParser::Mode mode,
                                 const std::string& wire,
                                 const std::vector<std::size_t>& cuts) {
  HttpParser p{mode};
  std::vector<Parsed> out;
  p.on_request = [&](HttpRequest&& r) {
    out.push_back({r.method + " " + r.path + " " + r.version,
                   fields_of(r.headers), r.body});
  };
  p.on_response = [&](HttpResponse&& r) {
    out.push_back({r.version + " " + std::to_string(r.status) + " " +
                       r.reason,
                   fields_of(r.headers), r.body});
  };
  p.on_error = [](const std::string& e) { ADD_FAILURE() << e; };
  std::size_t from = 0;
  for (const std::size_t cut : cuts) {
    p.feed(wire.substr(from, cut - from));
    from = cut;
  }
  p.feed(wire.substr(from));
  return out;
}

// Random segment boundaries over `n` bytes, sizes 1..max_seg.
std::vector<std::size_t> random_cuts(std::mt19937& rng, std::size_t n,
                                     std::size_t max_seg) {
  std::vector<std::size_t> cuts;
  for (std::size_t at = 1 + rng() % max_seg; at < n;
       at += 1 + rng() % max_seg) {
    cuts.push_back(at);
  }
  return cuts;
}

std::string pipelined_requests() {
  std::string wire;
  HttpRequest a;
  a.path = "/10.0.0.2:80/shop/catalog?page=2";
  a.set_header("Host", "10.0.0.9:8001");
  a.set_header("User-Agent", "MCS-MicroBrowser/1.0");
  wire += a.serialize();
  HttpRequest b;
  b.method = "POST";
  b.path = "/bank/prepare?txn=t-1&amount=9.50";
  b.body = "line one\r\n\r\nline two";  // a blank line inside the body
  wire += b.serialize();
  wire += "GET /folded HTTP/1.0\r\nAccept: a\r\nAccept: b\r\n\r\n";
  HttpRequest c;
  c.path = "/big";
  c.body = std::string(5000, 'z');
  c.set_header("Connection", "close");
  wire += c.serialize();
  return wire;
}

// `wire` cut once at every byte offset, then into random segment sizes,
// must parse into the same messages as when fed whole.
void expect_every_split_parses_alike(HttpParser::Mode mode,
                                     const std::string& wire,
                                     const std::vector<Parsed>& whole,
                                     unsigned seed) {
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    ASSERT_EQ(parse_stream(mode, wire, {cut}), whole) << "cut at " << cut;
  }
  std::mt19937 rng{seed};
  for (int round = 0; round < 200; ++round) {
    const std::size_t max_seg = 1 + rng() % 1500;
    ASSERT_EQ(parse_stream(mode, wire, random_cuts(rng, wire.size(), max_seg)),
              whole)
        << "round " << round;
  }
}

TEST(HttpParserTest, EverySplitOfAPipelinedStreamParsesAlike) {
  const std::string wire = pipelined_requests();
  const std::vector<Parsed> whole =
      parse_stream(HttpParser::Mode::kRequest, wire, {});
  ASSERT_EQ(whole.size(), 4u);
  EXPECT_EQ(whole[1].body, "line one\r\n\r\nline two");
  EXPECT_EQ(whole[2].fields, "Accept: a, b\r\n");
  expect_every_split_parses_alike(HttpParser::Mode::kRequest, wire, whole, 11);
}

TEST(HttpParserTest, EverySplitOfAPipelinedResponseStreamParsesAlike) {
  std::string wire;
  HttpResponse a = HttpResponse::make(200, "text/html; charset=cp932",
                                      "<html>" + std::string(3000, 'p'));
  a.set_header("Server", "imode-gw/1.0");
  wire += a.serialize();
  wire += HttpResponse::make(404, "text/plain", "not found: /x").serialize();
  wire += "HTTP/1.1 204\r\nSet-Cookie: a=1\r\nSet-Cookie: b=2\r\n\r\n";
  const std::vector<Parsed> whole =
      parse_stream(HttpParser::Mode::kResponse, wire, {});
  ASSERT_EQ(whole.size(), 3u);
  EXPECT_EQ(whole[2].start, "HTTP/1.1 204 ");
  expect_every_split_parses_alike(HttpParser::Mode::kResponse, wire, whole,
                                  13);
}

TEST(HttpParserTest, LargeBodyOverManySegmentsThenAPipelinedMessage) {
  // Larger than the carry buffer's up-front reservation, so the buffer
  // also grows while the body arrives.
  std::string body(1'500'000, 'm');
  for (std::size_t i = 0; i < body.size(); i += 4099) {
    body[i] = static_cast<char>('a' + i % 26);
  }
  HttpResponse big = HttpResponse::make(200, "application/octet-stream", body);
  const std::string wire =
      big.serialize() +
      HttpResponse::make(200, "text/plain", "next").serialize();
  HttpParser p{HttpParser::Mode::kResponse};
  std::vector<std::string> bodies;
  p.on_response = [&](HttpResponse&& r) { bodies.push_back(r.body); };
  for (std::size_t i = 0; i < wire.size(); i += 1460) {
    p.feed(wire.substr(i, 1460));
  }
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[0], body);
  EXPECT_EQ(bodies[1], "next");
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

  // The port saturates instead of wrapping: 2^32 + 80 is not port 80.
  EXPECT_FALSE(parse_url("host:4294967376/x").has_value());
  EXPECT_FALSE(parse_url("host:99999999999999999999").has_value());

  u = parse_url("http://h/");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "h");
  EXPECT_EQ(u->port, 80);
  EXPECT_EQ(u->path, "/");
}

}  // namespace
}  // namespace mcs::host
