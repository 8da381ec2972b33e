// End-to-end middleware tests: WTP transactions, WAP gateway, i-mode gateway.

#include <gtest/gtest.h>

#include "middleware/translate.h"
#include "middleware/wap_gateway.h"
#include "middleware/wbxml.h"
#include "net/network.h"
#include "sim/random.h"
#include "sim/util.h"

namespace mcs::middleware {
namespace {

// phone --(lossy-able link)-- gateway --(wired)-- web server
struct GatewayFixture : public ::testing::Test {
  GatewayFixture() : network{sim, 41} {
    phone = network.add_node("phone");
    gateway = network.add_node("gateway");
    web = network.add_node("web");
    net::LinkConfig air;  // stands in for the wireless hop
    air.bandwidth_bps = 100e3;
    air.propagation = sim::Time::millis(50);
    phone_link = network.connect(phone, gateway, air);
    network.connect(gateway, web);
    network.compute_routes();

    phone_udp = std::make_unique<transport::UdpStack>(*phone);
    phone_tcp = std::make_unique<transport::TcpStack>(*phone);
    gw_udp = std::make_unique<transport::UdpStack>(*gateway);
    gw_tcp = std::make_unique<transport::TcpStack>(*gateway);
    web_tcp = std::make_unique<transport::TcpStack>(*web);
    web_server = std::make_unique<host::HttpServer>(*web_tcp, 80);
    web_server->add_content(
        "/index.html", "text/html",
        "<html><head><title>Shop</title></head><body>"
        "<h1>Welcome</h1><p>Special offers today</p>"
        "<img src=\"banner.gif\" alt=\"banner\">"
        "<a href=\"/cart\">Your cart</a></body></html>");
  }

  std::string web_host() const { return web->addr().to_string() + ":80"; }

  sim::Simulator sim;
  net::Network network;
  net::Node* phone;
  net::Node* gateway;
  net::Node* web;
  net::Link* phone_link;
  std::unique_ptr<transport::UdpStack> phone_udp;
  std::unique_ptr<transport::TcpStack> phone_tcp;
  std::unique_ptr<transport::UdpStack> gw_udp;
  std::unique_ptr<transport::TcpStack> gw_tcp;
  std::unique_ptr<transport::TcpStack> web_tcp;
  std::unique_ptr<host::HttpServer> web_server;
};

TEST(WspTest, RequestResponseEncoding) {
  EXPECT_EQ(wsp_encode_request("10.0.0.1:80/x"), "GET 10.0.0.1:80/x");
  EXPECT_EQ(*wsp_decode_request("GET host/path"), "host/path");
  EXPECT_FALSE(wsp_decode_request("POST x").has_value());
  const std::string resp = wsp_encode_response(200, "text/vnd.wap.wml",
                                               "<wml/>");
  const auto back = wsp_decode_response(resp);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, 200);
  EXPECT_EQ(back->content_type, "text/vnd.wap.wml");
  EXPECT_EQ(back->body, "<wml/>");
  EXPECT_FALSE(wsp_decode_response("no newline").has_value());
}

TEST(ResolverTest, DottedQuad) {
  const auto r = dotted_quad_resolver();
  const auto ep = r("10.0.0.5", 80);
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->addr, (net::IpAddress{10, 0, 0, 5}));
  EXPECT_FALSE(r("shop.example", 80).has_value());
  EXPECT_FALSE(r("10.0.0", 80).has_value());
  EXPECT_FALSE(r("10.0.0.999", 80).has_value());
}

// Each part reads as strtol reads it; the part count and emptiness rules
// are those of splitting on '.'.
TEST(ResolverTest, DottedQuadEdgeCasesMatchStrtol) {
  const auto r = dotted_quad_resolver();
  EXPECT_FALSE(r("10.0.0.5.", 80).has_value());   // five parts
  EXPECT_FALSE(r(".10.0.0", 80).has_value());     // empty part
  EXPECT_FALSE(r("1..2.3", 80).has_value());
  EXPECT_FALSE(r("10.0.0.-1", 80).has_value());
  EXPECT_FALSE(r("10.0.0.4294967301", 80).has_value());  // no wrap to 5
  EXPECT_EQ(r(" 10.0.0.5x", 80)->addr, (net::IpAddress{10, 0, 0, 5}));
  EXPECT_EQ(r("10.-0.a.+7", 80)->addr, (net::IpAddress{10, 0, 0, 7}));
}

TEST_F(GatewayFixture, WtpInvokeResultRoundTrip) {
  WtpEndpoint responder{*gw_udp, 9300};
  WtpEndpoint initiator{*phone_udp, 9300};
  responder.on_invoke = [](const std::string& payload, net::Endpoint,
                           auto respond) {
    respond("echo:" + payload);
  };
  std::optional<std::string> got;
  initiator.invoke({gateway->addr(), 9300}, "hello",
                   [&](std::optional<std::string> r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "echo:hello");
  EXPECT_EQ(initiator.stats().counter("transactions_completed").value(), 1u);
}

TEST_F(GatewayFixture, WtpSegmentsLargePayloads) {
  WtpEndpoint responder{*gw_udp, 9300};
  WtpEndpoint initiator{*phone_udp, 9300};
  const std::string big(5'000, 'z');  // > 4 segments at mtu 1200
  responder.on_invoke = [&](const std::string& payload, net::Endpoint,
                            auto respond) {
    EXPECT_EQ(payload, big);
    respond(std::string(3'000, 'w'));
  };
  std::optional<std::string> got;
  initiator.invoke({gateway->addr(), 9300}, std::string{big},
                   [&](std::optional<std::string> r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 3'000u);
  EXPECT_GT(initiator.stats().counter("datagrams_sent").value(), 4u);
}

TEST_F(GatewayFixture, WtpRetransmitsThroughLoss) {
  // Drop the first three WTP datagrams crossing the gateway.
  int dropped = 0;
  gateway->add_filter([&](const net::PacketPtr& p, net::Interface*) {
    if (p->proto == net::Protocol::kUdp && p->udp.dst_port == 9300 &&
        dropped < 3) {
      ++dropped;
      return net::FilterVerdict::kConsumed;
    }
    return net::FilterVerdict::kPass;
  });
  WtpEndpoint responder{*gw_udp, 9300};
  WtpEndpoint initiator{*phone_udp, 9300};
  responder.on_invoke = [](const std::string&, net::Endpoint, auto respond) {
    respond("ok");
  };
  std::optional<std::string> got;
  initiator.invoke({gateway->addr(), 9300}, "req",
                   [&](std::optional<std::string> r) { got = r; });
  sim.run_until(sim::Time::seconds(30.0));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "ok");
  EXPECT_GT(initiator.stats().counter("retransmissions").value(), 0u);
}

TEST_F(GatewayFixture, WtpDuplicateInvokeIsNotReExecuted) {
  WtpEndpoint responder{*gw_udp, 9300};
  WtpEndpoint initiator{*phone_udp, 9300};
  int executions = 0;
  // Delay the result beyond the initiator's retry interval so a duplicate
  // invoke reaches the responder while the first is still pending / cached.
  responder.on_invoke = [&](const std::string&, net::Endpoint, auto respond) {
    ++executions;
    sim.after(sim::Time::seconds(1.0),
              [respond = std::move(respond)] { respond("slow"); });
  };
  std::optional<std::string> got;
  initiator.invoke({gateway->addr(), 9300}, "req",
                   [&](std::optional<std::string> r) { got = r; });
  sim.run_until(sim::Time::seconds(30.0));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(executions, 1);
}

TEST_F(GatewayFixture, WtpFailsAfterMaxRetries) {
  // No responder bound on the far side at all.
  WtpEndpoint initiator{*phone_udp, 9333};
  std::optional<std::string> got = "sentinel";
  initiator.invoke({gateway->addr(), 9333}, "req",
                   [&](std::optional<std::string> r) { got = r; });
  sim.run_until(sim::Time::minutes(2.0));
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(initiator.stats().counter("transactions_failed").value(), 1u);
}

TEST_F(GatewayFixture, WapGatewayTranslatesHtmlToWbxmlDeck) {
  WapGateway gw{*gateway, *gw_udp, *gw_tcp, dotted_quad_resolver()};
  WtpEndpoint phone_wtp{*phone_udp, kWapGatewayPort};
  std::optional<std::string> result;
  phone_wtp.invoke({gateway->addr(), kWapGatewayPort},
                   wsp_encode_request(web_host() + "/index.html"),
                   [&](std::optional<std::string> r) { result = r; });
  sim.run();
  ASSERT_TRUE(result.has_value());
  const auto wsp = wsp_decode_response(*result);
  ASSERT_TRUE(wsp.has_value());
  EXPECT_EQ(wsp->status, 200);
  EXPECT_EQ(wsp->content_type, "application/vnd.wap.wmlc");
  const auto deck = wbxml_decode(wsp->body);
  ASSERT_TRUE(deck.has_value());
  ASSERT_NE(deck->find("card"), nullptr);
  EXPECT_EQ(*deck->find("card")->attr("title"), "Shop");
  const std::string text = deck->root.inner_text();
  EXPECT_NE(text.find("Welcome"), std::string::npos);
  EXPECT_NE(text.find("[banner]"), std::string::npos);  // image -> alt
  EXPECT_EQ(gw.stats().requests, 1u);
  EXPECT_EQ(gw.stats().translations, 1u);
  EXPECT_GT(gw.stats().html_bytes_in, 0u);
}

TEST_F(GatewayFixture, WapGatewayWbxmlShrinksAirBytes) {
  // Same page through a WBXML gateway and a text-WML gateway.
  auto run = [&](bool wbxml, std::uint16_t port) {
    WapGatewayConfig cfg;
    cfg.wtp_port = port;
    cfg.encode_wbxml = wbxml;
    WapGateway gw{*gateway, *gw_udp, *gw_tcp, dotted_quad_resolver(), cfg};
    WtpEndpoint phone_wtp{*phone_udp, port};
    std::size_t air = 0;
    phone_wtp.invoke({gateway->addr(), port},
                     wsp_encode_request(web_host() + "/index.html"),
                     [&](std::optional<std::string> r) {
                       if (r.has_value()) air = r->size();
                     });
    sim.run();
    return air;
  };
  const std::size_t wbxml_bytes = run(true, 9201);
  const std::size_t text_bytes = run(false, 9202);
  ASSERT_GT(wbxml_bytes, 0u);
  ASSERT_GT(text_bytes, 0u);
  EXPECT_LT(wbxml_bytes, text_bytes);
}

TEST_F(GatewayFixture, WapGatewayReportsOriginFailures) {
  WapGateway gw{*gateway, *gw_udp, *gw_tcp, dotted_quad_resolver()};
  WtpEndpoint phone_wtp{*phone_udp, kWapGatewayPort};
  std::optional<std::string> result;
  // Port 81: nothing listens there.
  phone_wtp.invoke({gateway->addr(), kWapGatewayPort},
                   wsp_encode_request(web->addr().to_string() + ":81/x"),
                   [&](std::optional<std::string> r) { result = r; });
  sim.run_until(sim::Time::minutes(1.0));
  ASSERT_TRUE(result.has_value());
  const auto wsp = wsp_decode_response(*result);
  ASSERT_TRUE(wsp.has_value());
  EXPECT_EQ(wsp->status, 502);
  EXPECT_EQ(gw.stats().upstream_failures, 1u);
}

TEST_F(GatewayFixture, IModeGatewayServesChtml) {
  IModeGateway gw{*gw_tcp, dotted_quad_resolver()};
  host::HttpClient phone_http{*phone_tcp};
  std::optional<host::HttpResponse> got;
  phone_http.get({gateway->addr(), kIModeGatewayPort},
                 sim::cat("/", web_host(), "/index.html"),
                 [&](host::HttpResponse* r) { if (r) got = *r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 200);
  const auto doc = parse_markup(got->body, MarkupKind::kChtml);
  EXPECT_NE(doc.root.inner_text().find("Welcome"), std::string::npos);
  EXPECT_EQ(doc.find("script"), nullptr);
  EXPECT_EQ(gw.stats().requests, 1u);
}

TEST_F(GatewayFixture, IModePersistentConnectionHandlesManyRequests) {
  IModeGateway gw{*gw_tcp, dotted_quad_resolver()};
  host::HttpClient phone_http{*phone_tcp};
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    phone_http.get({gateway->addr(), kIModeGatewayPort},
                   sim::cat("/", web_host(), "/index.html"),
                   [&](host::HttpResponse* r) {
                     if (r != nullptr && r->status == 200) ++done;
                   });
  }
  sim.run();
  EXPECT_EQ(done, 5);
  // Always-on: the phone used one TCP connection for everything.
  EXPECT_EQ(phone_http.stats().counter("connections_opened").value(), 1u);
}

// --- Page memo: repeated bodies translate once, answers stay the same -----

// Pages the memo tests serve: parser quirks, two equal-length bodies that
// differ in one byte, and random tag soup.
std::vector<std::string> memo_pages() {
  std::vector<std::string> pages = {
      "<html><head><title>Shop</title></head><body><p>offers</p></body>",
      "<ul><li>one<li>two<li>three</ul>",
      "<img src=x.png alt='pic'><br><hr>",
      "<table><tr><td>a</td><td>b</td></tr></table>",
      "<script>if (a<b) x('</p>');</script><p>visible</p>",
      "<p>item A</p>",
      "<p>item B</p>",
      "",
  };
  static const char* kTags[] = {"p", "b", "a", "img", "table", "td",
                                "li", "form", "h2", "div", "card"};
  sim::Rng rng{1601};
  for (int i = 0; i < 8; ++i) {
    std::string html;
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    for (int j = 0; j < n; ++j) {
      const char* tag = kTags[rng.uniform_int(0, std::size(kTags) - 1)];
      html += sim::strf("<%s alt='w%d'>t%lld ", tag, j,
                        static_cast<long long>(rng.uniform_int(0, 999)));
      if (rng.bernoulli(0.5)) html += sim::strf("</%s>", tag);
    }
    pages.push_back(html);
  }
  return pages;
}

struct MemoFixture : GatewayFixture {
  MemoFixture() : pages{memo_pages()} {
    for (std::size_t i = 0; i < pages.size(); ++i) {
      web_server->add_content(sim::strf("/p%zu", i), "text/html", pages[i]);
    }
  }

  // One WSP exchange through the WAP gateway on `port`.
  std::string wap_fetch(std::uint16_t port, const std::string& path) {
    WtpEndpoint phone_wtp{*phone_udp, static_cast<std::uint16_t>(port + 100)};
    std::optional<std::string> result;
    phone_wtp.invoke({gateway->addr(), port},
                     wsp_encode_request(web_host() + path),
                     [&](std::optional<std::string> r) { result = r; });
    sim.run();
    return result.value_or("<no answer>");
  }

  std::string imode_fetch(host::HttpClient& phone_http,
                          const std::string& path) {
    std::optional<host::HttpResponse> got;
    phone_http.get({gateway->addr(), kIModeGatewayPort},
                   sim::cat("/", web_host(), path),
                   [&](host::HttpResponse* r) { if (r) got = *r; });
    sim.run();
    return got.has_value() && got->status == 200 ? got->body : "<failed>";
  }

  std::vector<std::string> pages;
};

std::string expected_wsp(const std::string& html, bool wbxml) {
  std::string text;
  std::string deck;
  translate_html(html, MarkupKind::kWml, AdaptationConfig{}, text,
                 wbxml ? &deck : nullptr);
  return wbxml ? wsp_encode_response(200, "application/vnd.wap.wmlc", deck)
               : wsp_encode_response(200, "text/vnd.wap.wml", text);
}

std::string expected_chtml(const std::string& html) {
  std::string text;
  translate_html(html, MarkupKind::kChtml, AdaptationConfig{}, text);
  return text;
}

TEST_F(MemoFixture, WapFirstAndRepeatedAnswersEqualFreshTranslation) {
  for (const bool wbxml : {true, false}) {
    WapGatewayConfig cfg;
    cfg.encode_wbxml = wbxml;
    cfg.wtp_port = wbxml ? 9201 : 9202;
    WapGateway gw{*gateway, *gw_udp, *gw_tcp, dotted_quad_resolver(), cfg};
    for (int pass = 0; pass < 3; ++pass) {
      for (std::size_t i = 0; i < pages.size(); ++i) {
        EXPECT_EQ(wap_fetch(cfg.wtp_port, sim::strf("/p%zu", i)),
                  expected_wsp(pages[i], wbxml))
            << "wbxml=" << wbxml << " pass " << pass << " page " << i;
      }
    }
    EXPECT_EQ(gw.stats().translations, 3 * pages.size());
  }
}

TEST_F(MemoFixture, IModeFirstAndRepeatedAnswersEqualFreshTranslation) {
  IModeGateway gw{*gw_tcp, dotted_quad_resolver()};
  host::HttpClient phone_http{*phone_tcp};
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < pages.size(); ++i) {
      EXPECT_EQ(imode_fetch(phone_http, sim::strf("/p%zu", i)),
                expected_chtml(pages[i]))
          << "pass " << pass << " page " << i;
    }
  }
  EXPECT_EQ(gw.stats().requests, 3 * pages.size());
}

TEST_F(MemoFixture, EqualLengthBodiesDifferingInOneByteBothTranslate) {
  // pages[5] and pages[6] are "<p>item A</p>" and "<p>item B</p>".
  ASSERT_EQ(pages[5].size(), pages[6].size());
  WapGateway wap{*gateway, *gw_udp, *gw_tcp, dotted_quad_resolver()};
  IModeGateway imode{*gw_tcp, dotted_quad_resolver()};
  host::HttpClient phone_http{*phone_tcp};
  for (int i = 0; i < 4; ++i) {
    const std::size_t page = 5 + static_cast<std::size_t>(i % 2);
    const std::string path = sim::strf("/p%zu", page);
    EXPECT_EQ(wap_fetch(kWapGatewayPort, path),
              expected_wsp(pages[page], true));
    EXPECT_EQ(imode_fetch(phone_http, path), expected_chtml(pages[page]));
  }
}

TEST_F(MemoFixture, OldestPageIsRetranslatedAfterTheMemoFills) {
  WapGateway wap{*gateway, *gw_udp, *gw_tcp, dotted_quad_resolver()};
  IModeGateway imode{*gw_tcp, dotted_quad_resolver()};
  host::HttpClient phone_http{*phone_tcp};
  std::vector<std::string> html;
  for (std::size_t i = 0; i <= kGatewayMemoEntries; ++i) {
    html.push_back(sim::strf("<html><body><h1>Item %zu</h1></body></html>", i));
    web_server->add_content(sim::strf("/item%zu", i), "text/html", html[i]);
  }
  for (std::size_t i = 0; i < html.size(); ++i) {
    const std::string path = sim::strf("/item%zu", i);
    EXPECT_EQ(wap_fetch(kWapGatewayPort, path), expected_wsp(html[i], true));
    EXPECT_EQ(imode_fetch(phone_http, path), expected_chtml(html[i]));
  }
  // The first page has been evicted from both memos; it must come back
  // right, and so must the newest, which is still memoized.
  for (const std::size_t i : {std::size_t{0}, html.size() - 1}) {
    const std::string path = sim::strf("/item%zu", i);
    EXPECT_EQ(wap_fetch(kWapGatewayPort, path), expected_wsp(html[i], true));
    EXPECT_EQ(imode_fetch(phone_http, path), expected_chtml(html[i]));
  }
}

TEST_F(MemoFixture, CountersAreTheSameOnHitsAsOnMisses) {
  // One gateway sees each page once (all misses); another sees the same
  // pages three times over (misses, then hits). Every counter of the second
  // must be exactly three times the first's.
  WapGatewayConfig once_cfg;
  once_cfg.wtp_port = 9301;
  WapGateway once{*gateway, *gw_udp, *gw_tcp, dotted_quad_resolver(),
                  once_cfg};
  for (std::size_t i = 0; i < pages.size(); ++i) {
    wap_fetch(9301, sim::strf("/p%zu", i));
  }
  WapGatewayConfig thrice_cfg;
  thrice_cfg.wtp_port = 9302;
  WapGateway thrice{*gateway, *gw_udp, *gw_tcp, dotted_quad_resolver(),
                    thrice_cfg};
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < pages.size(); ++i) {
      wap_fetch(9302, sim::strf("/p%zu", i));
    }
  }
  EXPECT_EQ(thrice.stats().requests, 3 * once.stats().requests);
  EXPECT_EQ(thrice.stats().translations, 3 * once.stats().translations);
  EXPECT_EQ(thrice.stats().html_bytes_in, 3 * once.stats().html_bytes_in);
  EXPECT_EQ(thrice.stats().wml_bytes_out, 3 * once.stats().wml_bytes_out);
  EXPECT_EQ(thrice.stats().air_bytes_out, 3 * once.stats().air_bytes_out);

  IModeGateway imode{*gw_tcp, dotted_quad_resolver()};
  host::HttpClient phone_http{*phone_tcp};
  std::uint64_t first_pass_bytes = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < pages.size(); ++i) {
      imode_fetch(phone_http, sim::strf("/p%zu", i));
    }
    if (pass == 0) first_pass_bytes = imode.stats().chtml_bytes_out;
  }
  EXPECT_EQ(imode.stats().chtml_bytes_out, 3 * first_pass_bytes);
  EXPECT_EQ(imode.stats().requests, 3 * pages.size());
}

}  // namespace
}  // namespace mcs::middleware
