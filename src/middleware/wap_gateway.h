#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "host/http_server.h"
#include "obs/metrics.h"
#include "security/wtls.h"
#include "middleware/adaptation.h"
#include "middleware/page_memo.h"
#include "middleware/wtp.h"

namespace mcs::middleware {

// Maps a symbolic or dotted host name (plus port) to a network endpoint;
// plays the role of DNS for gateways and browsers.
using HostResolver =
    std::function<std::optional<net::Endpoint>(const std::string& host,
                                               std::uint16_t port)>;
// Resolves dotted-quad hosts only ("10.0.0.5"); returns nullopt otherwise.
HostResolver dotted_quad_resolver();

inline constexpr std::uint16_t kWapGatewayPort = 9201;

// WSP-lite request/response carried inside WTP transactions:
//   request:  "GET <url>"
//   response: "<status> <content-type>\n" <body bytes>
struct WspResponse {
  int status = 0;
  std::string content_type;
  std::string body;
};
std::string wsp_encode_request(const std::string& url);
std::optional<std::string> wsp_decode_request(const std::string& payload);
std::string wsp_encode_response(int status, const std::string& content_type,
                                const std::string& body);
std::optional<WspResponse> wsp_decode_response(const std::string& payload);

// Pre-shared CA MAC key that phones ship with (models the root certificate
// burned into the handset firmware).
inline constexpr std::uint64_t kDefaultWtlsCaKey = 0xCA11AB1E5EC12E7ull;

// A gateway's translation of one HTML body, as its page memo keeps it:
// WML or cHTML text, plus the WBXML deck when the WAP gateway encodes one.
struct TranslatedPage {
  std::string text;
  std::string wbxml;
  std::size_t bytes() const { return text.capacity() + wbxml.capacity(); }
};

// Simulated CPU cost of HTML->WML translation + WBXML compilation.
inline constexpr sim::Time kWapTranslationDelay = sim::Time::millis(5);

struct WapGatewayConfig {
  std::uint16_t wtp_port = kWapGatewayPort;
  bool encode_wbxml = true;  // binary-encode decks for the air link
  AdaptationConfig adaptation;
  std::uint64_t wtls_ca_key = kDefaultWtlsCaKey;
};

// The WAP Gateway (§5.1): "requests from mobile stations are sent as a URL
// through the network to the WAP Gateway; responses are sent from the Web
// server to the WAP Gateway in HTML and are then translated in WML and sent
// to the mobile stations." Speaks WTP/WDP toward the phone and HTTP/TCP
// toward origin servers, and serves WTLS sessions to phones that request
// them. Note the historical "WAP gap": the gateway terminates WTLS, so
// content transits the gateway in plaintext between decryption and the
// wired TLS hop.
class WapGateway {
 public:
  WapGateway(net::Node& node, transport::UdpStack& udp,
             transport::TcpStack& tcp, HostResolver resolver,
             WapGatewayConfig cfg = {});
  WapGateway(const WapGateway&) = delete;
  WapGateway& operator=(const WapGateway&) = delete;

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t upstream_failures = 0;
    std::uint64_t html_bytes_in = 0;    // from origin servers
    std::uint64_t wml_bytes_out = 0;    // textual WML after translation
    std::uint64_t air_bytes_out = 0;    // actually sent to the phone
    std::uint64_t translations = 0;
  };
  const Stats& stats() const { return stats_; }
  // Export the gateway counters into a system-wide snapshot under `prefix`
  // ("middleware.wap"), for the workload metrics layer.
  void export_stats(sim::StatsSnapshot& snap,
                    const std::string& prefix) const;
  WtpEndpoint& wtp() { return wtp_; }
  // WAP-era phones cannot store cookies; the gateway keeps one jar per
  // phone (keyed by its WDP endpoint) and plays the cookies toward origin
  // servers on the phone's behalf.
  const host::CookieJar* jar_for(net::Endpoint phone) const;
  std::uint64_t wtls_sessions() const { return wtls_sessions_; }

 private:
  void on_wtp_invoke(const std::string& payload, net::Endpoint from,
                     std::function<void(std::string)> respond);
  void handle_request(const std::string& payload, net::Endpoint from,
                      std::function<void(std::string)> respond);

  net::Node& node_;
  WapGatewayConfig cfg_;
  HostResolver resolver_;
  WtpEndpoint wtp_;
  host::HttpClient http_;
  host::HttpRequest up_req_;  // the origin request, refilled per request
  std::unordered_map<net::Endpoint, host::CookieJar> phone_jars_;
  // WTLS identity + one record channel per secured phone.
  security::DhKeyPair wtls_key_;
  security::Certificate wtls_cert_;
  std::unordered_map<net::Endpoint, security::SecureChannel> wtls_channels_;
  std::uint64_t wtls_sessions_ = 0;
  Stats stats_;
  // Telemetry handles, cached at construction (obs/metrics.h).
  sim::Counter* m_requests_ = obs::metric_counter("middleware.requests");
  sim::Counter* m_translations_ =
      obs::metric_counter("middleware.translations");
  sim::Counter* m_air_bytes_ = obs::metric_counter("middleware.air_bytes");
  // HTML body -> WML + WBXML, translated once per distinct body (§12.4).
  PageMemo<TranslatedPage> pages_{kGatewayMemoEntries, kGatewayMemoBytes};
};

inline constexpr std::uint16_t kIModeGatewayPort = 8001;
// cHTML simplification is lighter than WAP's WML + WBXML compilation.
inline constexpr sim::Time kIModeTranslationDelay = sim::Time::millis(2);

struct IModeGatewayConfig {
  std::uint16_t port = kIModeGatewayPort;
  AdaptationConfig adaptation;
};

// The i-mode service gateway (§5.1): phones keep an always-on HTTP
// connection to the gateway; content is Compact HTML, so translation is a
// simplification pass rather than a language change, and there is no
// binary recompilation step.
class IModeGateway {
 public:
  IModeGateway(transport::TcpStack& tcp, HostResolver resolver,
               IModeGatewayConfig cfg = {});
  IModeGateway(const IModeGateway&) = delete;
  IModeGateway& operator=(const IModeGateway&) = delete;

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t upstream_failures = 0;
    std::uint64_t html_bytes_in = 0;
    std::uint64_t chtml_bytes_out = 0;
  };
  const Stats& stats() const { return stats_; }
  // As WapGateway::export_stats, under e.g. "middleware.imode".
  void export_stats(sim::StatsSnapshot& snap,
                    const std::string& prefix) const;

 private:
  void handle(const host::HttpRequest& req,
              std::function<void(host::HttpResponse)> respond);

  transport::TcpStack& tcp_;
  IModeGatewayConfig cfg_;
  HostResolver resolver_;
  host::HttpServer server_;
  host::HttpClient http_;
  host::HttpRequest up_req_;  // the origin request, refilled per request
  // Per-phone cookie jar, keyed by the phone's TCP endpoint (X-Peer).
  std::unordered_map<std::string, host::CookieJar> phone_jars_;
  Stats stats_;
  // Telemetry handles, cached at construction (obs/metrics.h); shared names
  // with WapGateway so "middleware.*" totals cover either gateway flavour.
  sim::Counter* m_requests_ = obs::metric_counter("middleware.requests");
  sim::Counter* m_translations_ =
      obs::metric_counter("middleware.translations");
  // HTML body -> cHTML, translated once per distinct body (§12.4).
  PageMemo<TranslatedPage> pages_{kGatewayMemoEntries, kGatewayMemoBytes};
};

}  // namespace mcs::middleware
