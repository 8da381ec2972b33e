#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/payment.h"
#include "core/personalization.h"
#include "host/app_server.h"
#include "host/db/db_server.h"
#include "host/http_server.h"
#include "middleware/wap_gateway.h"
#include "net/network.h"
#include "station/browser.h"
#include "wireless/medium.h"

namespace mcs::core {

// Uniform client-side driver: one URL fetch with timing, independent of
// whether the client is a mobile station behind middleware (MC) or a desktop
// on the wired network (EC). Applications drive transactions through this.
struct FetchResult {
  bool ok = false;
  int status = 0;
  std::string body;       // extracted text content
  std::string raw;        // raw markup/body as delivered
  sim::Time latency;
  std::size_t over_air_bytes = 0;
  sim::Time client_cpu;   // parse + render cost (mobile only)
};

class ClientDriver {
 public:
  virtual ~ClientDriver() = default;
  virtual void fetch(const std::string& url,
                     std::function<void(FetchResult)> cb) = 0;
};

// Drives a mobile station's microbrowser.
class BrowserClient : public ClientDriver {
 public:
  explicit BrowserClient(station::MicroBrowser& browser) : browser_{browser} {}
  void fetch(const std::string& url,
             std::function<void(FetchResult)> cb) override;

 private:
  station::MicroBrowser& browser_;
};

// Drives a desktop HTTP client (EC baseline).
class DesktopClient : public ClientDriver {
 public:
  DesktopClient(host::HttpClient& http, sim::Simulator& sim)
      : http_{http}, sim_{sim} {}
  void fetch(const std::string& url,
             std::function<void(FetchResult)> cb) override;

 private:
  host::HttpClient& http_;
  sim::Simulator& sim_;
  // Reused scan buffers (title is unused on the desktop).
  std::string title_buf_;
  std::string text_buf_;
};

// ---------------------------------------------------------------------------
// (vi) host computers, as both systems build them
// ---------------------------------------------------------------------------

// The web host and the database host with everything that runs on them: TCP
// stacks, the database and its server, the web server and the web host's
// database/HTTP clients, the CGI program server, and payments.
struct HostComputers {
  // Builds every component on `web` and `db_host` in a fixed order (the
  // order is part of the event trace).
  void build(sim::Simulator& sim, net::Node& web, net::Node& db_host,
             const host::db::DbServerConfig& db_cfg);

  std::unique_ptr<transport::TcpStack> web_tcp;
  std::unique_ptr<transport::TcpStack> db_tcp;
  std::unique_ptr<host::HttpServer> web_server;
  host::db::Database db{"host-db"};
  std::unique_ptr<host::db::DbServer> db_server;
  std::unique_ptr<host::db::DbClient> web_db_client;
  std::unique_ptr<host::HttpClient> web_http_client;
  std::unique_ptr<host::AppServer> app_server;
  std::unique_ptr<PaymentProcessor> bank;
  std::unique_ptr<PaymentCoordinator> payments;
};

// ---------------------------------------------------------------------------
// The six-component mobile commerce system (paper Figure 2)
// ---------------------------------------------------------------------------

// The radio always runs without stochastic loss, so a seed replays exactly;
// the wired links and the web host's CGI cost are fixed too (DESIGN.md,
// "Model constants").
struct McSystemConfig {
  // (iv) wireless networks
  wireless::PhyProfile phy = wireless::wifi_802_11b();
  // (iii) mobile middleware
  station::BrowserMode middleware = station::BrowserMode::kWap;
  middleware::WapGatewayConfig wap;
  middleware::IModeGatewayConfig imode;
  // WAP mode only: phones run WTLS toward the gateway (§8 security).
  bool wap_use_wtls = false;
  // (ii) mobile stations
  int num_mobiles = 1;
  station::DeviceProfile device = station::ipaq_h3870();
  // (vi) host computers
  host::db::DbServerConfig db;
  std::uint64_t seed = 1;
};

// One mobile station bundle: node, stacks, radio position, browser.
struct MobileStation {
  net::Node* node = nullptr;
  net::Interface* iface = nullptr;
  std::unique_ptr<wireless::FixedPosition> position;
  std::unique_ptr<transport::UdpStack> udp;
  std::unique_ptr<transport::TcpStack> tcp;
  std::unique_ptr<station::MicroBrowser> browser;
  std::unique_ptr<BrowserClient> driver;
};

// Builds and owns a complete MC system:
//   mobiles ==radio== gateway(AP + WAP/i-mode) --WAN-- web host --LAN-- db host
class McSystem {
 public:
  McSystem(sim::Simulator& sim, McSystemConfig cfg = {});
  McSystem(const McSystem&) = delete;
  McSystem& operator=(const McSystem&) = delete;

  sim::Simulator& sim() { return sim_; }
  const McSystemConfig& config() const { return cfg_; }
  net::Network& network() { return network_; }

  // Component accessors (numbered per the paper).
  MobileStation& mobile(std::size_t i) { return *mobiles_[i]; }           // (ii)
  std::size_t mobile_count() const { return mobiles_.size(); }
  middleware::WapGateway& wap_gateway() { return *wap_gateway_; }         // (iii)
  middleware::IModeGateway& imode_gateway() { return *imode_gateway_; }   // (iii)
  wireless::WirelessMedium& cell() { return *cell_; }                     // (iv)
  net::Link* backbone_link() { return backbone_link_; }                   // (v)
  host::HttpServer& web_server() { return *host_.web_server; }            // (vi)
  host::db::Database& database() { return host_.db; }                     // (vi)
  host::db::DbServer& db_server() { return *host_.db_server; }            // (vi)
  host::AppServer& app_server() { return *host_.app_server; }             // (vi)

  net::Node* gateway_node() { return gateway_; }
  net::Node* web_node() { return web_; }
  net::Node* db_node() { return db_host_; }

  PersonalizationEngine& personalization() { return personalization_; }
  PaymentCoordinator& payments() { return *host_.payments; }
  PaymentProcessor& bank() { return *host_.bank; }

  // URL (host:port/path) of the web server, as clients address it.
  std::string web_url(const std::string& path) const;

  // Workload hook: every mobile's ClientDriver, in station order.
  std::vector<ClientDriver*> client_drivers();

 private:
  sim::Simulator& sim_;
  McSystemConfig cfg_;
  net::Network network_;
  net::Node* gateway_ = nullptr;
  net::Node* web_ = nullptr;
  net::Node* db_host_ = nullptr;
  net::Link* backbone_link_ = nullptr;
  std::unique_ptr<wireless::WirelessMedium> cell_;
  std::unique_ptr<transport::UdpStack> gateway_udp_;
  std::unique_ptr<transport::TcpStack> gateway_tcp_;
  std::unique_ptr<middleware::WapGateway> wap_gateway_;
  std::unique_ptr<middleware::IModeGateway> imode_gateway_;
  HostComputers host_;
  std::vector<std::unique_ptr<MobileStation>> mobiles_;
  PersonalizationEngine personalization_;
};

// ---------------------------------------------------------------------------
// The four-component electronic commerce baseline (paper Figure 1)
// ---------------------------------------------------------------------------

// Clients reach the router over a fixed wired access link; the backbone,
// host LAN and CGI cost are McSystem's (DESIGN.md, "Model constants").
struct EcSystemConfig {
  int num_clients = 1;
  host::db::DbServerConfig db;
  std::uint64_t seed = 1;
};

struct DesktopStation {
  net::Node* node = nullptr;
  std::unique_ptr<transport::TcpStack> tcp;
  std::unique_ptr<host::HttpClient> http;
  std::unique_ptr<DesktopClient> driver;
};

// Desktop clients -- wired network -- host computers. Shares the host-side
// structure with McSystem, minus stations/middleware/wireless.
class EcSystem {
 public:
  EcSystem(sim::Simulator& sim, EcSystemConfig cfg = {});
  EcSystem(const EcSystem&) = delete;
  EcSystem& operator=(const EcSystem&) = delete;

  sim::Simulator& sim() { return sim_; }
  const EcSystemConfig& config() const { return cfg_; }
  net::Network& network() { return network_; }
  DesktopStation& client(std::size_t i) { return *clients_[i]; }
  std::size_t client_count() const { return clients_.size(); }
  host::HttpServer& web_server() { return *host_.web_server; }
  host::db::Database& database() { return host_.db; }
  host::db::DbServer& db_server() { return *host_.db_server; }
  host::AppServer& app_server() { return *host_.app_server; }
  PersonalizationEngine& personalization() { return personalization_; }
  PaymentCoordinator& payments() { return *host_.payments; }
  PaymentProcessor& bank() { return *host_.bank; }

  net::Node* router_node() { return router_; }
  net::Node* web_node() { return web_; }
  net::Node* db_node() { return db_host_; }

  std::string web_url(const std::string& path) const;

  // Workload hook: every desktop client's ClientDriver.
  std::vector<ClientDriver*> client_drivers();

 private:
  sim::Simulator& sim_;
  EcSystemConfig cfg_;
  net::Network network_;
  net::Node* router_ = nullptr;
  net::Node* web_ = nullptr;
  net::Node* db_host_ = nullptr;
  HostComputers host_;
  std::vector<std::unique_ptr<DesktopStation>> clients_;
  PersonalizationEngine personalization_;
};

}  // namespace mcs::core
