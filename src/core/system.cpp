#include "core/system.h"

#include <cmath>

#include "middleware/translate.h"
#include "sim/util.h"

namespace mcs::core {

namespace {
// (v) wired networks. The backbone joins the gateway (EC: the router) to the
// web host; the host LAN joins the web host to the database host.
constexpr net::LinkConfig kBackbone{.bandwidth_bps = 10e6,
                                    .propagation = sim::Time::millis(15)};
constexpr net::LinkConfig kHostLan{.bandwidth_bps = 100e6,
                                   .propagation = sim::Time::micros(100)};
// EC baseline: each desktop's wired access link to the router.
constexpr net::LinkConfig kDesktopAccess{.bandwidth_bps = 100e6,
                                         .propagation = sim::Time::millis(2)};
// (vi) CGI cost per request on the web server.
constexpr sim::Time kWebProcessing = sim::Time::millis(1);
}  // namespace

// ---------------------------------------------------------------------------
// Client drivers
// ---------------------------------------------------------------------------

void BrowserClient::fetch(const std::string& url,
                          std::function<void(FetchResult)> cb) {
  browser_.browse(url, [cb = std::move(cb)](
                           station::MicroBrowser::PageResult r) {
    FetchResult f;
    f.ok = r.ok;
    f.status = r.status;
    f.raw = std::move(r.content);
    // Application payloads travel inside the translated markup; hand the
    // app the text content the browser already extracted.
    f.body = std::move(r.text);
    f.latency = r.total_time;
    f.over_air_bytes = r.over_air_bytes;
    f.client_cpu = r.parse_time + r.render_time;
    cb(std::move(f));
  });
}

void DesktopClient::fetch(const std::string& url,
                          std::function<void(FetchResult)> cb) {
  const auto parsed = host::parse_url(url);
  if (!parsed.has_value()) {
    cb(FetchResult{});
    return;
  }
  const auto resolver = middleware::dotted_quad_resolver();
  const auto ep = resolver(parsed->host, parsed->port);
  if (!ep.has_value()) {
    cb(FetchResult{});
    return;
  }
  const sim::Time start = sim_.now();
  http_.get(*ep, parsed->path,
            [this, start, cb = std::move(cb)](host::HttpResponse* resp) {
    FetchResult f;
    f.latency = sim_.now() - start;
    if (resp != nullptr) {
      f.ok = resp->status == 200;
      f.status = resp->status;
      // Desktop browsers read HTML; strip markup for the app layer too.
      (void)middleware::scan_markup(resp->body, title_buf_, text_buf_);
      f.body = text_buf_;
      f.raw = std::move(resp->body);
      f.over_air_bytes = 0;
    }
    cb(std::move(f));
  });
}

// ---------------------------------------------------------------------------
// HostComputers
// ---------------------------------------------------------------------------

void HostComputers::build(sim::Simulator& sim, net::Node& web,
                          net::Node& db_host,
                          const host::db::DbServerConfig& db_cfg) {
  web_tcp = std::make_unique<transport::TcpStack>(web);
  db_tcp = std::make_unique<transport::TcpStack>(db_host);
  db_server = std::make_unique<host::db::DbServer>(*db_tcp, 5432, db, db_cfg);
  web_server = std::make_unique<host::HttpServer>(*web_tcp, 80);
  web_server->set_processing_delay(kWebProcessing);
  web_db_client = std::make_unique<host::db::DbClient>(
      *web_tcp, net::Endpoint{db_host.addr(), 5432});
  web_http_client = std::make_unique<host::HttpClient>(*web_tcp);
  app_server = std::make_unique<host::AppServer>(
      *web_server, host::AppServer::Context{web_db_client.get(), &sim});

  // Payments: the bank participant runs on the web host too (a separate
  // institution in reality; one hop away is enough for the model).
  bank = std::make_unique<PaymentProcessor>(*web_server, db, sim);
  payments = std::make_unique<PaymentCoordinator>(
      *web_http_client, net::Endpoint{web.addr(), 80}, db, sim);
}

// ---------------------------------------------------------------------------
// McSystem
// ---------------------------------------------------------------------------

McSystem::McSystem(sim::Simulator& sim, McSystemConfig cfg)
    : sim_{sim}, cfg_{cfg}, network_{sim, cfg.seed} {
  // --- (v)/(vi) wired side: gateway -- web host -- db host ------------------
  gateway_ = network_.add_node("gateway");
  web_ = network_.add_node("web-host");
  db_host_ = network_.add_node("db-host");
  backbone_link_ = network_.connect(gateway_, web_, kBackbone);
  network_.connect(web_, db_host_, kHostLan);

  // --- (iv) wireless cell ----------------------------------------------------
  // No stochastic frame loss (base or burst), so a seed replays exactly.
  wireless::WirelessConfig radio;
  radio.phy = cfg_.phy;
  radio.phy.base_loss_rate = 0.0;
  radio.p_good_to_bad = 0.0;
  cell_ = std::make_unique<wireless::WirelessMedium>(
      sim_, "cell0", wireless::Position{0, 0}, radio, network_.rng().fork());
  cell_->set_ap_interface(gateway_->add_interface(network_.allocate_address()));
  network_.register_channel(cell_.get());

  // --- (ii) mobile stations --------------------------------------------------
  for (int i = 0; i < cfg_.num_mobiles; ++i) {
    auto m = std::make_unique<MobileStation>();
    m->node = network_.add_node(sim::strf("mobile%d", i));
    m->iface = m->node->add_interface(network_.allocate_address());
    // Spread stations around the AP, well inside coverage.
    const double angle = 2.0 * 3.14159265 * i /
                         std::max(1, cfg_.num_mobiles);
    const double r = 0.2 * cfg_.phy.range_m;
    m->position = std::make_unique<wireless::FixedPosition>(
        wireless::Position{r * std::cos(angle), r * std::sin(angle)});
    cell_->associate(m->iface, m->position.get());
    m->udp = std::make_unique<transport::UdpStack>(*m->node);
    m->tcp = std::make_unique<transport::TcpStack>(*m->node);
    mobiles_.push_back(std::move(m));
  }

  network_.compute_routes();

  // --- (iii) middleware on the gateway node -----------------------------------
  gateway_udp_ = std::make_unique<transport::UdpStack>(*gateway_);
  gateway_tcp_ = std::make_unique<transport::TcpStack>(*gateway_);
  wap_gateway_ = std::make_unique<middleware::WapGateway>(
      *gateway_, *gateway_udp_, *gateway_tcp_,
      middleware::dotted_quad_resolver(), cfg_.wap);
  imode_gateway_ = std::make_unique<middleware::IModeGateway>(
      *gateway_tcp_, middleware::dotted_quad_resolver(), cfg_.imode);

  // Browsers (need the gateway endpoint, so built after the gateways).
  for (auto& m : mobiles_) {
    station::BrowserConfig bcfg;
    bcfg.mode = cfg_.middleware;
    bcfg.use_wtls = cfg_.wap_use_wtls &&
                    cfg_.middleware == station::BrowserMode::kWap;
    bcfg.gateway = cfg_.middleware == station::BrowserMode::kWap
                       ? net::Endpoint{gateway_->addr(), cfg_.wap.wtp_port}
                       : net::Endpoint{gateway_->addr(), cfg_.imode.port};
    m->browser = std::make_unique<station::MicroBrowser>(
        *m->node, cfg_.device, bcfg, m->udp.get(), m->tcp.get());
    m->driver = std::make_unique<BrowserClient>(*m->browser);
  }

  // --- (vi) host computers -----------------------------------------------------
  host_.build(sim_, *web_, *db_host_, cfg_.db);
}

std::string McSystem::web_url(const std::string& path) const {
  return web_->addr().to_string() + ":80" + path;
}

std::vector<ClientDriver*> McSystem::client_drivers() {
  std::vector<ClientDriver*> drivers;
  drivers.reserve(mobiles_.size());
  for (auto& m : mobiles_) drivers.push_back(m->driver.get());
  return drivers;
}

// ---------------------------------------------------------------------------
// EcSystem
// ---------------------------------------------------------------------------

EcSystem::EcSystem(sim::Simulator& sim, EcSystemConfig cfg)
    : sim_{sim}, cfg_{cfg}, network_{sim, cfg.seed} {
  router_ = network_.add_node("router");
  web_ = network_.add_node("web-host");
  db_host_ = network_.add_node("db-host");
  network_.connect(router_, web_, kBackbone);
  network_.connect(web_, db_host_, kHostLan);

  for (int i = 0; i < cfg_.num_clients; ++i) {
    auto c = std::make_unique<DesktopStation>();
    c->node = network_.add_node(sim::strf("desktop%d", i));
    network_.connect(c->node, router_, kDesktopAccess);
    c->tcp = std::make_unique<transport::TcpStack>(*c->node);
    c->http = std::make_unique<host::HttpClient>(*c->tcp);
    c->driver = std::make_unique<DesktopClient>(*c->http, sim_);
    clients_.push_back(std::move(c));
  }
  network_.compute_routes();

  host_.build(sim_, *web_, *db_host_, cfg_.db);
}

std::string EcSystem::web_url(const std::string& path) const {
  return web_->addr().to_string() + ":80" + path;
}

std::vector<ClientDriver*> EcSystem::client_drivers() {
  std::vector<ClientDriver*> drivers;
  drivers.reserve(clients_.size());
  for (auto& c : clients_) drivers.push_back(c->driver.get());
  return drivers;
}

}  // namespace mcs::core
