// Pins the simulator's event trace for scenarios that exercise every fixed
// model constant (DESIGN.md "Model constants"): gateway translation delays,
// WTP segmentation and timers, WTLS, CSMA contention, the McSystem and
// EcSystem wiring, TCP Reno tuning, the snoop agent, the split proxy, handoff
// checks, Mobile IP smooth handoff with foreign-agent buffering, on-off
// arrivals and group commit. Each scenario is deterministic; a change to any
// of those values, or to the order components are built in, moves
// Simulator::trace_hash() (FNV-1a over every executed event's time and
// sequence number) or the executed-event count.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/apps.h"
#include "core/system.h"
#include "host/db/db_server.h"
#include "middleware/wtp.h"
#include "mobileip/mobile_ip.h"
#include "net/network.h"
#include "sim/util.h"
#include "test_util.h"
#include "transport/snoop.h"
#include "transport/split_proxy.h"
#include "wireless/handoff.h"
#include "wireless/phy_profiles.h"
#include "workload/driver.h"
#include "workload/session.h"

namespace mcs {
namespace {

struct Pin {
  std::uint64_t executed = 0;
  std::uint64_t trace_hash = 0;
};

Pin pin_of(const sim::Simulator& sim) {
  return Pin{sim.executed(), sim.trace_hash()};
}

void expect_pin(const Pin& got, std::uint64_t executed,
                std::uint64_t trace_hash) {
  EXPECT_EQ(got.executed, executed);
  EXPECT_EQ(got.trace_hash, trace_hash)
      << "trace_hash 0x" << std::hex << got.trace_hash;
}

workload::DriverConfig driver_config(double seconds, std::uint64_t seed) {
  workload::DriverConfig dcfg;
  dcfg.duration = sim::Time::seconds(seconds);
  dcfg.warmup = sim::Time::seconds(1.0);
  dcfg.timeout = sim::Time::seconds(8.0);
  dcfg.seed = seed;
  return dcfg;
}

// One open-loop run of `mix` against an McSystem.
Pin run_mc(core::McSystemConfig cfg, const workload::WorkloadMix& mix,
           workload::ArrivalConfig arrivals, double seconds) {
  sim::Simulator sim;
  core::McSystem sys{sim, cfg};
  core::seed_demo_accounts(sys.bank(), 8, 1e12);
  auto apps = core::make_all_applications();
  core::install_all(apps, core::environment_for(sys));
  workload::LoadDriver driver{sim,
                              sys.client_drivers(),
                              apps,
                              mix,
                              sys.web_url(""),
                              driver_config(seconds, cfg.seed)};
  const workload::DriverReport report = driver.run_open_loop(arrivals);
  EXPECT_GT(report.ok, 0u);
  return pin_of(sim);
}

workload::ArrivalConfig poisson(double rate_tps) {
  workload::ArrivalConfig a;
  a.kind = workload::ArrivalKind::kPoisson;
  a.rate_tps = rate_tps;
  return a;
}

TEST(ModelConstantsPinTest, WapWtlsCommerceOnWifi) {
  core::McSystemConfig cfg;
  cfg.middleware = station::BrowserMode::kWap;
  cfg.phy = wireless::wifi_802_11b();
  cfg.wap_use_wtls = true;
  cfg.num_mobiles = 3;
  cfg.seed = 3;
  expect_pin(run_mc(cfg, workload::commerce_mix(), poisson(2.0), 12.0),
             1712, 0xa42317c9d874a0a2);
}

TEST(ModelConstantsPinTest, WapOnGprs) {
  core::McSystemConfig cfg;
  cfg.middleware = station::BrowserMode::kWap;
  cfg.phy = wireless::gprs();
  cfg.num_mobiles = 2;
  cfg.seed = 4;
  expect_pin(run_mc(cfg, workload::consumer_mix(), poisson(0.5), 12.0),
             377, 0x56b3311349b587df);
}

TEST(ModelConstantsPinTest, IModeOnGprs) {
  core::McSystemConfig cfg;
  cfg.middleware = station::BrowserMode::kImode;
  cfg.phy = wireless::gprs();
  cfg.num_mobiles = 3;
  cfg.seed = 5;
  expect_pin(run_mc(cfg, workload::consumer_mix(), poisson(0.5), 12.0),
             574, 0x75f6f7f692167f6d);
}

TEST(ModelConstantsPinTest, OnOffArrivals) {
  core::McSystemConfig cfg;
  cfg.num_mobiles = 2;
  cfg.seed = 6;
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kOnOff;
  arrivals.rate_tps = 1.5;
  expect_pin(run_mc(cfg, workload::consumer_mix(), arrivals, 20.0),
             2214, 0xac2806e6b8e95bce);
}

TEST(ModelConstantsPinTest, EcSystemCommerce) {
  sim::Simulator sim;
  core::EcSystemConfig cfg;
  cfg.num_clients = 3;
  cfg.seed = 7;
  core::EcSystem sys{sim, cfg};
  core::seed_demo_accounts(sys.bank(), 8, 1e12);
  auto apps = core::make_all_applications();
  core::install_all(apps, core::environment_for(sys));
  workload::LoadDriver driver{sim,
                              sys.client_drivers(),
                              apps,
                              workload::commerce_mix(),
                              sys.web_url(""),
                              driver_config(12.0, cfg.seed)};
  EXPECT_GT(driver.run_open_loop(poisson(3.0)).ok, 0u);
  expect_pin(pin_of(sim), 2819, 0x150b1120fd15513b);
}

// WTP alone over a lossy hop: multi-segment invokes and results, initiator
// retries, and lost ACKs that leave the responder's cached result to its
// TTL.
TEST(ModelConstantsPinTest, WtpOverLossyLink) {
  sim::Simulator sim;
  net::LinkConfig lossy;
  lossy.bandwidth_bps = 100e3;
  lossy.propagation = sim::Time::millis(50);
  lossy.loss_rate = 0.15;
  testutil::ThreeNodeNet topo{sim, lossy, 99};
  transport::UdpStack phone_udp{*topo.client};
  transport::UdpStack gw_udp{*topo.server};
  middleware::WtpEndpoint responder{gw_udp, 9300};
  middleware::WtpEndpoint initiator{phone_udp, 9300};
  responder.on_invoke = [](const std::string& payload, net::Endpoint,
                           auto respond) {
    respond(std::string(3 * payload.size(), 'r'));
  };
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    sim.at(sim::Time::seconds(2.0 * i), [&, i] {
      initiator.invoke({topo.server->addr(), 9300},
                       std::string(1'500 + 100 * i, 'q'),
                       [&](std::optional<std::string> r) {
                         if (r.has_value()) ++completed;
                       });
    });
  }
  sim.run();
  EXPECT_GT(completed, 0);
  EXPECT_GT(initiator.stats().counter("retransmissions").value(), 0u);
  expect_pin(pin_of(sim), 2798, 0x4089c7e83b0be4b5);
}

// An invoke that nothing answers: the initiator re-sends it until its retry
// budget runs out, then fails the transaction. With 800 ms between sends and
// 6 retries it fails 7 x 800 ms = 5.6 s after the first send.
TEST(ModelConstantsPinTest, WtpRetryBudgetRunsOut) {
  sim::Simulator sim;
  testutil::ThreeNodeNet topo{sim};
  transport::UdpStack phone_udp{*topo.client};
  middleware::WtpEndpoint initiator{phone_udp, 9300};
  std::optional<sim::Time> failed_at;
  initiator.invoke({topo.server->addr(), 9300}, std::string(2'000, 'q'),
                   [&](std::optional<std::string> r) {
                     if (!r.has_value()) failed_at = sim.now();
                   });
  sim.run();
  ASSERT_TRUE(failed_at.has_value());
  EXPECT_EQ(*failed_at, sim::Time::millis(5'600));
  EXPECT_EQ(initiator.stats().counter("retransmissions").value(), 6u);
  EXPECT_EQ(initiator.stats().counter("transactions_failed").value(), 1u);
  expect_pin(pin_of(sim), 63, 0xdb85de591a87c179);
}

// A registration that no agent answers: the mobile node re-sends it until
// its retry budget runs out, then reports failure. With 500 ms between sends
// and 5 retries it gives up 6 x 500 ms = 3 s after the first send.
TEST(ModelConstantsPinTest, MobileIpRegistrationRetryBudgetRunsOut) {
  sim::Simulator sim;
  testutil::ThreeNodeNet topo{sim};
  transport::UdpStack mob_udp{*topo.client};
  mobileip::MobileClientConfig mc_cfg;
  mc_cfg.home_agent = topo.router->addr();
  mobileip::MobileIpClient mip{*topo.client, mob_udp, mc_cfg};
  std::optional<sim::Time> failed_at;
  mip.on_registered = [&](bool accepted, sim::Time) {
    if (!accepted) failed_at = sim.now();
  };
  mip.attach(topo.server->addr(),
             topo.first->peer_of(topo.client->interface(0))->addr());
  sim.run();
  ASSERT_TRUE(failed_at.has_value());
  EXPECT_EQ(*failed_at, sim::Time::millis(3'000));
  EXPECT_FALSE(mip.registered());
  EXPECT_EQ(mip.stats().counter("registration_retries").value(), 5u);
  EXPECT_EQ(mip.stats().counter("registration_failures").value(), 1u);
  expect_pin(pin_of(sim), 30, 0x05ea5b73ad5864d9);
}

// fixed host --(WAN)-- base station ==802.11b, burst loss== mobile: a 1 MB
// download under one of the §5.2 TCP variants, optionally with 1.5 s radio
// blackouts every 2 s.
enum class Variant { kReno, kSnoop, kSplit };

Pin run_tcp_variant(Variant variant, bool handoffs) {
  sim::Simulator sim;
  net::Network network{sim, 777};
  auto* fixed = network.add_node("fixed");
  auto* bs = network.add_node("bs");
  auto* mobile = network.add_node("mobile");
  net::LinkConfig wired;
  wired.bandwidth_bps = 100e6;
  wired.propagation = sim::Time::millis(20);
  network.connect(fixed, bs, wired);

  wireless::WirelessConfig radio;
  radio.phy = wireless::wifi_802_11b();
  radio.phy.base_loss_rate = 0.0;
  radio.p_good_to_bad = 0.01;
  radio.p_bad_to_good = 0.15;
  radio.burst_loss = 0.7;
  wireless::WirelessMedium cell{sim, "cell", {0, 0}, radio, sim::Rng{3}};
  cell.set_ap_interface(bs->add_interface(network.allocate_address()));
  auto* mif = mobile->add_interface(network.allocate_address());
  wireless::FixedPosition pos{{10, 0}};
  cell.associate(mif, &pos);
  network.register_channel(&cell);
  network.compute_routes();

  transport::TcpConfig cfg;
  cfg.recv_window = 1024 * 1024;
  transport::TcpStack fixed_tcp{*fixed, cfg};
  transport::TcpStack bs_tcp{*bs, cfg};
  transport::TcpStack mobile_tcp{*mobile, cfg};

  std::unique_ptr<transport::SnoopAgent> snoop;
  if (variant == Variant::kSnoop) {
    snoop = std::make_unique<transport::SnoopAgent>(
        *bs, [&](net::IpAddress a) { return mobile->owns_address(a); });
  }
  std::unique_ptr<transport::SplitTcpProxy> proxy;
  if (variant == Variant::kSplit) {
    proxy = std::make_unique<transport::SplitTcpProxy>(
        bs_tcp, 8080, net::Endpoint{mobile->addr(), 80});
  }

  std::function<void()> blackout;
  if (handoffs) {
    blackout = [&sim, mif, &fixed_tcp, &mobile_tcp, &blackout] {
      mif->set_up(false);
      sim.after(sim::Time::millis(1500), [mif, &fixed_tcp, &mobile_tcp] {
        mif->set_up(true);
        fixed_tcp.notify_handoff_all();
        mobile_tcp.notify_handoff_all();
      });
      sim.after(sim::Time::seconds(2.0), blackout);
    };
    sim.after(sim::Time::millis(700), blackout);
  }

  constexpr std::size_t kBytes = 1'000'000;
  std::size_t received = 0;
  mobile_tcp.listen(80, [&](transport::TcpSocket::Ptr s) {
    s->on_data = [&](const std::string& d) {
      received += d.size();
      if (received >= kBytes) sim.stop();
    };
  });
  const net::Endpoint target =
      variant == Variant::kSplit ? net::Endpoint{bs->addr(), 8080}
                                 : net::Endpoint{mobile->addr(), 80};
  auto sender = fixed_tcp.connect(target);
  sender->send(std::string(kBytes, 'm'));
  sim.run_until(sim::Time::minutes(30.0));
  return pin_of(sim);
}

TEST(ModelConstantsPinTest, RenoOnBurstyRadioWithBlackouts) {
  expect_pin(run_tcp_variant(Variant::kReno, true), 3790, 0xdaad2b0709d5ad50);
}

TEST(ModelConstantsPinTest, SnoopOnBurstyRadio) {
  expect_pin(run_tcp_variant(Variant::kSnoop, false), 4990, 0x1eb61d87f3a8675c);
}

TEST(ModelConstantsPinTest, SnoopOnBurstyRadioWithBlackouts) {
  expect_pin(run_tcp_variant(Variant::kSnoop, true), 9306, 0x62cbf8a80e1bc37a);
}

TEST(ModelConstantsPinTest, SplitProxyOnBurstyRadio) {
  expect_pin(run_tcp_variant(Variant::kSplit, false), 5855, 0xea6cea64d39ffb93);
}

// A connection to a host whose only link is down: SYN retransmissions back
// off until the RTO reaches its ceiling, then the sender gives up.
TEST(ModelConstantsPinTest, RenoBacksOffToItsRtoCeiling) {
  sim::Simulator sim;
  testutil::ThreeNodeNet topo{sim};
  topo.server->interface(0)->set_up(false);
  transport::TcpStack client_tcp{*topo.client};
  transport::TcpStack server_tcp{*topo.server};
  auto sock = client_tcp.connect({topo.server->addr(), 80});
  sim.run();
  EXPECT_EQ(sock->state(), transport::TcpSocket::State::kClosed);
  EXPECT_EQ(sock->current_rto(), sim::Time::seconds(60.0));
  expect_pin(pin_of(sim), 55, 0x33fbb7001c55014e);
}

// A correspondent streams datagrams to a mobile that walks from its home
// cell through a foreign cell, across a 100 m coverage gap, into a second
// foreign cell. The handoff manager drives Mobile IP; the home agent runs
// smooth handoff, so the first foreign agent buffers what arrives during the
// gap and forwards it once the mobile registers in the second cell. The
// stream runs at 50 datagrams/s until t = 38 s (more than the buffer holds)
// and at 5/s after, so both the buffer's capacity and its TTL decide how
// much is left to forward at the flush (t ~ 41 s). The 150 ms WAN makes
// registration slower than the client's retry interval.
TEST(ModelConstantsPinTest, MobileIpSmoothHandoffWithBuffering) {
  sim::Simulator sim;
  net::Network network{sim, 4242};
  auto* corr = network.add_node("correspondent");
  auto* core_rt = network.add_node("core");
  auto* home_bs = network.add_node("home-bs");
  auto* fa1_bs = network.add_node("fa1-bs");
  auto* fa2_bs = network.add_node("fa2-bs");
  net::LinkConfig wan;
  wan.bandwidth_bps = 10e6;
  wan.propagation = sim::Time::millis(150);
  network.connect(corr, core_rt, wan);
  network.connect(core_rt, home_bs, wan);
  network.connect(core_rt, fa1_bs, wan);
  network.connect(core_rt, fa2_bs, wan);

  wireless::WirelessConfig radio;
  radio.phy = wireless::wifi_802_11b();  // 100 m range
  radio.phy.base_loss_rate = 0.0;
  radio.p_good_to_bad = 0.0;
  wireless::WirelessMedium home_cell{sim, "home", {0, 0}, radio, sim::Rng{1}};
  wireless::WirelessMedium fa1_cell{sim, "fa1", {200, 0}, radio, sim::Rng{2}};
  wireless::WirelessMedium fa2_cell{sim, "fa2", {500, 0}, radio, sim::Rng{3}};
  home_cell.set_ap_interface(
      home_bs->add_interface(network.allocate_address()));
  fa1_cell.set_ap_interface(fa1_bs->add_interface(network.allocate_address()));
  fa2_cell.set_ap_interface(fa2_bs->add_interface(network.allocate_address()));
  network.register_channel(&home_cell);
  network.register_channel(&fa1_cell);
  network.register_channel(&fa2_cell);

  auto* mob = network.add_node("mobile");
  auto* mif = mob->add_interface(network.allocate_address());
  wireless::LinearMobility walk{sim, {0, 0}, 10.0, 0.0};
  home_cell.associate(mif, &walk);
  network.compute_routes();

  transport::UdpStack home_udp{*home_bs}, fa1_udp{*fa1_bs}, fa2_udp{*fa2_bs},
      mob_udp{*mob}, corr_udp{*corr};
  mobileip::HomeAgentConfig ha_cfg;
  ha_cfg.smooth_handoff = true;
  mobileip::HomeAgent ha{*home_bs, home_udp, ha_cfg};
  ha.serve_mobile(mob->addr());
  mobileip::ForeignAgent fa1{*fa1_bs, fa1_udp, fa1_cell.ap_interface()};
  mobileip::ForeignAgent fa2{*fa2_bs, fa2_udp, fa2_cell.ap_interface()};
  mobileip::MobileClientConfig mc_cfg;
  mc_cfg.home_agent = home_bs->addr();
  mobileip::MobileIpClient mip{*mob, mob_udp, mc_cfg};

  struct Cell {
    wireless::WirelessMedium* medium;
    net::Node* router;
    mobileip::ForeignAgent* fa;
  };
  const Cell cells[] = {{&home_cell, home_bs, nullptr},
                        {&fa1_cell, fa1_bs, &fa1},
                        {&fa2_cell, fa2_bs, &fa2}};
  auto find = [&](wireless::WirelessMedium* m) -> const Cell* {
    for (const Cell& c : cells) {
      if (c.medium == m) return &c;
    }
    return nullptr;
  };
  wireless::HandoffManager hm{sim, mif, &walk,
                              {&home_cell, &fa1_cell, &fa2_cell}};
  hm.on_handoff = [&](wireless::WirelessMedium* from,
                      wireless::WirelessMedium* to) {
    if (const Cell* old = find(from); old != nullptr && old->fa != nullptr) {
      old->fa->visitor_departed(mob->addr());
    }
    if (const Cell* now = find(to); now != nullptr) {
      mip.attach(now->router->addr(), now->medium->ap_interface()->addr());
    } else {
      mip.detach();
    }
  };
  hm.start();

  int delivered = 0;
  mob_udp.bind(5000, [&](const std::string&, net::Endpoint, std::uint16_t) {
    ++delivered;
  });
  std::function<void()> pump = [&] {
    if (sim.now() >= sim::Time::seconds(50.0)) return;
    corr_udp.send({mob->addr(), 5000}, 5000, std::string(200, 'p'));
    sim.after(sim::Time::millis(sim.now() < sim::Time::seconds(38.0) ? 20
                                                                     : 200),
              pump);
  };
  pump();

  sim.run_until(sim::Time::seconds(55.0));
  hm.stop();
  EXPECT_EQ(hm.current(), &fa2_cell);
  EXPECT_GT(delivered, 0);
  EXPECT_GT(fa1.stats().counter("drop_buffer_full").value(), 0u);
  EXPECT_GT(fa1.stats().counter("forwarded_packets").value(), 0u);
  expect_pin(pin_of(sim), 19141, 0xb29181be121d59ef);
}

TEST(ModelConstantsPinTest, GroupCommitDbServer) {
  sim::Simulator sim;
  net::Network network{sim, 31};
  host::db::Database db{"shop"};
  db.create_table("products", {{"id", host::db::ValueType::kInt},
                               {"name", host::db::ValueType::kText},
                               {"price", host::db::ValueType::kReal}});
  auto* app_node = network.add_node("app");
  auto* db_node = network.add_node("dbhost");
  network.connect(app_node, db_node);
  network.compute_routes();
  transport::TcpStack app_tcp{*app_node};
  transport::TcpStack db_tcp{*db_node};
  host::db::DbServerConfig cfg;
  cfg.sync_policy = host::db::SyncPolicy::kGroup;
  host::db::DbServer server{db_tcp, 5432, db, cfg};
  host::db::DbClient client{app_tcp, net::Endpoint{db_node->addr(), 5432}};
  int done = 0;
  for (int i = 0; i < 40; ++i) {
    sim.at(sim::Time::micros(700 * i), [&client, &done, i] {
      client.insert(0, "products", {sim::strf("%d", i), "x", "1.0"},
                    [&done](const host::db::DbClient::Result& r) {
                      if (r.ok) ++done;
                    });
    });
  }
  sim.run();
  EXPECT_EQ(done, 40);
  EXPECT_GT(server.stats().counter("group_commit_batches").value(), 1u);
  expect_pin(pin_of(sim), 373, 0x48cfc262bef608ae);
}

}  // namespace
}  // namespace mcs
