// Death tests for the contract layer: each test drives a guarded API into a
// precondition violation and expects the MCS_ASSERT abort. These only work
// because MCS_CONTRACTS defaults ON in every build type.

#include <gtest/gtest.h>

#include "mobileip/mobile_ip.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "test_util.h"
#include "transport/tcp.h"
#include "transport/udp.h"

namespace mcs {
namespace {

using transport::TcpSocket;

TEST(ContractDeathTest, SchedulingInThePastAborts) {
  sim::Simulator sim;
  sim.at(sim::Time::seconds(1.0), [] {});
  sim.run();
  ASSERT_EQ(sim.now(), sim::Time::seconds(1.0));
  EXPECT_DEATH(sim.at(sim::Time::millis(500), [] {}),
               "mcs contract violation");
}

TEST(ContractDeathTest, NegativeAfterDelayAborts) {
  sim::Simulator sim;
  EXPECT_DEATH(sim.after(sim::Time::millis(-1), [] {}),
               "mcs contract violation");
}

TEST(ContractDeathTest, NullCallbackAborts) {
  sim::Simulator sim;
  EXPECT_DEATH(sim.at(sim::Time::millis(1), sim::Simulator::Callback{}),
               "mcs contract violation");
}

TEST(ContractDeathTest, RunUntilThePastAborts) {
  sim::Simulator sim;
  sim.run_until(sim::Time::seconds(2.0));
  EXPECT_DEATH(sim.run_until(sim::Time::seconds(1.0)),
               "mcs contract violation");
}

TEST(ContractDeathTest, InvalidTcpTransitionAborts) {
  // A connection cannot jump from closed straight into the FIN exchange;
  // set_state() routes every real transition through this same check.
  EXPECT_DEATH(transport::require_valid_tcp_transition(
                   TcpSocket::State::kClosed, TcpSocket::State::kLastAck),
               "mcs contract violation");
  EXPECT_DEATH(transport::require_valid_tcp_transition(
                   TcpSocket::State::kFinWait, TcpSocket::State::kEstablished),
               "mcs contract violation");
}

TEST(ContractDeathTest, ValidTcpTransitionsPass) {
  transport::require_valid_tcp_transition(TcpSocket::State::kClosed,
                                          TcpSocket::State::kSynSent);
  transport::require_valid_tcp_transition(TcpSocket::State::kSynSent,
                                          TcpSocket::State::kEstablished);
  transport::require_valid_tcp_transition(TcpSocket::State::kEstablished,
                                          TcpSocket::State::kClosed);
  EXPECT_TRUE(transport::tcp_state_transition_valid(
      TcpSocket::State::kCloseWait, TcpSocket::State::kLastAck));
  EXPECT_FALSE(transport::tcp_state_transition_valid(
      TcpSocket::State::kLastAck, TcpSocket::State::kEstablished));
}

TEST(ContractDeathTest, TcpConnectWithoutConcreteRemoteAborts) {
  sim::Simulator sim;
  testutil::ThreeNodeNet topo{sim};
  transport::TcpStack tcp{*topo.client};
  EXPECT_DEATH(tcp.connect(net::Endpoint{net::kUnspecified, 80}),
               "mcs contract violation");
  EXPECT_DEATH(tcp.connect(net::Endpoint{topo.server->addr(), 0}),
               "mcs contract violation");
}

TEST(ContractDeathTest, MobileIpDetachWithoutAttachAborts) {
  sim::Simulator sim;
  testutil::ThreeNodeNet topo{sim};
  transport::UdpStack udp{*topo.client};
  mobileip::MobileClientConfig cfg;
  cfg.home_agent = topo.router->addr();
  mobileip::MobileIpClient client{*topo.client, udp, cfg};
  EXPECT_DEATH(client.detach(), "mcs contract violation");
}

TEST(ContractDeathTest, ForeignAgentDepartureOfNoAddressAborts) {
  sim::Simulator sim;
  testutil::ThreeNodeNet topo{sim};
  transport::UdpStack udp{*topo.router};
  mobileip::ForeignAgent fa{*topo.router, udp, topo.router->interface(0)};
  EXPECT_DEATH(fa.visitor_departed(net::kUnspecified),
               "mcs contract violation");
  EXPECT_DEATH(fa.visitor_departed(topo.router->addr()),
               "mcs contract violation");
  fa.visitor_departed(topo.client->addr());  // not a visitor: a no-op
}

}  // namespace
}  // namespace mcs
