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
namespace sim {

// Reaches the kernel's node-layout limits without scheduling 2^40 events or
// holding 2^24 of them.
struct SimulatorTestPeer {
  static void set_next_seq(Simulator& sim, std::uint64_t seq) {
    sim.next_seq_ = seq;
  }
  static std::uint64_t max_schedules() { return Simulator::kMaxSchedules; }
  static std::uint32_t max_slots() { return Simulator::kMaxSlots; }
  static std::uint64_t pack(std::uint64_t seq, std::uint32_t slot) {
    return Simulator::pack(seq, slot);
  }
};

}  // namespace sim

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

TEST(ContractDeathTest, RetimeIntoThePastAborts) {
  sim::Simulator sim;
  const sim::EventId id = sim.at(sim::Time::seconds(2.0), [] {});
  sim.run_until(sim::Time::seconds(1.0));
  EXPECT_DEATH(sim.retime(id, sim::Time::millis(500)),
               "cannot move into the past");
}

TEST(ContractDeathTest, ScheduleCountPastTheHeapNodeLimitAborts) {
  using sim::SimulatorTestPeer;
  EXPECT_EQ(SimulatorTestPeer::max_schedules(), 1ull << 40);
  sim::Simulator sim;
  SimulatorTestPeer::set_next_seq(sim, SimulatorTestPeer::max_schedules() - 1);
  const sim::EventId last = sim.at(sim::Time::millis(1), [] {});
  EXPECT_NE(last, sim::kInvalidEventId);  // sequence 2^40 - 1 still fits
  EXPECT_DEATH(sim.at(sim::Time::millis(2), [] {}), "2\\^40 events scheduled");
  EXPECT_DEATH(sim.retime(last, sim::Time::millis(2)),
               "2\\^40 events scheduled");
}

TEST(ContractDeathTest, PendingSlotPastTheHeapNodeLimitAborts) {
  using sim::SimulatorTestPeer;
  EXPECT_EQ(SimulatorTestPeer::max_slots(), 1u << 24);
  const std::uint32_t last = SimulatorTestPeer::max_slots() - 1;
  EXPECT_EQ(SimulatorTestPeer::pack(5, last) & last, last);
  EXPECT_EQ(SimulatorTestPeer::pack(5, last) >> 24, 5u);
  EXPECT_DEATH(SimulatorTestPeer::pack(0, last + 1),
               "2\\^24 events pending at once");
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
