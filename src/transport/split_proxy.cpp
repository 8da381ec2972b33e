#include "transport/split_proxy.h"

#include "sim/contract.h"

namespace mcs::transport {

SplitTcpProxy::SplitTcpProxy(TcpStack& stack, std::uint16_t listen_port,
                             net::Endpoint upstream)
    : stack_{stack}, upstream_{upstream} {
  stack_.listen(listen_port, [this](TcpSocket::Ptr accepted) {
    ++stats_.connections;
    auto relay = std::make_shared<Relay>();
    relay->down = std::move(accepted);
    relay->up = stack_.connect(upstream_);
    wire(relay);
  });
}

void SplitTcpProxy::wire(const std::shared_ptr<Relay>& relay) {
  MCS_ASSERT(relay->down != nullptr && relay->up != nullptr,
             "split proxy relay must own both connection halves");
  MCS_ASSERT(relay->down.get() != relay->up.get(),
             "split proxy halves must be distinct connections");
  // TcpSocket::send buffers until established, so both directions can start
  // relaying immediately. The relay shared_ptr keeps both halves alive until
  // each socket fires its final callback.
  relay->down->on_data = [this, relay](const std::string& data) {
    stats_.bytes_up += data.size();
    relay->up->send(data);
  };
  relay->up->on_data = [this, relay](const std::string& data) {
    stats_.bytes_down += data.size();
    relay->down->send(data);
  };
  relay->down->on_remote_close = [relay] { relay->up->close(); };
  relay->up->on_remote_close = [relay] { relay->down->close(); };
  // TcpSocket::finish_close detaches all callbacks, which releases these
  // relay captures and lets the Relay (and both sockets) be destroyed.
}

}  // namespace mcs::transport
