// rpc::Transport over a real UDP socket.
//
// The live counterpart of rpc::SimTransport: the same Envelope wire
// format and the same rpc::SendCoalescer (its delay-0 flush timer on the
// EventLoop instead of the Simulator, its bundles capped to fit one
// datagram) — so protocol state machines are byte-for-byte oblivious to
// whether their packets cross a simulated link or the kernel.
//
// Datagram framing (UDP preserves message boundaries, so no length
// prefix is needed for the envelope itself):
//
//   [u32 magic][u32 src NodeId][envelope bytes]
//
// The source NodeId in the header solves reply addressing: replicas are
// configured with each other's endpoints, but clients bind ephemeral
// ports nobody can preconfigure. Receivers learn `src -> sockaddr` from
// each datagram's origin and use the learned map (after the static peer
// table) when sending. The NodeId claim is transport-level only, exactly
// like Envelope::sender: protocol safety rests on the signatures inside
// the body, and the worst a forged header id can do is misdirect a
// reply — indistinguishable from the lossy network the protocol already
// tolerates (§2's unreliable-network model).
#pragma once

#include <cstdint>
#include <map>
#include <netinet/in.h>
#include <optional>
#include <string>

#include "net/event_loop.h"
#include "rpc/transport.h"
#include "util/stats.h"

namespace bftbc::net {

// An IPv4 endpoint (BFT-BC deployments name replicas explicitly; v4 is
// enough for the localhost and LAN clusters this targets).
struct UdpEndpoint {
  std::uint32_t ip = 0;  // host byte order
  std::uint16_t port = 0;

  // Parses a dotted-quad host ("127.0.0.1"); hostnames are not resolved.
  static std::optional<UdpEndpoint> parse(const std::string& host,
                                          std::uint16_t port);
  std::string to_string() const;
  sockaddr_in to_sockaddr() const;

  friend bool operator==(const UdpEndpoint& a, const UdpEndpoint& b) {
    return a.ip == b.ip && a.port == b.port;
  }
};

class UdpTransport final : public rpc::Transport {
 public:
  // Binds a UDP socket at `bind_to` (port 0 lets the kernel pick — the
  // client configuration) and registers with the loop. `peers` is the
  // static NodeId -> endpoint table (the replicas from the cluster
  // config); anyone else is reachable only once learned from inbound
  // traffic. Aborts via Status-less throw-free design: a failed bind
  // leaves the transport invalid (valid() == false, sends count as
  // drops) so daemons can report and exit cleanly. A single envelope
  // too large for one datagram fails the same way (counted as a drop);
  // the protocol's retransmit machinery owns recovery.
  UdpTransport(EventLoop& loop, sim::NodeId id, const UdpEndpoint& bind_to,
               std::map<sim::NodeId, UdpEndpoint> peers);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  std::uint16_t local_port() const { return local_port_; }

  sim::NodeId node_id() const override { return id_; }
  void send(sim::NodeId to, const rpc::Envelope& env) override;
  void set_receiver(Receiver receiver) override;

  // Same counter vocabulary as sim::Network ("msgs_sent", "bytes_sent",
  // "msgs_delivered", "bytes_delivered", "msgs_dropped", "encode_calls")
  // so bench JSON folds identically for simulated and live runs.
  const Counters& counters() const { return counters_; }

 private:
  void send_now(sim::NodeId to, const EncodedMessage& payload);
  void on_readable();
  const sockaddr_in* addr_for(sim::NodeId to);

  EventLoop& loop_;
  sim::NodeId id_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  Receiver receiver_;

  std::map<sim::NodeId, sockaddr_in> peers_;    // configured (replicas)
  std::map<sim::NodeId, sockaddr_in> learned_;  // observed (clients)

  Counters counters_;
  rpc::SendCoalescer coalescer_;
};

}  // namespace bftbc::net
