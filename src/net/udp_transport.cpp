#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace bftbc::net {

namespace {

// First header word of every datagram; anything else is dropped before
// envelope decoding (stray traffic on the port, cross-version peers).
constexpr std::uint32_t kDatagramMagic = 0xBF7BC001u;
constexpr std::size_t kHeaderSize = 8;  // magic + src NodeId

std::uint32_t read_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void write_u32le(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

bool same_addr(const sockaddr_in& a, const sockaddr_in& b) {
  return a.sin_addr.s_addr == b.sin_addr.s_addr && a.sin_port == b.sin_port;
}

}  // namespace

std::optional<UdpEndpoint> UdpEndpoint::parse(const std::string& host,
                                              std::uint16_t port) {
  in_addr addr{};
  if (inet_pton(AF_INET, host.c_str(), &addr) != 1) return std::nullopt;
  UdpEndpoint ep;
  ep.ip = ntohl(addr.s_addr);
  ep.port = port;
  return ep;
}

std::string UdpEndpoint::to_string() const {
  in_addr addr{};
  addr.s_addr = htonl(ip);
  char buf[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &addr, buf, sizeof(buf));
  return std::string(buf) + ":" + std::to_string(port);
}

sockaddr_in UdpEndpoint::to_sockaddr() const {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ip);
  sa.sin_port = htons(port);
  return sa;
}

UdpTransport::UdpTransport(EventLoop& loop, sim::NodeId id,
                           const UdpEndpoint& bind_to,
                           std::map<sim::NodeId, UdpEndpoint> peers)
    : loop_(loop),
      id_(id),
      coalescer_(
          loop,
          [this](sim::NodeId to, const EncodedMessage& payload) {
            send_now(to, payload);
          },
          [this] { counters_.inc("encode_calls"); }) {
  for (const auto& [node, ep] : peers) peers_[node] = ep.to_sockaddr();

  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) return;
  const sockaddr_in sa = bind_to.to_sockaddr();
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    local_port_ = ntohs(bound.sin_port);
  }
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  loop_.watch_fd(fd_, [this] { on_readable(); });
}

UdpTransport::~UdpTransport() {
  coalescer_.flush();  // onto the socket before it closes
  if (fd_ >= 0) {
    loop_.unwatch_fd(fd_);
    ::close(fd_);
  }
}

void UdpTransport::set_receiver(Receiver receiver) {
  receiver_ = std::move(receiver);
}

const sockaddr_in* UdpTransport::addr_for(sim::NodeId to) {
  auto it = peers_.find(to);
  if (it != peers_.end()) return &it->second;
  it = learned_.find(to);
  if (it != learned_.end()) return &it->second;
  return nullptr;
}

void UdpTransport::send(sim::NodeId to, const rpc::Envelope& env) {
  coalescer_.send(to, env);
}

void UdpTransport::send_now(sim::NodeId to, const EncodedMessage& payload) {
  counters_.inc("msgs_sent");
  counters_.inc("bytes_sent", payload.size());
  const sockaddr_in* dst = fd_ >= 0 ? addr_for(to) : nullptr;
  if (dst == nullptr) {
    // Unknown destination (a client we have not heard from yet) or an
    // invalid socket: identical to a lossy link — count and move on,
    // retransmission recovers.
    counters_.inc("msgs_dropped");
    return;
  }
  // The header and the shared payload go out as one datagram of two
  // pieces, so the payload is never copied.
  std::uint8_t header[kHeaderSize];
  write_u32le(header, kDatagramMagic);
  write_u32le(header + 4, id_);
  const BytesView body = payload.view();
  iovec pieces[2] = {{header, kHeaderSize},
                     {const_cast<std::uint8_t*>(body.data()), body.size()}};
  msghdr msg{};
  msg.msg_name = const_cast<sockaddr_in*>(dst);
  msg.msg_namelen = sizeof(*dst);
  msg.msg_iov = pieces;
  msg.msg_iovlen = 2;
  const ssize_t n = ::sendmsg(fd_, &msg, 0);
  if (n != static_cast<ssize_t>(kHeaderSize + body.size())) {
    counters_.inc("msgs_dropped");
  }
}

void UdpTransport::on_readable() {
  // Drain everything the kernel buffered for this wakeup; the EventLoop
  // fires delay-0 timers only after the drain, so all these deliveries
  // share one "instant" (feeding the replicas' same-tick batches).
  std::uint8_t buf[64 * 1024];
  while (fd_ >= 0) {
    sockaddr_in src{};
    socklen_t srclen = sizeof(src);
    const ssize_t n = ::recvfrom(fd_, buf, sizeof(buf), 0,
                                 reinterpret_cast<sockaddr*>(&src), &srclen);
    if (n < 0) return;  // EAGAIN/EWOULDBLOCK: drained
    if (static_cast<std::size_t>(n) < kHeaderSize) continue;
    if (read_u32le(buf) != kDatagramMagic) continue;  // stray traffic
    const sim::NodeId from = read_u32le(buf + 4);

    if (!receiver_) continue;
    const BytesView body(buf + kHeaderSize,
                         static_cast<std::size_t>(n) - kHeaderSize);
    auto env = rpc::Envelope::decode(body);
    if (!env.has_value()) continue;  // corrupted / garbage: drop silently

    // Learn (or refresh) the sender's return address — ephemeral client
    // ports make this the only reply route. This must come AFTER the
    // decode verdict: the 8-byte header is forgeable, so a garbage
    // datagram naming a client's NodeId must not redirect that client's
    // replies to the attacker's source address. Configured peers are
    // pinned either way: a forged header naming a replica never moves
    // its route.
    if (peers_.count(from) == 0) {
      auto it = learned_.find(from);
      if (it == learned_.end() || !same_addr(it->second, src)) {
        learned_[from] = src;
      }
    }
    counters_.inc("msgs_delivered");
    counters_.inc("bytes_delivered", body.size());
    rpc::SendCoalescer::deliver(receiver_, from, *env);
  }
}

}  // namespace bftbc::net
