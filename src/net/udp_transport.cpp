#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/codec.h"

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
                           std::map<sim::NodeId, UdpEndpoint> peers,
                           UdpTransportOptions options)
    : loop_(loop), id_(id), options_(options) {
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
  if (flush_scheduled_) {
    loop_.cancel(flush_timer_);
    // Mirror of SimTransport teardown: an envelope accepted by send()
    // must not silently vanish — drain the coalescing remainder onto the
    // socket before closing it.
    flush_sends();
  }
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
  pending_[to].push_back(env);
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    // Delay 0 fires after the current socket drain completes, so one
    // flush gathers every send of this wakeup — the live analogue of
    // SimTransport's same-virtual-instant coalescing.
    flush_timer_ = loop_.schedule(0, [this] { flush_sends(); });
  }
}

void UdpTransport::send_now(sim::NodeId to, const rpc::Envelope& env) {
  if (!env.has_cached_encoding()) counters_.inc("encode_calls");
  send_payload(to, env.shared_encoding());
}

void UdpTransport::send_payload(sim::NodeId to, const EncodedMessage& payload) {
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
  Writer w;
  w.put_u32(kDatagramMagic);
  w.put_u32(id_);
  w.put_raw(payload.view());
  const Bytes datagram = std::move(w).take();
  const ssize_t n =
      ::sendto(fd_, datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(dst), sizeof(*dst));
  if (n != static_cast<ssize_t>(datagram.size())) {
    counters_.inc("msgs_dropped");
  }
}

void UdpTransport::flush_sends() {
  flush_scheduled_ = false;
  std::map<sim::NodeId, std::vector<rpc::Envelope>> pending;
  pending.swap(pending_);
  for (auto& [to, envs] : pending) {
    if (envs.size() == 1) {
      send_now(to, envs.front());
      continue;
    }
    // Pack sub-envelopes into kBatch bundles, starting a fresh bundle
    // whenever the next envelope would push the datagram past the cap.
    std::size_t i = 0;
    while (i < envs.size()) {
      Writer body;
      std::uint32_t count = 0;
      std::size_t batch_size = kHeaderSize;
      while (i < envs.size()) {
        const rpc::Envelope& sub = envs[i];
        if (!sub.has_cached_encoding()) counters_.inc("encode_calls");
        const EncodedMessage& enc = sub.shared_encoding();
        if (count > 0 && batch_size + enc.size() > options_.max_datagram) {
          break;
        }
        body.put_bytes(enc.view());
        batch_size += enc.size() + 5;  // varint length prefix worst case
        ++count;
        ++i;
      }
      if (count == 1) {
        send_now(to, envs[i - 1]);
        continue;
      }
      Writer w;
      w.put_u32(count);
      w.put_raw(body.data());
      rpc::Envelope batch;
      batch.type = rpc::MsgType::kBatch;
      batch.body = std::move(w).take();
      send_now(to, batch);
    }
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
    if (env->type == rpc::MsgType::kBatch) {
      deliver_bundle(from, env->body);
      continue;
    }
    receiver_(from, *env);
  }
}

void UdpTransport::deliver_bundle(sim::NodeId from, BytesView body) {
  Reader r(body);
  const std::uint32_t count = r.get_u32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    // Re-checked every iteration, as in SimTransport: a handler may
    // clear the receiver mid-bundle (shutdown), and invoking an empty
    // std::function is UB.
    if (!receiver_) return;
    auto sub = rpc::Envelope::decode(r.get_bytes());
    // Nested bundles are never produced; drop them so a Byzantine sender
    // cannot build unbounded recursion.
    if (!sub.has_value() || sub->type == rpc::MsgType::kBatch) continue;
    receiver_(from, *sub);
  }
}

}  // namespace bftbc::net
