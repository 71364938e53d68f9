// ClientEndpoint: the part every quorum client shares, whatever protocol
// it speaks — BFT-BC's core::Client, the §3.2 attack drivers, and the
// BQS / Phalanx / SBQ-L baseline clients all derive from it.
//
// It holds the client's identity (quorum config, client id, signer,
// transport, timer source, replica addresses, nonce stream), its
// cumulative Counters and its request-id sequence, and it registers the
// transport receiver. Each delivered envelope first frees the QuorumCalls
// parked in `retired_` — no call's frame is active at delivery time, so
// calls replaced mid-callback can die safely there — and then goes to the
// subclass's on_envelope, which routes it to the call it answers.
//
// The first request id is a fixed constructor argument of each client
// kind (1 for the correct clients, other constants for the attackers),
// so every kind keeps its own wire bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/nonce.h"
#include "crypto/signature.h"
#include "quorum/config.h"
#include "rpc/quorum_call.h"
#include "rpc/transport.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace bftbc::rpc {

class ClientEndpoint {
 public:
  virtual ~ClientEndpoint() = default;

  ClientEndpoint(const ClientEndpoint&) = delete;
  ClientEndpoint& operator=(const ClientEndpoint&) = delete;

  quorum::ClientId id() const { return id_; }
  const Counters& metrics() const { return metrics_; }

 protected:
  ClientEndpoint(const quorum::QuorumConfig& config, quorum::ClientId id,
                 crypto::Keystore& keystore, Transport& transport,
                 sim::Scheduler& scheduler,
                 std::vector<sim::NodeId> replica_nodes, Rng rng,
                 std::uint64_t first_rpc_id);

  // A request from this client carrying the next request id.
  Envelope make_request(MsgType type, Bytes body);

  // One delivered envelope, after `retired_` has been emptied.
  virtual void on_envelope(sim::NodeId from, const Envelope& env) = 0;

  quorum::QuorumConfig config_;
  quorum::ClientId id_;
  crypto::Keystore& keystore_;
  crypto::Signer signer_;
  Transport& transport_;
  sim::Scheduler& sim_;
  std::vector<sim::NodeId> replica_nodes_;
  crypto::NonceGenerator nonces_;
  Counters metrics_;
  std::vector<std::unique_ptr<QuorumCall>> retired_;

 private:
  std::uint64_t next_rpc_id_;
};

}  // namespace bftbc::rpc
