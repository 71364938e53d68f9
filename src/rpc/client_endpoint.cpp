#include "rpc/client_endpoint.h"

namespace bftbc::rpc {

ClientEndpoint::ClientEndpoint(const quorum::QuorumConfig& config,
                               quorum::ClientId id, crypto::Keystore& keystore,
                               Transport& transport, sim::Scheduler& scheduler,
                               std::vector<sim::NodeId> replica_nodes, Rng rng,
                               std::uint64_t first_rpc_id)
    : config_(config),
      id_(id),
      keystore_(keystore),
      signer_(keystore.register_principal(quorum::client_principal(id))),
      transport_(transport),
      sim_(scheduler),
      replica_nodes_(std::move(replica_nodes)),
      nonces_(id, rng),
      next_rpc_id_(first_rpc_id) {
  transport_.set_receiver([this](sim::NodeId from, const Envelope& env) {
    retired_.clear();
    on_envelope(from, env);
  });
}

Envelope ClientEndpoint::make_request(MsgType type, Bytes body) {
  Envelope env;
  env.type = type;
  env.rpc_id = next_rpc_id_++;
  env.sender = quorum::client_principal(id_);
  env.body = std::move(body);
  return env;
}

}  // namespace bftbc::rpc
