// A capped replica's residency, pinned message by message: which objects
// an LRU cap of 4 evicts and reloads across 12 objects touched out of
// order, the eviction counters, and that a WRITE-REPLY signature
// presigned before its object was evicted is still served after the
// reload. Only the Replica's public surface is observed (find_object
// never touches or reloads), so the figures hold for any table that
// keeps residency exactly LRU.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "bftbc/replica.h"
#include "quorum/statements.h"
#include "rpc/transport.h"

namespace bftbc::core {
namespace {

constexpr sim::NodeId kProbeNode = 100;
constexpr quorum::ClientId kClient = 5;

class ReplicaResidencyTest : public ::testing::Test {
 protected:
  ReplicaResidencyTest()
      : config_(quorum::QuorumConfig::bft_bc(1)),
        net_(sim_, Rng(1),
             [] {
               sim::LinkConfig c;
               c.base_delay = 1;
               c.jitter_mean = 0;
               return c;
             }()),
        keystore_(crypto::SignatureScheme::kHmacSim, 9),
        replica_transport_(net_, 0),
        probe_(net_, kProbeNode),
        replica_(config_, 0, keystore_, replica_transport_, sim_,
                 [] {
                   ReplicaOptions o;
                   o.max_resident_objects = 4;
                   return o;
                 }()),
        client_signer_(
            keystore_.register_principal(quorum::client_principal(kClient))) {
    probe_.set_receiver([this](sim::NodeId, const rpc::Envelope& env) {
      replies_.push_back(env);
    });
    for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
      replica_signers_.push_back(
          keystore_.register_principal(quorum::replica_principal(r)));
    }
  }

  void send(rpc::MsgType type, Bytes body) {
    rpc::Envelope env;
    env.type = type;
    env.rpc_id = ++rpc_id_;
    env.sender = quorum::client_principal(kClient);
    env.body = std::move(body);
    probe_.send(0, env);
    sim_.run();
  }

  void read(ObjectId object,
            std::optional<WriteCertificate> wcert = std::nullopt) {
    ReadRequest req;
    req.object = object;
    req.nonce = crypto::Nonce{kClient, rpc_id_ + 1, 7};
    req.write_cert = std::move(wcert);
    send(rpc::MsgType::kRead, req.encode());
  }

  quorum::SignatureSet quorum_sigs(const Bytes& stmt) {
    quorum::SignatureSet sigs;
    for (quorum::ReplicaId r = 0; r < config_.q; ++r) {
      sigs[r] = replica_signers_[r].sign(stmt).value();
    }
    return sigs;
  }

  // The objects find_object reports resident, ascending.
  std::vector<ObjectId> resident() const {
    std::vector<ObjectId> out;
    for (ObjectId id = 1; id <= 12; ++id) {
      if (replica_.find_object(id) != nullptr) out.push_back(id);
    }
    return out;
  }

  std::uint64_t count(const char* name) const {
    return replica_.metrics().get(name);
  }

  quorum::QuorumConfig config_;
  sim::Simulator sim_;
  sim::Network net_;
  crypto::Keystore keystore_;
  rpc::SimTransport replica_transport_;
  rpc::SimTransport probe_;
  Replica replica_;
  crypto::Signer client_signer_;
  std::vector<crypto::Signer> replica_signers_;
  std::vector<rpc::Envelope> replies_;
  std::uint64_t rpc_id_ = 0;
};

TEST_F(ReplicaResidencyTest, CappedReplicaEvictsAndReloadsExactlyLru) {
  const Bytes value = to_bytes("presigned before eviction");
  const crypto::Digest h = crypto::sha256(value);
  const Timestamp t{1, kClient};

  // Object 1 is prepared, which presigns its WRITE-REPLY for t.
  PrepareRequest prep;
  prep.object = 1;
  prep.t = t;
  prep.hash = h;
  prep.prep_cert = PrepareCertificate::genesis(1);
  prep.client = kClient;
  prep.sig = client_signer_.sign(prep.signing_payload()).value();
  send(rpc::MsgType::kPrepare, prep.encode());
  ASSERT_EQ(replies_.size(), 1u);
  EXPECT_EQ(count("sig_background"), 1u);

  // Recency after each touch, newest first, in the comments.
  for (ObjectId id : {2, 3, 4}) read(id);  // 4 3 2 1
  EXPECT_EQ(resident(), (std::vector<ObjectId>{1, 2, 3, 4}));
  EXPECT_EQ(count("objects_evicted"), 0u);

  read(5);  // 5 4 3 2, evicts 1 and its prepare list
  EXPECT_EQ(resident(), (std::vector<ObjectId>{2, 3, 4, 5}));
  read(3);  // 3 5 4 2: a hit only moves 3
  read(6);  // 6 3 5 4, evicts 2
  EXPECT_EQ(resident(), (std::vector<ObjectId>{3, 4, 5, 6}));
  read(4);  // 4 6 3 5
  read(7);  // 7 4 6 3, evicts 5
  read(8);  // 8 7 4 6, evicts 3
  EXPECT_EQ(resident(), (std::vector<ObjectId>{4, 6, 7, 8}));
  read(11);  // evicts 6
  read(9);   // evicts 4
  read(12);  // evicts 7
  read(10);  // 10 12 9 11, evicts 8
  EXPECT_EQ(resident(), (std::vector<ObjectId>{9, 10, 11, 12}));
  EXPECT_EQ(count("objects_evicted"), 8u);
  EXPECT_EQ(count("objects_reloaded"), 0u);
  EXPECT_EQ(replica_.resident_objects(), 4u);
  EXPECT_EQ(replica_.evicted_objects(), 8u);

  // The WRITE for object 1 reloads it (evicting 11, not the object its
  // handler holds), applies the value to the reloaded state, and is
  // answered from the signature presigned before the eviction.
  WriteRequest w;
  w.object = 1;
  w.value = value;
  w.prep_cert = PrepareCertificate(
      1, t, h, quorum_sigs(quorum::prepare_reply_statement(1, t, h)));
  w.client = kClient;
  w.sig = client_signer_.sign(w.signing_payload()).value();
  replies_.clear();
  send(rpc::MsgType::kWrite, w.encode());
  ASSERT_EQ(replies_.size(), 1u);
  auto rep = WriteReply::decode(replies_[0].body);
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(keystore_.verify(quorum::replica_principal(0),
                               quorum::write_reply_statement(1, t), rep->sig));
  EXPECT_EQ(count("sig_background_hit"), 1u);
  EXPECT_EQ(count("sig_foreground"), 1u);  // the PREPARE-REPLY only
  EXPECT_EQ(count("objects_reloaded"), 1u);
  EXPECT_EQ(resident(), (std::vector<ObjectId>{1, 9, 10, 12}));
  const ObjectState* one = replica_.find_object(1);
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(one->data(), value);
  EXPECT_EQ(one->plist().count(kClient), 1u);  // survived the eviction

  read(3);  // 3 1 10 12: reloads 3, evicts 9
  EXPECT_EQ(resident(), (std::vector<ObjectId>{1, 3, 10, 12}));
  EXPECT_EQ(count("objects_evicted"), 10u);
  EXPECT_EQ(count("objects_reloaded"), 2u);

  // A write certificate for t on a read of object 1 collects its prepare
  // entry and the presigned signature.
  read(1, WriteCertificate(
              1, t, quorum_sigs(quorum::write_reply_statement(1, t))));
  EXPECT_EQ(count("gc_via_read"), 1u);
  EXPECT_EQ(count("gc_reclaimed"), 1u);
  EXPECT_EQ(count("sig_cache_gc"), 1u);
  EXPECT_EQ(resident(), (std::vector<ObjectId>{1, 3, 10, 12}));
  EXPECT_EQ(replica_.resident_objects(), 4u);
  EXPECT_EQ(replica_.evicted_objects(), 8u);
}

}  // namespace
}  // namespace bftbc::core
