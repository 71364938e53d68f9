// BFT-BC replica (paper Figure 2 + §6.2 replica side + §7.2 checks).
//
// One Replica instance serves all protocol variants; ReplicaOptions picks
// the mode:
//   - base       : three-phase writes, Plist only
//   - optimized  : also answers READ-TS-PREP, maintains optlist, applies
//                  the larger-hash tiebreak on equal timestamps
//   - strong     : phase-1 replies carry a signed WRITE-REPLY statement
//                  for the current timestamp, and PREPARE is accepted
//                  only with a write certificate proving the proposed
//                  timestamp succeeds a *completed* write
//
// Faithful to Figure 2, invalid requests are discarded *without* a reply
// (a reply would let a bad client distinguish probe outcomes); drops are
// visible to tests through the metrics counters.
//
// Crypto cost model: `sign_cost`/`verify_cost` charge virtual time per
// public-key operation, delaying the reply. With `background_write_sigs`
// (§3.3.2) the WRITE-REPLY signature for a just-prepared timestamp is
// precomputed when the PREPARE is answered, so the phase-3 reply pays no
// foreground signing cost — the ablation bench E8 flips this flag.
//
// Batched statement signatures (DESIGN §5): the handlers of one flush
// stage every certificate statement they sign, and flush_batch signs them
// all with one Signer::sign_batch after dispatch (one RSA signature per
// kMaxBatchLeaves statements under kRsa). Replies then get their
// signatures and point-to-point authenticators and leave in handler
// order. sign_cost is still charged per statement.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "bftbc/messages.h"
#include "bftbc/object_table.h"
#include "bftbc/replica_state.h"
#include "metrics/registry.h"
#include "rpc/quorum_call.h"
#include "rpc/transport.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace bftbc::core {

struct ReplicaOptions {
  bool optimized = false;
  bool strong = false;
  bool background_write_sigs = true;
  sim::Time sign_cost = 0;    // virtual time per public-key signature
  sim::Time verify_cost = 0;  // virtual time per signature verification
  // When true, write-path requests (PREPARE / WRITE / READ-TS-PREP) are
  // accepted only from clients on the explicit access control list
  // ("replicas allow write requests only from authorized clients",
  // §3.1); when false, any client with a valid signature may write.
  // Reads are answered unconditionally either way.
  bool enforce_acl = false;
  // MAC-authenticator mode (paper §3.3.2): point-to-point messages —
  // client requests and replica replies — are authenticated with pair
  // MACs instead of signatures. Client request `sig` fields then carry
  // an n-tag authenticator (this replica checks slice id); replies
  // carry a single MAC toward the requesting principal. Signatures
  // remain for prepare/write certificate statements, which must be
  // transferable proofs. Clients and replicas must agree on this knob.
  bool mac_auth = false;
  // Optional observability hook. When set, the replica keeps scoped
  // grant/reject totals ("replica/<id>/grants", "replica/<id>/rejects")
  // plus shared list-size histograms ("replica.plist_size",
  // "replica.optlist_size") in addition to the per-name Counters.
  metrics::MetricsRegistry* registry = nullptr;
  // Registry scope for this replica's counters; empty derives the
  // classic "replica/<id>". A sharded harness passes
  // "shard/<s>/replica/<r>" so same-numbered replicas of different
  // groups do not alias (no trailing slash).
  std::string metrics_scope;
  // Memory discipline for large keyspaces: when nonzero, at most this
  // many ObjectState instances stay resident. Cold objects are evicted
  // LRU — serialized to the replica's object store — and transparently
  // reloaded on next touch. Counters: "objects_evicted",
  // "objects_reloaded"; GC of superseded prepare/optlist entries is
  // tallied under "gc_reclaimed" either way.
  std::size_t max_resident_objects = 0;
  // Serial-server processing model: reply costs queue behind one
  // another (a single CPU per replica) instead of overlapping freely.
  // This is what makes aggregate virtual-time throughput saturate per
  // group — and scale with shard count — in bench_sharding. Off by
  // default: the classic model charges each reply its own cost only.
  bool serialize_processing = false;
};

class Replica {
 public:
  // `scheduler` is the node's timer source: the discrete-event Simulator
  // in tests/benches, a net::EventLoop in a live deployment — the state
  // machine is identical either way.
  Replica(const quorum::QuorumConfig& config, ReplicaId id,
          crypto::Keystore& keystore, rpc::Transport& transport,
          sim::Scheduler& scheduler, ReplicaOptions options = ReplicaOptions());

  virtual ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  ReplicaId id() const { return id_; }
  const quorum::QuorumConfig& config() const { return config_; }
  const ReplicaOptions& options() const { return options_; }

  // Per-object state, created on first touch (tests & checkers read it).
  // With max_resident_objects set this is also the reload point: a
  // previously evicted object is decoded back from the store, and the
  // insertion may evict the coldest resident object to stay under the
  // cap.
  ObjectState& object(ObjectId id);
  // Resident lookup only — never reloads (const; tests and checkers use
  // it to observe residency).
  const ObjectState* find_object(ObjectId id) const;

  // Memory-discipline observability (evicted is zero when eviction is
  // off).
  std::size_t resident_objects() const { return objects_.resident(); }
  std::size_t evicted_objects() const { return objects_.evicted(); }

  // Crash recovery: rebuild the named objects' state from a quorum of
  // peer replicas via STATE-XFER. One QuorumCall per object runs
  // concurrently (20ms retransmits, no deadline — recovery is live as
  // soon as 2f+1 peers are reachable, like any client phase). Replies
  // are self-verifying: each snapshot's prepare certificate must
  // validate and cover the value hash before it counts, and the
  // adopted state is the Byzantine-tolerant merge of 2f+1 valid
  // snapshots (ObjectState::recover). `on_done` fires once every
  // object is installed. Counters: "state_xfer_sent",
  // "state_xfer_reply_invalid", "state_recovered_objects".
  using RecoveryDone = std::function<void()>;
  void begin_recovery(const std::vector<ObjectId>& objects,
                      std::vector<sim::NodeId> peer_nodes,
                      RecoveryDone on_done = nullptr);
  bool recovering() const { return !recovery_calls_.empty(); }

  // Counters: replies/drops per message kind, signature accounting
  // ("sig_foreground", "sig_background", "auth_p2p", "verify_*"), drop
  // reasons ("drop_bad_auth", "drop_bad_cert", "drop_bad_ts",
  // "drop_plist_conflict", ...), and same-tick batching ("batch_flushes";
  // "batch_verify_msgs", the messages those flushes held;
  // "batched_replies", "reply_batches", "auth_p2p_amortized").
  const Counters& metrics() const { return metrics_; }

  // Access control list (only consulted when options.enforce_acl). The
  // administrator action of the paper's stop event: `deauthorize`
  // removes the client's write privilege; already-signed messages keep
  // verifying, so a colluder can still replay completed prepares — the
  // lurking-write bound is what limits the damage.
  void authorize(quorum::ClientId client) { acl_.insert(client); }
  void deauthorize(quorum::ClientId client) { acl_.erase(client); }
  bool is_authorized(quorum::ClientId client) const {
    return !options_.enforce_acl || acl_.count(client) != 0;
  }

 protected:
  // Transport entry point: enqueues into the current tick's batch. Every
  // message delivered at one virtual-time instant joins one batch, so
  // replies to one node can share one authenticator (flush_replies); the
  // flush is keyed to sim time, so runs stay deterministic.
  void deliver(sim::NodeId from, const rpc::Envelope& env);

  // Drains the tick's batch: counts the requests per node that carry a
  // point-to-point authenticator, then dispatches each message through
  // on_envelope (so Byzantine subclass interceptors still see every
  // message). Each handler verifies the signatures it uses, once, in
  // Figure 2's order, and discards the request at the first failure.
  // The statements the handlers staged are signed in one batch, and the
  // replies leave in the order the handlers produced them.
  void flush_batch();

  // True while the current flush amortizes point-to-point reply
  // authentication toward `to`: at least two auth-bearing requests from
  // that node share this batch, so handlers leave the per-reply `auth`
  // empty and flush_replies() ships one ReplyBatch under a single
  // authenticator instead.
  [[nodiscard]] bool amortized_auth_for(sim::NodeId to) const;

  // Sends the replies captured during batch dispatch: one authenticated
  // ReplyBatch per destination, scheduled at the group's largest
  // per-reply processing cost (replies of one batch are produced by the
  // same flush, so they leave together).
  void flush_replies();

  // Virtual so Byzantine replica behaviors (src/faults) can intercept.
  virtual void on_envelope(sim::NodeId from, const rpc::Envelope& env);

  void handle_read_ts(sim::NodeId from, const rpc::Envelope& env);
  void handle_prepare(sim::NodeId from, const rpc::Envelope& env);
  void handle_write(sim::NodeId from, const rpc::Envelope& env);
  void handle_read(sim::NodeId from, const rpc::Envelope& env);
  void handle_read_ts_prep(sim::NodeId from, const rpc::Envelope& env);

  // Recovery peer side: serve this replica's serialized ObjectState.
  // Unauthenticated like READ — the snapshot is validated by the
  // requester, not vouched for by the carrier.
  void handle_state_xfer(sim::NodeId from, const rpc::Envelope& env);
  // Recovery requester side: route a STATE-XFER-REPLY into the matching
  // in-flight recovery call.
  void route_recovery_reply(sim::NodeId from, const rpc::Envelope& env);

  // Sends a reply after the virtual-time cost accumulated while handling
  // the request (signature/verification charges). Virtual so Byzantine
  // replicas can tamper with outgoing bytes. Called with a reply's final
  // bytes; inside a flush's dispatch the reply waits for the flush's
  // earlier replies, so replies leave in handler order.
  virtual void reply(sim::NodeId to, rpc::MsgType type, std::uint64_t rpc_id,
                     Bytes body, sim::Time processing_cost);
  // reply() without the wait: ships now, or into the flush's ReplyBatch
  // when amortized_auth_for(to).
  void send_reply(sim::NodeId to, rpc::MsgType type, std::uint64_t rpc_id,
                  Bytes body, sim::Time processing_cost);
  // Charges `processing_cost`, then sends `env` now or once it is paid.
  void send_after(sim::NodeId to, rpc::Envelope env,
                  sim::Time processing_cost);

  // Converts a processing cost into the reply's actual delay. Classic
  // model: the cost itself (infinite parallelism). serialize_processing:
  // the work queues behind the replica's single CPU (busy_until_), so
  // the delay includes time spent waiting for earlier requests.
  sim::Time charge_processing(sim::Time cost);

  // Statement signing. A staged statement is signed with the rest of
  // the flush's batch; its slot names its signature there.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::uint32_t stage_statement(Bytes stmt);
  // A statement on the reply's critical path: "sig_foreground", charged
  // sign_cost.
  std::uint32_t stage_foreground(Bytes stmt, sim::Time& cost);
  // Point-to-point reply authenticator toward principal `to` (the
  // requester's claimed sender principal): a pair MAC in mac_auth mode,
  // a signature otherwise.
  Bytes p2p_auth(crypto::PrincipalId to, BytesView payload, sim::Time& cost);

  // The batch slots a reply's statement-signature fields take their
  // signatures from: `sig` fills PrepareReply/WriteReply::sig and
  // ReadTsPrepReply::prepare_sig, `strong` fills strong_write_sig.
  // `shared` marks a slot a presigned WRITE-REPLY signature also takes
  // (copied into the reply, moved into the object's entry).
  struct Slots {
    std::uint32_t sig = kNoSlot;
    std::uint32_t strong = kNoSlot;
    bool shared = false;
  };
  using SignedReply =
      std::variant<PrepareReply, WriteReply, ReadTsReply, ReadTsPrepReply>;
  // Queues a reply whose signatures come from this flush's batch. Once
  // the batch is signed its slots are filled, a READ-TS(-PREP) reply not
  // amortized into a ReplyBatch gets its authenticator toward `auth_to`
  // (it covers the signatures), and the bytes go through reply().
  void reply_after_batch(sim::NodeId to, rpc::MsgType type,
                         std::uint64_t rpc_id, SignedReply rep, Slots slots,
                         std::optional<crypto::PrincipalId> auth_to,
                         sim::Time cost);
  // Signs the staged statements with one sign_batch, then finishes and
  // sends every reply dispatch produced, in order, and fills the
  // presigned WRITE-REPLY signatures.
  void finish_replies();

  // Presigned WRITE-REPLY statements, kept in the object's entry: with
  // background_write_sigs, presign_write_reply stages (object, ts)'s
  // statement while the prepare is handled, and write_sig_for serves it
  // (or stages it in the foreground on a miss).
  void presign_write_reply(ObjectTable::Entry& entry, ObjectId object,
                           const Timestamp& ts);
  // Copies a signature the entry holds into `sig`, or returns the slot
  // that will hold it.
  Slots write_sig_for(ObjectTable::Entry& entry, ObjectId object,
                      const Timestamp& ts, Bytes& sig, sim::Time& cost);

  // Metrics helpers: every handled request ends in exactly one of these.
  // Both bump the named Counters entry; with a bound registry they also
  // bump the scoped grant/reject totals.
  void granted(const char* counter);
  void dropped(const char* counter);
  // Records current prepare-list sizes into the shared histograms (no-op
  // without a bound registry).
  void record_list_sizes(const ObjectState& state);

  // Shared request-validity checks.
  [[nodiscard]] bool verify_client_sig(quorum::ClientId client,
                                       BytesView payload, BytesView sig,
                                       sim::Time& cost);
  // A prepare or write certificate for `object`, charged per signature.
  template <typename Cert>
  [[nodiscard]] bool valid_cert(const Cert& cert, ObjectId object,
                                sim::Time& cost);

  quorum::QuorumConfig config_;
  ReplicaId id_;
  crypto::Keystore& keystore_;
  crypto::Signer signer_;
  rpc::Transport& transport_;
  sim::Scheduler& sim_;
  ReplicaOptions options_;

  // Absorbs a write certificate into the entry's state, tallying
  // reclaimed prepare/optlist entries ("gc_reclaimed") and dropping the
  // now-superseded presigned WRITE-REPLY signatures for the object
  // ("sig_cache_gc") — the write certificate proves those timestamps
  // completed, so no future WRITE for them needs the cached signature.
  void absorb_and_gc(ObjectTable::Entry& entry, const Timestamp& wcert_ts);

  Counters metrics_;
  // Every object's state, resident or evicted, and its presigned
  // WRITE-REPLY signatures (object_table.h).
  ObjectTable objects_;
  // The signatures presign_write_reply staged in the current flush.
  struct Presigned {
    ObjectTable::Entry* entry;
    Timestamp ts;
  };
  std::vector<Presigned> presigned_;
  std::set<quorum::ClientId> acl_;

  // Same-tick batching state. `current_batch_size_` is nonzero only
  // while flush_batch is dispatching, so reply() can attribute replies
  // to a multi-message batch ("batched_replies").
  struct PendingEnvelope {
    sim::NodeId from;
    rpc::Envelope env;
  };
  std::vector<PendingEnvelope> pending_batch_;
  // The batch flush_batch dispatches; it and pending_batch_ swap, so
  // both keep their capacity.
  std::vector<PendingEnvelope> flushing_;
  sim::TimerId flush_timer_ = 0;
  bool flush_scheduled_ = false;
  std::size_t current_batch_size_ = 0;

  // Reply-signing amortization state (valid only inside flush_batch).
  struct PendingReply {
    sim::NodeId to;
    std::size_t seq;  // production order, kept within a destination
    rpc::Envelope env;
    sim::Time cost;
  };
  std::vector<PendingReply> pending_replies_;
  // The current flush's staged statements, in handler order, and its
  // replies in the order the handlers produced them: final bytes, or a
  // reply waiting for the batch. Both keep their capacity across
  // flushes.
  std::vector<Bytes> staged_;
  struct Outgoing {
    sim::NodeId to = 0;
    rpc::MsgType type{};
    std::uint64_t rpc_id = 0;
    sim::Time cost = 0;
    std::variant<Bytes, SignedReply> body;
    Slots slots;
    std::optional<crypto::PrincipalId> auth_to;
  };
  std::vector<Outgoing> outgoing_;
  bool deferring_ = false;  // true while flush_batch dispatches
  // Each node that sent point-to-point-authenticated requests in the
  // current flush, ascending by node: how many, and the sender principal
  // the last one claimed (flush_replies aims the ReplyBatch MAC at it in
  // mac_auth mode). Kept across flushes for its capacity.
  struct BatchAuth {
    sim::NodeId node = 0;
    std::size_t seq = 0;  // the node's last request's index in the batch
    std::size_t count = 0;
    crypto::PrincipalId principal = 0;
  };
  std::vector<BatchAuth> batch_auth_;
  const BatchAuth* batch_auth_of(sim::NodeId node) const;
  bool collecting_replies_ = false;

  // Serial-server watermark (serialize_processing): the virtual time at
  // which this replica's CPU frees up; each costed reply starts no
  // earlier.
  sim::Time busy_until_ = 0;

  // Crash-recovery state-transfer session: one in-flight QuorumCall per
  // object being rebuilt, keyed by rpc id. Snapshots are kept per
  // target index so the merge sees them in replica order regardless of
  // reply arrival order (determinism).
  struct RecoveryCall {
    ObjectId object = 0;
    crypto::Nonce nonce;
    // By peer index; the first valid snapshot from each peer.
    std::vector<std::optional<ObjectState>> snapshots;
    std::unique_ptr<rpc::QuorumCall> call;
  };
  std::map<std::uint64_t, RecoveryCall> recovery_calls_;
  // Finished calls park here until no QuorumCall frame is on the stack
  // (same pattern as rpc::ClientEndpoint::retired_).
  std::vector<std::unique_ptr<rpc::QuorumCall>> retired_recovery_calls_;
  std::uint64_t next_recovery_rpc_ = 1;
  RecoveryDone recovery_done_;

  // Pre-resolved registry handles (all null without options.registry).
  metrics::Counter* grants_ = nullptr;
  metrics::Counter* rejects_ = nullptr;
  Histogram* plist_size_ = nullptr;
  Histogram* optlist_size_ = nullptr;
};

}  // namespace bftbc::core
