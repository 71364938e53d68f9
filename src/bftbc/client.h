// BFT-BC client (paper Figure 1, §3.2.2 reads, §6.2 optimized writes,
// §7.2 strong writes).
//
// Operations are asynchronous: write() / read() return immediately and
// the callback fires when the operation completes (or its deadline
// expires). The client keeps, per object, the write certificate of its
// last completed write — the proof replicas demand before admitting its
// next prepare.
//
// Phase accounting: every quorum RPC round counts as one phase, so
//   base write  = 3,      optimized write = 2 (contended: 3)
//   read        = 1 or 2 (write-back)
//   strong write = base/optimized + 2 when phase-1 timestamps disagree
// The per-op result reports the count; benches E1–E3 aggregate them.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bftbc/messages.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "rpc/client_endpoint.h"
#include "util/id_table.h"

namespace bftbc::core {

struct OpBase;

struct ClientOptions {
  bool optimized = false;  // §6: merge phases 1+2 via READ-TS-PREP
  bool strong = false;     // §7: prepares carry predecessor write certs
  // §3.3.1 speed-up: piggyback this client's last write certificate on
  // READ requests so replicas garbage-collect prepare lists sooner.
  bool gc_in_reads = false;
  // MAC-authenticator mode (§3.3.2): requests carry an n-tag MAC
  // authenticator instead of a signature, and replica reply auth is a
  // pair MAC. Must match the replicas' ReplicaOptions::mac_auth.
  bool mac_auth = false;
  rpc::QuorumCallOptions rpc;
  sim::Time op_deadline = 0;  // 0 = rely on protocol liveness (no timeout)
  // Pipelined writes (submit_write): bound on concurrently in-flight
  // write operations; 0 = unlimited. Independent objects' phases overlap
  // up to this window; writes to an object that already has an op in
  // flight queue FIFO behind it, so per-object ordering — the property
  // the certificate chain and BFT-linearizability rest on — always
  // holds regardless of the window size.
  std::uint32_t max_inflight = 0;
  // Optional observability hooks. When `registry` is set the client
  // records per-phase and whole-op latencies (milliseconds of virtual
  // time) into shared summaries: "client.write.{total,read_ts,prepare,
  // write}_ms" and "client.read.{total,read,writeback}_ms". All clients
  // bound to one registry aggregate into the same summaries. When
  // `tracer` is set, op begin/end and phase transitions are recorded.
  metrics::MetricsRegistry* registry = nullptr;
  metrics::Tracer* tracer = nullptr;
  // Prepended verbatim to every summary/histogram name this client
  // resolves ("shard/2/" → "shard/2/client.write.total_ms"). Clients of
  // one role share a prefix to aggregate; distinct roles sharing a
  // registry (per-shard inner clients under a routing client) use
  // distinct prefixes so their latency streams never silently alias.
  std::string metrics_prefix;
};

// Counters (metrics()): "writes", "reads", "write_phases", "read_phases",
// "internal_reads" (strong-mode fallbacks), "opt_fast_writes".
class Client final : public rpc::ClientEndpoint {
 public:
  // `scheduler` is the node's timer source: the discrete-event Simulator
  // in tests/benches, a net::EventLoop in a live deployment — the state
  // machine is identical either way.
  Client(const quorum::QuorumConfig& config, quorum::ClientId id,
         crypto::Keystore& keystore, rpc::Transport& transport,
         sim::Scheduler& scheduler, std::vector<sim::NodeId> replica_nodes,
         Rng rng, ClientOptions options = ClientOptions());
  ~Client() override;

  const ClientOptions& options() const { return options_; }

  struct WriteResult {
    Timestamp ts;   // the timestamp this write committed at
    int phases = 0; // quorum RPC rounds the operation took
  };
  using WriteCallback = std::function<void(Result<WriteResult>)>;

  struct ReadResult {
    Bytes value;
    Timestamp ts;
    crypto::Digest hash{};
    int phases = 0;
  };
  using ReadCallback = std::function<void(Result<ReadResult>)>;

  // Start a write. At most one operation per object may be outstanding
  // for this client (the protocol chains writes through certificates).
  void write(ObjectId object, Bytes value, WriteCallback cb);

  // Start a read (§3.2.2): one phase, plus a write-back phase when the
  // quorum's answers disagree.
  void read(ObjectId object, ReadCallback cb);

  // Pipelined write: like write(), but bounded by options.max_inflight
  // and safe to call with an operation already outstanding — writes to a
  // busy object (or past the window) queue FIFO and dispatch as slots
  // free up. Counters: "pipelined_writes", "queued_writes",
  // "inflight_peak"; with a registry, the "client.inflight" histogram
  // samples window occupancy at every dispatch.
  void submit_write(ObjectId object, Bytes value, WriteCallback cb);

  // Writes waiting for a pipeline slot (tests/benches drain on this).
  std::size_t queued_writes() const { return write_queue_.size(); }
  std::uint32_t inflight_writes() const { return inflight_writes_; }

  bool has_pending_op(ObjectId object) const;

  // The write certificate retained from the last completed write on this
  // object (exposed for tests and for the colluder in src/faults).
  const std::optional<WriteCertificate>& last_write_cert(ObjectId object) const;

 private:
  struct WriteOp;
  struct ReadOp;

  // --- write path -----------------------------------------------------
  void start_write_phase1(WriteOp& op);
  void start_write_phase1_opt(WriteOp& op);
  void finish_write_phase1(WriteOp& op);
  void finish_write_phase1_opt(WriteOp& op);
  // Ensures op.pmax / (strong) op.wcert_for_pmax are coherent, running an
  // internal read + write-back when the phase-1 answers disagreed.
  void ensure_strong_wcert_then_phase2(WriteOp& op);
  void start_write_phase2(WriteOp& op);
  void start_write_phase3(WriteOp& op);
  void finish_write(WriteOp& op);

  // --- read path ------------------------------------------------------
  struct InternalReadDone {
    Bytes value;
    PrepareCertificate pcert;
    WriteCertificate wcert;  // from the forced write-back
    int phases = 0;
  };
  void start_read(ReadOp& op);
  void start_read_writeback(ReadOp& op);
  void finish_read(ReadOp& op);

  // --- plumbing ---------------------------------------------------------
  void on_envelope(sim::NodeId from, const rpc::Envelope& env) override;
  // Routes one reply envelope into whichever op's QuorumCall claims it.
  void dispatch_reply(sim::NodeId from, const rpc::Envelope& env);
  // Verifies a ReplyBatch's single authenticator, then dispatches the
  // bundled sub-replies with `batch_authed_` open (reply-signing
  // amortization: sub-replies carry no per-reply auth of their own).
  void handle_reply_batch(sim::NodeId from, const rpc::Envelope& env);
  // `phase_lat` (may be null) receives this round's latency when the
  // quorum call completes; `phase_name` labels the kPhase trace event.
  void begin_call(OpBase& op, rpc::Envelope request,
                  rpc::QuorumCall::Validator validator,
                  std::function<void()> on_complete,
                  Summary* phase_lat = nullptr,
                  const char* phase_name = nullptr);
  void fail_op(std::uint64_t op_id, Status status);
  OpBase* find_op(std::uint64_t id);

  // Request authentication: a signature, or (mac_auth) the n-replica MAC
  // authenticator.
  [[nodiscard]] Result<Bytes> sign_request(BytesView payload) const;
  // Reply authentication from replica `idx`: signature verify, or
  // (mac_auth) the pair-MAC check toward this client.
  [[nodiscard]] bool check_reply_auth(std::uint32_t idx, BytesView payload,
                                      BytesView auth) const;

  // Dispatches queued pipelined writes into free window slots (FIFO,
  // skipping objects that still have an op in flight).
  void pump_pipeline();

  // Replica principals in replica_nodes_ order (authenticator slots).
  std::vector<crypto::PrincipalId> replica_principals_;
  ClientOptions options_;

  std::map<std::uint64_t, std::unique_ptr<OpBase>> ops_;
  // Object → the write certificate of its last completed write.
  IdTable<std::optional<WriteCertificate>> last_write_cert_;
  std::uint64_t next_op_id_ = 1;

  // Pipelined-write state (submit_write).
  struct PendingWrite {
    ObjectId object = 0;
    Bytes value;
    WriteCallback cb;
    bool counted_queued = false;  // "queued_writes" counts each once
  };
  std::deque<PendingWrite> write_queue_;
  std::uint32_t inflight_writes_ = 0;
  std::uint64_t inflight_peak_ = 0;
  bool pumping_ = false;
  bool repump_ = false;

  // True only while dispatching sub-replies of a ReplyBatch whose batch
  // authenticator verified; validators then accept an empty per-reply
  // auth (it is covered by the batch MAC, nonces included).
  bool batch_authed_ = false;

  // Pre-resolved latency summaries (all null without options.registry).
  struct LatencyHandles {
    Summary* write_total = nullptr;
    Summary* write_read_ts = nullptr;
    Summary* write_prepare = nullptr;
    Summary* write_write = nullptr;
    Summary* read_total = nullptr;
    Summary* read_read = nullptr;
    Summary* read_writeback = nullptr;
  };
  LatencyHandles lat_;
  Histogram* inflight_hist_ = nullptr;
  metrics::Tracer* tracer_ = nullptr;
};

// Shared base for in-flight operations (header-visible so unique_ptr in
// the map works with the nested types defined in the .cpp).
struct OpBase {
  virtual ~OpBase() = default;
  // Deliver a failure to whoever is waiting on this operation.
  virtual void fail(const Status& status) = 0;

  std::uint64_t op_id = 0;
  ObjectId object = 0;
  int phases = 0;
  sim::Time started = 0;  // virtual start time (latency accounting)
  std::unique_ptr<rpc::QuorumCall> call;
  sim::TimerId deadline_timer = 0;
};

}  // namespace bftbc::core
