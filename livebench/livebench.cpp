// livebench — single-process, single-thread benchmark of the live BFT-BC
// stack.
//
// One process hosts one replica group (f=1: four core::Replica, each with
// its own crypto::Keystore and net::UdpTransport bound to a kernel-chosen
// 127.0.0.1 port, as four bftbcd daemons would hold them) and the
// closed-loop core::Client load generator, all on one net::EventLoop
// thread. No delay is injected: latency is processor time on one core plus
// kernel loopback. See README.md in this directory for the workloads and
// what each metric means.
//
//   livebench --workload write_hmac --seed 1 --seconds 10 --trace 0
//
// A run: set up (keys, sockets, keyspace preload) several times and report
// the median; run a fixed-size count window whose per-op counts repeat
// exactly for a given seed; run the timed closed loop; judge every
// correct-client operation with the BFT-linearizability checker. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 1 the second half of the timed phase records
// spans and the metrics are per layer.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bftbc/client.h"
#include "bftbc/replica.h"
#include "checker/bft_linearizability.h"
#include "checker/history.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/udp_transport.h"
#include "quorum/statements.h"
#include "span_trace.h"
#include "speed_probe.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace livebench {
namespace {

using namespace bftbc;

// ---------------------------------------------------------------- workloads

struct WorkloadSpec {
  std::string name;
  crypto::SignatureScheme scheme = crypto::SignatureScheme::kHmacSim;
  std::size_t rsa_bits = 512;
  bool mac_auth = false;
  std::uint32_t f = 1;
  std::uint32_t clients = 4;  // correct clients
  bool byzantine = false;     // plus one TimestampHog client
  double read_fraction = 0.0;
  std::size_t value_bytes = 256;
  // Keys: each client draws uniformly from its own `slice` objects, or
  // (slice == 0) all clients draw zipfian keys over `objects`.
  std::uint64_t objects = 4096;
  std::uint64_t slice = 1024;
  double theta = 0.99;
  std::uint64_t count_ops = 2000;  // exact-count window size
  int setups = 3;                  // setup_s is the median of these
};

std::optional<WorkloadSpec> workload(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "write_hmac") return s;
  if (name == "write_rsa") {
    s.scheme = crypto::SignatureScheme::kRsa;
    s.mac_auth = true;
    s.clients = 2;
    s.objects = 2 * s.slice;  // the two clients' slices
    s.count_ops = 400;
    return s;
  }
  if (name == "mixed_byz") {
    s.clients = 3;
    s.byzantine = true;
    s.read_fraction = 0.5;
    s.value_bytes = 1024;
    s.slice = 0;
    return s;
  }
  return std::nullopt;
}

constexpr sim::Time kRetransmitPeriod = 500 * sim::kMillisecond;
constexpr std::uint32_t kPreloadWindow = 8;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() { return static_cast<double>(mono_ns()) * 1e-9; }

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Bytes random_value(Rng& rng, std::size_t n) {
  Bytes v(n);
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t x = rng.next_u64();
    for (std::size_t j = i; j < std::min(n, i + 8); ++j, x >>= 8) {
      v[j] = static_cast<std::uint8_t>(x);
    }
  }
  return v;
}

// ------------------------------------------------------------------ cluster

// Everything one replica group plus its clients needs, built in the order
// a deployment would: keystores (key generation), sockets bound to
// kernel-chosen ports, then the clients' peer table from those ports.
// Members are declared so destruction runs protocol nodes first, then the
// decorators and transports, then the loop.
struct Cluster {
  Cluster(const WorkloadSpec& spec, std::uint64_t seed, SpanTracer& tracer)
      : quorum(quorum::QuorumConfig::bft_bc(spec.f)) {
    const std::uint32_t principals = spec.clients + (spec.byzantine ? 1 : 0);
    auto make_keystore = [&] {
      auto ks = std::make_unique<crypto::Keystore>(spec.scheme, seed,
                                                   spec.rsa_bits);
      for (std::uint32_t r = 0; r < quorum.n; ++r) {
        (void)ks->register_principal(quorum::replica_principal(r));
      }
      for (std::uint32_t c = 0; c < principals; ++c) {
        (void)ks->register_principal(quorum::client_principal(c));
      }
      return ks;
    };
    const auto localhost = net::UdpEndpoint::parse("127.0.0.1", 0);
    for (std::uint32_t r = 0; r < quorum.n; ++r) {
      keystores.push_back(make_keystore());
      // Replicas only ever answer clients (learned from each datagram's
      // source), so they need no static peer table.
      udp.push_back(std::make_unique<net::UdpTransport>(
          loop, r, *localhost, std::map<sim::NodeId, net::UdpEndpoint>{}));
      if (!udp.back()->valid()) throw std::runtime_error("replica bind failed");
      net::UdpEndpoint ep = *localhost;
      ep.port = udp.back()->local_port();
      replica_nodes.push_back(r);
      endpoints[r] = ep;
    }
    keystores.push_back(make_keystore());  // the load generator's keystore
    crypto::Keystore& client_keys = *keystores.back();
    for (std::uint32_t c = 0; c < principals; ++c) {
      udp.push_back(std::make_unique<net::UdpTransport>(
          loop, net::client_node(c), *localhost, endpoints));
      if (!udp.back()->valid()) throw std::runtime_error("client bind failed");
    }

    core::ReplicaOptions ropts;
    ropts.optimized = true;
    ropts.mac_auth = spec.mac_auth;
    for (std::uint32_t r = 0; r < quorum.n; ++r) {
      replica_tt.push_back(std::make_unique<TracedTransport>(
          *udp[r], tracer, Layer::kReplica));
      replica_sched.push_back(
          std::make_unique<TracedScheduler>(loop, tracer, Layer::kReplica));
      replicas.push_back(std::make_unique<core::Replica>(
          quorum, r, *keystores[r], *replica_tt.back(),
          *replica_sched.back(), ropts));
    }

    core::ClientOptions copts;
    copts.optimized = true;
    copts.mac_auth = spec.mac_auth;
    copts.rpc.retransmit_period = kRetransmitPeriod;
    copts.max_inflight = kPreloadWindow;
    Rng rng(seed ^ 0x6c697665ULL);
    for (std::uint32_t c = 0; c < spec.clients; ++c) {
      client_tt.push_back(std::make_unique<TracedTransport>(
          *udp[quorum.n + c], tracer, Layer::kClient));
      client_tt.back()->track_requests();
      client_sched.push_back(
          std::make_unique<TracedScheduler>(loop, tracer, Layer::kClient));
      clients.push_back(std::make_unique<core::Client>(
          quorum, c, client_keys, *client_tt.back(), *client_sched.back(),
          replica_nodes, Rng(rng.next_u64()), copts));
    }
    if (spec.byzantine) {
      byz_tt = std::make_unique<TracedTransport>(*udp.back(), tracer,
                                                 Layer::kByz);
      byz_tt->set_receiver([](sim::NodeId, const rpc::Envelope&) {});
      byz_signer = client_keys.register_principal(
          quorum::client_principal(spec.clients));
    }
  }

  net::EventLoop loop;
  quorum::QuorumConfig quorum;
  std::vector<std::unique_ptr<crypto::Keystore>> keystores;  // replicas, clients
  std::vector<std::unique_ptr<net::UdpTransport>> udp;  // replicas, clients
  std::map<sim::NodeId, net::UdpEndpoint> endpoints;
  std::vector<sim::NodeId> replica_nodes;
  std::vector<std::unique_ptr<TracedTransport>> replica_tt, client_tt;
  std::vector<std::unique_ptr<TracedScheduler>> replica_sched, client_sched;
  std::unique_ptr<TracedTransport> byz_tt;
  crypto::Signer byz_signer;
  std::vector<std::unique_ptr<core::Replica>> replicas;
  std::vector<std::unique_ptr<core::Client>> clients;
};

// Every counter a per-op count metric divides by completed operations.
struct Counts {
  std::uint64_t ops = 0, writes = 0, reads = 0;
  std::uint64_t write_phases = 0, read_phases = 0;
  std::uint64_t datagrams = 0, bytes = 0, encodes = 0;
  std::uint64_t client_sends = 0, requests = 0;
  std::uint64_t replica_msgs = 0, replica_tasks = 0, drops = 0;
  std::uint64_t cert_checks = 0;
  std::uint64_t signs = 0, verifies = 0, macs = 0, hits = 0, misses = 0;

  Counts operator-(const Counts& o) const {
    Counts d;
    d.ops = ops - o.ops;
    d.writes = writes - o.writes;
    d.reads = reads - o.reads;
    d.write_phases = write_phases - o.write_phases;
    d.read_phases = read_phases - o.read_phases;
    d.datagrams = datagrams - o.datagrams;
    d.bytes = bytes - o.bytes;
    d.encodes = encodes - o.encodes;
    d.client_sends = client_sends - o.client_sends;
    d.requests = requests - o.requests;
    d.replica_msgs = replica_msgs - o.replica_msgs;
    d.replica_tasks = replica_tasks - o.replica_tasks;
    d.drops = drops - o.drops;
    d.cert_checks = cert_checks - o.cert_checks;
    d.signs = signs - o.signs;
    d.verifies = verifies - o.verifies;
    d.macs = macs - o.macs;
    d.hits = hits - o.hits;
    d.misses = misses - o.misses;
    return d;
  }
};

// ------------------------------------------------------------ load driver

class Driver {
 public:
  Driver(Cluster& cluster, const WorkloadSpec& spec, std::uint64_t seed,
         SpanTracer& tracer, SpeedProbe& probe)
      : cl_(cluster), spec_(spec), tracer_(tracer), probe_(probe) {
    Rng rng(seed ^ 0x6b657973ULL);
    for (std::uint32_t c = 0; c < spec.clients; ++c) {
      gens_.push_back(Gen{c, Rng(rng.next_u64())});
    }
    byz_rng_ = Rng(rng.next_u64());
    if (spec.slice == 0) {
      zipf_ = std::make_unique<ZipfGenerator>(spec.objects, spec.theta);
    }
  }

  checker::History& history() { return history_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t issued() const { return issued_; }
  std::uint64_t failed() const { return failed_; }
  bool idle() const {
    return std::none_of(gens_.begin(), gens_.end(),
                        [](const Gen& g) { return g.busy; });
  }

  // Writes every object once, kPreloadWindow writes in flight per client.
  // Returns false if a write failed or the preload stalled.
  bool preload() {
    std::uint64_t pending = 0;
    bool ok = true;
    Rng rng(0x70726521ULL ^ spec_.objects);
    for (std::uint32_t c = 0; c < spec_.clients; ++c) {
      for (quorum::ObjectId object : objects_of(c)) {
        Bytes value = random_value(rng, spec_.value_bytes);
        const std::size_t token = history_.begin_write(
            c, object, cl_.loop.now(), value);
        ++pending;
        cl_.clients[c]->submit_write(
            object, std::move(value),
            [this, token, &pending, &ok](
                Result<core::Client::WriteResult> r) {
              --pending;
              if (!r.is_ok()) {
                ok = false;
                history_.abort(token);
                return;
              }
              history_.end_write(token, cl_.loop.now(), r.value().ts);
            });
      }
    }
    const bool drained = cl_.loop.run_until(
        [this, &pending] {
          probe_.maybe_sample();
          return pending == 0;
        },
        120 * sim::kSecond);
    return drained && ok;
  }

  // Runs exactly `ops` operations (closed loop) and waits for all of
  // them: the exact-count window.
  bool run_count_window(std::uint64_t ops) {
    limit_ = issued_ + ops;
    issuing_ = true;
    for (Gen& g : gens_) issue(g);
    const bool done = cl_.loop.run_until(
        [this] {
          probe_.maybe_sample();
          return idle() && issued_ >= limit_;
        },
        120 * sim::kSecond);
    issuing_ = false;
    limit_ = 0;
    return done;
  }

  // The timed closed loop. With `traced_from` < `seconds`, tracing turns
  // on at that offset (between poll_once calls, so no span is open).
  struct Done {
    double at = 0;  // completion time, wall seconds
    double ms = 0;  // latency from invocation to callback
    bool read = false;
    bool probed = false;  // a probe sample paused it; no latency figure
  };
  struct Timed {
    double start_wall = 0;
    std::vector<Done> done;  // in completion order
    double trace_start_wall = 0, trace_start_cpu = 0, trace_end_cpu = 0;
    double untraced_cpu = 0;
    std::uint64_t ops_before_trace = 0;
  };
  bool run_timed(double seconds, double traced_from, Timed& out) {
    timed_ = &out;
    out.start_wall = wall_seconds();
    const double cpu0 = cpu_seconds();
    const double trace_at = out.start_wall + traced_from;
    const double end_at = out.start_wall + seconds;
    issuing_ = true;
    for (Gen& g : gens_) issue(g);
    bool tracing = false;
    while (true) {
      const double now = wall_seconds();
      if (!tracing && traced_from < seconds && now >= trace_at) {
        tracing = true;
        out.trace_start_wall = now;
        out.trace_start_cpu = cpu_seconds();
        out.untraced_cpu = out.trace_start_cpu - cpu0;
        out.ops_before_trace = out.done.size();
        tracer_.set_enabled(true);
      }
      if (now >= end_at) break;
      if (probe_.due()) {
        ScopedSpan span(tracer_, Layer::kProbe);
        probe_.sample();
      }
      poll();
    }
    if (tracing) {
      out.trace_end_cpu = cpu_seconds();
      tracer_.set_enabled(false);
    }
    issuing_ = false;
    timed_ = nullptr;
    // Drain operations still in flight; they are in the history but not
    // in the timed figures.
    return cl_.loop.run_until(
        [this] {
          probe_.maybe_sample();
          return idle();
        },
        30 * sim::kSecond);
  }

 private:
  // One TimestampHog PREPARE per this many correct operations.
  static constexpr std::uint64_t kOpsPerAttack = 4;

  struct Gen {
    std::uint32_t id = 0;
    Rng rng;
    bool busy = false;
    std::size_t probe_epoch = 0;  // SpeedProbe::epoch() at issue
  };

  // The objects client `c` writes during preload: its slice, or its share
  // of the shared zipfian keyspace.
  std::vector<quorum::ObjectId> objects_of(std::uint32_t c) const {
    std::vector<quorum::ObjectId> out;
    if (spec_.slice > 0) {
      for (std::uint64_t i = 0; i < spec_.slice; ++i) {
        out.push_back(1 + c * spec_.slice + i);
      }
    } else {
      for (std::uint64_t o = c; o < spec_.objects; o += spec_.clients) {
        out.push_back(1 + o);
      }
    }
    return out;
  }

  quorum::ObjectId pick(Gen& g) {
    if (zipf_) return 1 + zipf_->next(g.rng);
    return 1 + g.id * spec_.slice + g.rng.next_below(spec_.slice);
  }

  void poll() {
    const std::uint32_t token = tracer_.open(Layer::kNet);
    const std::size_t events = cl_.loop.poll_once(sim::kMillisecond);
    tracer_.close(token, events == 0 ? Layer::kNetIdle : Layer::kNet);
  }

  void issue(Gen& g) {
    if (!issuing_ || (limit_ != 0 && issued_ >= limit_)) return;
    ++issued_;
    g.busy = true;
    g.probe_epoch = probe_.epoch();
    const bool read = spec_.read_fraction > 0.0 &&
                      g.rng.next_double() < spec_.read_fraction;
    const quorum::ObjectId object = pick(g);
    core::Client& client = *cl_.clients[g.id];
    const sim::Time t0 = cl_.loop.now();
    if (read) {
      const std::size_t token = history_.begin_read(g.id, object, t0);
      ScopedSpan span(tracer_, Layer::kClient, net::client_node(g.id));
      client.read(object, [this, &g, token, t0](
                              Result<core::Client::ReadResult> r) {
        ScopedSpan cb(tracer_, Layer::kBench);
        const sim::Time now = cl_.loop.now();
        if (r.is_ok()) {
          const auto& v = r.value();
          history_.end_read(token, now, v.ts, v.hash, v.value);
        }
        finish(g, token, t0, now, r.is_ok(), /*read=*/true);
      });
    } else {
      Bytes value = random_value(g.rng, spec_.value_bytes);
      const std::size_t token = history_.begin_write(g.id, object, t0, value);
      ScopedSpan span(tracer_, Layer::kClient, net::client_node(g.id));
      client.write(object, std::move(value),
                   [this, &g, token, t0](Result<core::Client::WriteResult> r) {
                     ScopedSpan cb(tracer_, Layer::kBench);
                     const sim::Time now = cl_.loop.now();
                     if (r.is_ok()) history_.end_write(token, now, r.value().ts);
                     finish(g, token, t0, now, r.is_ok(), /*read=*/false);
                   });
    }
  }

  void finish(Gen& g, std::size_t token, sim::Time t0, sim::Time now, bool ok,
              bool read) {
    ++completed_;
    if (!ok) {
      ++failed_;
      history_.abort(token);
    }
    if (timed_ != nullptr && ok) {
      timed_->done.push_back(
          {wall_seconds(), static_cast<double>(now - t0) / sim::kMillisecond,
           read, g.probe_epoch != probe_.epoch()});
    }
    if (spec_.byzantine && completed_ % kOpsPerAttack == 0) attack();
    g.busy = false;
    issue(g);
  }

  // §3.2 attack 3 (TimestampHog): a PREPARE whose timestamp lies far
  // beyond its justifying certificate, validly signed with the attacker's
  // own key. Replicas must discard it (drop_bad_ts) without a reply.
  void attack() {
    ScopedSpan span(tracer_, Layer::kByz);
    const quorum::ClientId id = spec_.clients;
    core::PrepareRequest req;
    req.object = zipf_ ? 1 + zipf_->next(byz_rng_) : 1;
    req.prep_cert = quorum::PrepareCertificate::genesis(req.object);
    req.t = quorum::Timestamp{(1ULL << 40) + byz_rng_.next_below(1 << 20), id};
    req.hash = crypto::sha256(random_value(byz_rng_, 32));
    req.client = id;
    const Bytes payload = req.signing_payload();
    std::vector<crypto::PrincipalId> replicas;
    for (sim::NodeId r : cl_.replica_nodes) {
      replicas.push_back(quorum::replica_principal(r));
    }
    Result<Bytes> auth =
        spec_.mac_auth ? cl_.byz_signer.mac_authenticator(replicas, payload)
                       : cl_.byz_signer.sign(payload);
    if (!auth.is_ok()) return;
    req.sig = std::move(auth).take();
    rpc::Envelope env;
    env.type = rpc::MsgType::kPrepare;
    env.rpc_id = ++byz_rpc_id_;
    env.sender = quorum::client_principal(id);
    env.body = req.encode();
    for (sim::NodeId r : cl_.replica_nodes) cl_.byz_tt->send(r, env);
  }

  Cluster& cl_;
  const WorkloadSpec& spec_;
  SpanTracer& tracer_;
  SpeedProbe& probe_;
  std::vector<Gen> gens_;
  std::unique_ptr<ZipfGenerator> zipf_;
  Rng byz_rng_;
  std::uint64_t byz_rpc_id_ = 0;
  checker::History history_;
  bool issuing_ = false;
  Timed* timed_ = nullptr;  // set during the timed phase
  std::uint64_t limit_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

// ------------------------------------------------------------ measurement

Counts snapshot(const Cluster& cl, const Driver& d) {
  Counts c;
  c.ops = d.completed();
  for (const auto& client : cl.clients) {
    const Counters& m = client->metrics();
    c.writes += m.get("writes");
    c.reads += m.get("reads");
    c.write_phases += m.get("write_phases");
    c.read_phases += m.get("read_phases");
  }
  for (const auto& t : cl.udp) {
    c.datagrams += t->counters().get("msgs_sent");
    c.bytes += t->counters().get("bytes_sent");
    c.encodes += t->counters().get("encode_calls");
  }
  for (const auto& t : cl.client_tt) {
    c.client_sends += t->sends();
    c.requests += t->requests();
  }
  for (const auto& t : cl.replica_tt) c.replica_msgs += t->deliveries();
  for (const auto& s : cl.replica_sched) c.replica_tasks += s->tasks();
  for (const auto& r : cl.replicas) {
    for (const auto& [name, value] : r->metrics().all()) {
      if (name.rfind("drop_", 0) == 0) c.drops += value;
    }
    c.cert_checks += r->metrics().get("verify_cert");
  }
  for (const auto& ks : cl.keystores) {
    const Counters& k = ks->counters();
    c.signs += k.get("sign");
    c.verifies += k.get("verify");
    c.macs += k.get("mac_sign") + k.get("mac_verify");
    c.hits += k.get("sig_cache_hit");
    c.misses += k.get("sig_cache_miss");
  }
  return c;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Nearest-rank percentile. Warns when fewer than ten samples lie beyond
// it: such a tail figure would rest on too few operations.
double percentile(std::vector<double> v, double q, const char* what) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  const std::size_t beyond = v.size() - idx - 1;
  if (q > 0.5 && beyond < 10) {
    std::fprintf(stderr, "livebench: only %zu samples beyond %s\n", beyond,
                 what);
  }
  return v[idx];
}

// Timing figures of the timed phase, at the probe's reference core speed.
// The phase is cut into kWindows windows of equal op count. Each window's
// rate is multiplied by the slowdown the core-speed probe measured during
// it (speed_probe.h), and each latency is divided by the slowdown sampled
// around its completion. Throughput is the median normalized window rate;
// latency percentiles pool every operation no probe sample paused.
struct Figures {
  double ops_s = 0;
  double raw_ops_s = 0;  // the same median, not normalized
  std::vector<double> write_ms, read_ms;
};

// Operations [from, to) of `done`; `start` is when the first of them was
// issued.
Figures normalized(const std::vector<Driver::Done>& done, double start,
                   std::size_t from, std::size_t to, const SpeedProbe& probe) {
  constexpr std::size_t kWindows = 40;
  // Latencies use the samples within this many seconds of completion.
  constexpr double kLatencySpan = 1.5 * SpeedProbe::kPeriod;
  const std::size_t w = (to - from) / kWindows;
  Figures out;
  if (w == 0) return out;
  std::vector<double> rates, raw;
  for (std::size_t i = 0; i < kWindows; ++i) {
    const std::size_t begin = from + i * w;
    const double t0 = i == 0 ? start : done[begin - 1].at;
    const double t1 = done[begin + w - 1].at;
    const double slowdown = probe.slowdown(t0, t1);
    raw.push_back(static_cast<double>(w) / (t1 - t0));
    rates.push_back(raw.back() * slowdown);
    for (std::size_t k = begin; k < begin + w; ++k) {
      if (done[k].probed) continue;
      const double at = done[k].at;
      (done[k].read ? out.read_ms : out.write_ms)
          .push_back(done[k].ms /
                     probe.slowdown(at - kLatencySpan, at + kLatencySpan));
    }
  }
  out.ops_s = median(rates);
  out.raw_ops_s = median(raw);
  std::fprintf(stderr, "livebench: %.0f ops/s as measured, %.0f at reference speed\n",
               out.raw_ops_s, out.ops_s);
  return out;
}

// Unit costs of the crypto calls, measured at the workload's scheme and
// key size on a keystore of its own.
struct UnitCosts {
  double sign_us = 0, verify_us = 0, mac_us = 0, hit_us = 0, validate_us = 0;
};

UnitCosts calibrate(const WorkloadSpec& spec, std::uint64_t seed) {
  const quorum::QuorumConfig q = quorum::QuorumConfig::bft_bc(spec.f);
  crypto::Keystore ks(spec.scheme, seed ^ 0x63616c69ULL, spec.rsa_bits);
  std::vector<crypto::Signer> signers;
  for (std::uint32_t r = 0; r < q.n; ++r) {
    signers.push_back(ks.register_principal(quorum::replica_principal(r)));
  }
  const crypto::Signer client =
      ks.register_principal(quorum::client_principal(0));
  const int iters =
      spec.scheme == crypto::SignatureScheme::kRsa ? 300 : 20000;
  const quorum::Timestamp ts{7, 0};
  const crypto::Digest h = crypto::sha256(as_bytes_view("calibration"));
  const Bytes stmt = quorum::prepare_reply_statement(1, ts, h);
  auto time_us = [iters](auto&& fn) {
    const std::uint64_t t0 = mono_ns();
    for (int i = 0; i < iters; ++i) fn();
    return static_cast<double>(mono_ns() - t0) / 1e3 / iters;
  };
  std::size_t sink = 0;
  UnitCosts u;
  u.sign_us = time_us([&] { sink += signers[0].sign(stmt).value().size(); });
  const Bytes sig = signers[0].sign(stmt).value();
  u.verify_us = time_us(
      [&] { sink += ks.verify(quorum::replica_principal(0), stmt, sig); });
  const Bytes tag = client.mac(quorum::replica_principal(0), stmt).value();
  u.mac_us = time_us([&] {
    sink += ks.mac_check(quorum::client_principal(0),
                         quorum::replica_principal(0), stmt, tag);
  });
  quorum::SignatureSet sigs;
  for (std::uint32_t r = 0; r < q.q; ++r) {
    sigs[r] = signers[r].sign(stmt).value();
  }
  const quorum::PrepareCertificate cert(1, ts, h, sigs);
  ks.set_verify_cache_capacity(0);
  u.validate_us = time_us([&] { sink += cert.validate(q, ks).is_ok(); });
  ks.set_verify_cache_capacity(1 << 16);
  sink += cert.validate(q, ks).is_ok();
  u.hit_us = time_us([&] { sink += cert.validate(q, ks).is_ok(); }) / q.q;
  if (sink == 0) std::fprintf(stderr, "livebench: calibration sink empty\n");
  return u;
}

// Judges the history object by object (the pairwise pass is quadratic in
// the history it is given). Returns the first problem found, if any.
std::optional<std::string> judge(const checker::History& history,
                                 const WorkloadSpec& spec) {
  std::set<quorum::ClientId> bad;
  if (spec.byzantine) bad.insert(spec.clients);
  const auto parts = checker::split_history(
      history, spec.objects + 1,
      [](checker::ObjectId o) { return static_cast<std::size_t>(o); });
  for (const checker::History& part : parts) {
    if (part.operations().empty()) continue;
    const checker::CheckResult r = checker::check_bft_linearizability(part, bad);
    if (!r.linearizable || !r.reads_authentic) {
      return r.summary() +
             (r.violations.empty() ? "" : ": " + r.violations.front());
    }
  }
  return std::nullopt;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The single-node reference: the write_hmac shape against one replica
// (f=0), traced, reported next to the f=1 figures but never gated on.
struct Reference {
  double ops_s = 0, cpu_us_per_op = 0;
  bool ok = false;
};

Reference run_reference(std::uint64_t seed, double seconds,
                        SpeedProbe& probe) {
  WorkloadSpec spec = *workload("write_hmac");
  spec.f = 0;
  SpanTracer tracer;
  Cluster cl(spec, seed, tracer);
  Driver d(cl, spec, seed, tracer, probe);
  Reference ref;
  if (!d.preload() || !d.run_count_window(spec.count_ops)) return ref;
  Driver::Timed t;
  if (!d.run_timed(seconds, 0.0, t)) return ref;
  const std::size_t ops = t.done.size() - t.ops_before_trace;
  ref.ops_s = normalized(t.done, t.trace_start_wall, t.ops_before_trace,
                         t.done.size(), probe)
                  .ops_s;
  ref.cpu_us_per_op = ratio((t.trace_end_cpu - t.trace_start_cpu) * 1e6,
                            static_cast<double>(ops));
  ref.ok = d.failed() == 0 && !judge(d.history(), spec).has_value();
  return ref;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int fail(const std::string& why) {
  std::fprintf(stderr, "livebench: %s\n", why.c_str());
  return 1;
}

int run(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
        bool trace, const std::string& trace_out) {
  SpanTracer tracer;
  SpeedProbe probe;
  std::unique_ptr<Cluster> cl;
  std::unique_ptr<Driver> driver;
  std::vector<double> setup_s;  // at reference speed, like the timings
  for (int k = 0; k < spec.setups; ++k) {
    driver.reset();
    cl.reset();
    const double t0 = wall_seconds();
    probe.sample();
    cl = std::make_unique<Cluster>(spec, seed, tracer);
    driver = std::make_unique<Driver>(*cl, spec, seed, tracer, probe);
    if (!driver->preload()) return fail("keyspace preload failed");
    const double t1 = wall_seconds();
    setup_s.push_back((t1 - t0) / probe.slowdown(t0, t1));
  }

  const Counts before = snapshot(*cl, *driver);
  if (!driver->run_count_window(spec.count_ops)) {
    return fail("count window did not complete");
  }
  const Counts cw = snapshot(*cl, *driver) - before;
  const double rss_mib = peak_rss_mib();

  Driver::Timed t;
  if (trace) tracer.reserve(1 << 20);
  if (!driver->run_timed(seconds, trace ? seconds / 2 : seconds, t)) {
    return fail("operations still in flight after the timed phase");
  }

  const std::optional<std::string> violation =
      judge(driver->history(), spec);
  if (violation) std::fprintf(stderr, "livebench: %s\n", violation->c_str());
  const std::uint64_t failed_ops = driver->failed();
  const bool correct = !violation && failed_ops == 0;
  const std::uint64_t attempted = driver->issued();

  std::vector<Metric> m;
  if (!trace) {
    m.push_back({"setup_s", median(setup_s), "s"});
    const Figures fig =
        normalized(t.done, t.start_wall, 0, t.done.size(), probe);
    m.push_back({"throughput_ops_s", fig.ops_s, "ops/s"});
    m.push_back({"write_p50_ms", percentile(fig.write_ms, 0.50, "p50"), "ms"});
    m.push_back({"write_p80_ms", percentile(fig.write_ms, 0.80, "write p80"),
                 "ms"});
    m.push_back({"peak_rss_mib", rss_mib, "MiB"});
    print_result(correct, attempted, failed_ops, m);
    return 0;
  }

  // Per-layer figures. Counts come from the exact-count window; times
  // from the traced second half of the timed phase.
  const double ops = static_cast<double>(cw.ops);
  const auto traced_ops =
      static_cast<double>(t.done.size() - t.ops_before_trace);
  const double cpu_traced =
      ratio((t.trace_end_cpu - t.trace_start_cpu) * 1e6, traced_ops);
  const double cpu_untraced =
      ratio(t.untraced_cpu * 1e6, static_cast<double>(t.ops_before_trace));
  auto self_us = [&](Layer l) {
    return ratio(static_cast<double>(tracer.self_ns(l)) / 1e3, traced_ops);
  };
  double attributed = 0;
  for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l) {
    attributed += self_us(static_cast<Layer>(l));
  }
  const UnitCosts unit = calibrate(spec, seed);
  const double first_sends =
      static_cast<double>(cw.requests) * cl->quorum.n;
  const double est_us = ratio(cw.signs * unit.sign_us +
                                  cw.verifies * unit.verify_us +
                                  cw.macs * unit.mac_us + cw.hits * unit.hit_us,
                              ops);
  m.push_back({"net.self_us_per_op", self_us(Layer::kNet), "us"});
  m.push_back({"net.idle_us_per_op", self_us(Layer::kNetIdle), "us"});
  m.push_back({"net.datagrams_per_op", ratio(cw.datagrams, ops), "count"});
  m.push_back({"net.bytes_per_op", ratio(cw.bytes, ops), "B"});
  m.push_back({"net.encode_calls_per_op", ratio(cw.encodes, ops), "count"});
  m.push_back({"rpc.send_us_per_op", self_us(Layer::kRpcSend), "us"});
  m.push_back({"rpc.requests_per_op", ratio(cw.requests, ops), "count"});
  m.push_back({"rpc.retransmit_ratio",
               ratio(static_cast<double>(cw.client_sends) - first_sends,
                     first_sends),
               "ratio"});
  m.push_back({"replica.self_us_per_op", self_us(Layer::kReplica), "us"});
  m.push_back({"replica.msgs_per_flush",
               ratio(cw.replica_msgs, cw.replica_tasks), "count"});
  m.push_back({"replica.drops_per_op", ratio(cw.drops, ops), "count"});
  m.push_back({"client.self_us_per_op", self_us(Layer::kClient), "us"});
  m.push_back({"client.phases_per_write", ratio(cw.write_phases, cw.writes),
               "count"});
  m.push_back({"client.phases_per_read", ratio(cw.read_phases, cw.reads),
               "count"});
  // Latency from the untraced first half, like the end-to-end figures of
  // an untraced run. The write p99 is here rather than end to end because
  // host hiccups make it spread too widely between runs (README.md).
  const Figures untraced =
      normalized(t.done, t.start_wall, 0, t.ops_before_trace, probe);
  m.push_back({"client.write_p99_ms",
               percentile(untraced.write_ms, 0.99, "write p99"), "ms"});
  m.push_back({"client.read_p50_ms", percentile(untraced.read_ms, 0.50, "p50"),
               "ms"});
  m.push_back({"client.read_p99_ms",
               percentile(untraced.read_ms, 0.99, "read p99"), "ms"});
  m.push_back({"bench.self_us_per_op", self_us(Layer::kBench), "us"});
  m.push_back({"byz.self_us_per_op", self_us(Layer::kByz), "us"});
  m.push_back({"probe.self_us_per_op", self_us(Layer::kProbe), "us"});
  m.push_back({"host.slowdown",
               probe.slowdown(t.trace_start_wall, wall_seconds()), "ratio"});
  m.push_back({"crypto.signs_per_op", ratio(cw.signs, ops), "count"});
  m.push_back({"crypto.verifies_per_op", ratio(cw.verifies, ops), "count"});
  m.push_back({"crypto.macs_per_op", ratio(cw.macs, ops), "count"});
  m.push_back({"crypto.cache_hit_ratio", ratio(cw.hits, cw.hits + cw.misses),
               "ratio"});
  m.push_back({"crypto.est_us_per_op", est_us, "us"});
  m.push_back({"crypto.sign_us", unit.sign_us, "us"});
  m.push_back({"crypto.verify_us", unit.verify_us, "us"});
  m.push_back({"crypto.mac_us", unit.mac_us, "us"});
  m.push_back({"crypto.cache_hit_us", unit.hit_us, "us"});
  m.push_back({"quorum.validate_us", unit.validate_us, "us"});
  m.push_back({"quorum.cert_checks_per_op", ratio(cw.cert_checks, ops),
               "count"});
  m.push_back({"total.cpu_us_per_op", cpu_traced, "us"});
  m.push_back({"total.unattributed_us_per_op", cpu_traced - attributed,
               "us"});
  m.push_back({"trace.overhead_pct",
               ratio((cpu_traced - cpu_untraced) * 100.0, cpu_untraced),
               "%"});
  m.push_back({"trace.spans_per_op",
               ratio(static_cast<double>(tracer.spans().size()), traced_ops),
               "count"});

  if (!trace_out.empty() && !tracer.write_csv(trace_out)) {
    std::fprintf(stderr, "livebench: cannot write %s\n", trace_out.c_str());
  }
  driver.reset();
  cl.reset();
  const Reference ref =
      run_reference(seed, std::min(2.0, seconds / 4), probe);
  if (!ref.ok) std::fprintf(stderr, "livebench: reference pass failed\n");
  m.push_back({"ref_n1.throughput_ops_s", ref.ops_s, "ops/s"});
  m.push_back({"ref_n1.cpu_us_per_op", ref.cpu_us_per_op, "us"});
  print_result(correct, attempted, failed_ops, m);
  return 0;
}

}  // namespace
}  // namespace livebench

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      std::fprintf(stderr, "livebench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const auto spec = livebench::workload(name);
  if (!spec || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: livebench --workload write_hmac|write_rsa|mixed_byz "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  try {
    return livebench::run(*spec, seed, seconds, trace, trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "livebench: %s\n", e.what());
    return 1;
  }
}
