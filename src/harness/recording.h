// Recorder: drives routed client operations synchronously while logging
// them into a checker::History — the bridge between the harness and the
// BFT-linearizability checker. At S > 1 the history spans every shard;
// split it with checker::split_history before checking.
#pragma once

#include "checker/history.h"
#include "harness/cluster.h"

namespace bftbc::harness {

class Recorder {
 public:
  Recorder(Cluster& cluster, checker::History& history)
      : cluster_(cluster), history_(history) {}

  Result<core::Client::WriteResult> write(shard::RoutingClient& c,
                                          quorum::ObjectId object,
                                          Bytes value) {
    const std::size_t token =
        history_.begin_write(c.id(), object, cluster_.sim().now(), value);
    auto result = cluster_.write(c, object, std::move(value));
    if (result.is_ok()) {
      history_.end_write(token, cluster_.sim().now(), result.value().ts);
    } else {
      history_.abort(token);
    }
    return result;
  }

  Result<core::Client::ReadResult> read(shard::RoutingClient& c,
                                        quorum::ObjectId object) {
    const std::size_t token =
        history_.begin_read(c.id(), object, cluster_.sim().now());
    auto result = cluster_.read(c, object);
    if (result.is_ok()) {
      history_.end_read(token, cluster_.sim().now(), result.value().ts,
                        result.value().hash, result.value().value);
    } else {
      history_.abort(token);
    }
    return result;
  }

  // The paper's stop event: revoke the key AND record the event in the
  // verifiable history.
  void stop_client(quorum::ClientId c) {
    cluster_.stop_client(c);
    history_.record_stop(c, cluster_.sim().now());
  }

 private:
  Cluster& cluster_;
  checker::History& history_;
};

}  // namespace bftbc::harness
