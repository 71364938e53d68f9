#include "net/cluster_config.h"

#include <fstream>
#include <sstream>

#include "shard/shard_map.h"
#include "util/json_value.h"

namespace bftbc::net {

namespace {

// Parses one "replicas" endpoint array (shared by the legacy top-level
// spelling and each entry of the "shards" array).
Status parse_endpoint_array(
    const JsonValue& replicas, std::uint32_t n,
    std::vector<ClusterConfig::ReplicaEndpoint>& out) {
  if (!replicas.is_array()) {
    return Status(StatusCode::kInvalidArgument,
                  "cluster config: replicas is not an array");
  }
  for (const JsonValue& entry : replicas.items()) {
    if (!entry.is_object()) {
      return Status(StatusCode::kInvalidArgument,
                    "cluster config: replica entry is not an object");
    }
    ClusterConfig::ReplicaEndpoint ep;
    ep.host = entry.string("host", "");
    const std::uint64_t port = entry.u64("port", 0);
    if (port == 0 || port > 65535) {
      return Status(StatusCode::kInvalidArgument,
                    "cluster config: replica port out of range");
    }
    ep.port = static_cast<std::uint16_t>(port);
    if (!UdpEndpoint::parse(ep.host, ep.port).has_value()) {
      return Status(StatusCode::kInvalidArgument,
                    "cluster config: bad replica host '" + ep.host +
                        "' (dotted-quad IPv4 required)");
    }
    out.push_back(std::move(ep));
  }
  if (out.size() != n) {
    return Status(StatusCode::kInvalidArgument,
                  "cluster config: expected " + std::to_string(n) +
                      " replicas (3f+1) but found " +
                      std::to_string(out.size()));
  }
  return Status::ok();
}

}  // namespace

Result<ClusterConfig> ClusterConfig::parse(std::string_view json) {
  auto root = JsonValue::parse(json);
  if (!root.has_value() || !root->is_object()) {
    return Status(StatusCode::kInvalidArgument,
                  "cluster config: not a JSON object");
  }
  ClusterConfig cfg;
  cfg.f = static_cast<std::uint32_t>(root->u64("f", 1));
  if (cfg.f == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "cluster config: f must be >= 1");
  }
  cfg.mode = root->string("mode", "base");
  if (cfg.mode != "base" && cfg.mode != "optimized" && cfg.mode != "strong") {
    return Status(StatusCode::kInvalidArgument,
                  "cluster config: unknown mode '" + cfg.mode + "'");
  }
  cfg.auth = root->string("auth", "sig");
  if (cfg.auth != "sig" && cfg.auth != "mac") {
    return Status(StatusCode::kInvalidArgument,
                  "cluster config: unknown auth '" + cfg.auth + "'");
  }
  cfg.scheme = root->string("scheme", "hmac");
  if (cfg.scheme != "hmac" && cfg.scheme != "rsa") {
    return Status(StatusCode::kInvalidArgument,
                  "cluster config: unknown scheme '" + cfg.scheme + "'");
  }
  cfg.rsa_bits = static_cast<std::size_t>(root->u64("rsa_bits", 512));
  cfg.key_seed = root->u64("key_seed", 1);
  cfg.max_clients = static_cast<std::uint32_t>(root->u64("max_clients", 64));
  if (cfg.max_clients == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "cluster config: max_clients must be >= 1");
  }

  const std::uint32_t n = 3 * cfg.f + 1;
  const JsonValue* replicas = root->find("replicas");
  const JsonValue* shards = root->find("shards");
  if (replicas != nullptr && shards != nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "cluster config: 'replicas' and 'shards' are mutually "
                  "exclusive (a legacy 'replicas' IS a one-entry 'shards')");
  }
  if (shards != nullptr) {
    if (!shards->is_array()) {
      return Status(StatusCode::kInvalidArgument,
                    "cluster config: shards is not an array");
    }
    for (const JsonValue& group : shards->items()) {
      if (!group.is_object()) {
        return Status(StatusCode::kInvalidArgument,
                      "cluster config: shard entry is not an object");
      }
      const JsonValue* group_replicas = group.find("replicas");
      if (group_replicas == nullptr) {
        return Status(StatusCode::kInvalidArgument,
                      "cluster config: shard entry missing replicas array");
      }
      std::vector<ReplicaEndpoint> endpoints;
      const Status parsed = parse_endpoint_array(*group_replicas, n, endpoints);
      if (!parsed.is_ok()) return parsed;
      cfg.shard_groups.push_back(std::move(endpoints));
    }
    if (cfg.shard_groups.empty()) {
      return Status(StatusCode::kInvalidArgument,
                    "cluster config: shards array is empty");
    }
  } else {
    if (replicas == nullptr) {
      return Status(StatusCode::kInvalidArgument,
                    "cluster config: missing replicas (or shards) array");
    }
    std::vector<ReplicaEndpoint> endpoints;
    const Status parsed = parse_endpoint_array(*replicas, n, endpoints);
    if (!parsed.is_ok()) return parsed;
    cfg.shard_groups.push_back(std::move(endpoints));
  }
  return cfg;
}

std::uint64_t ClusterConfig::shard_seed(std::uint32_t shard) const {
  return bftbc::shard::shard_key_seed(key_seed, shard);
}

Result<ClusterConfig> ClusterConfig::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status(StatusCode::kNotFound,
                  "cluster config: cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

Result<std::map<sim::NodeId, UdpEndpoint>> replica_endpoints(
    const ClusterConfig& config, std::uint32_t shard) {
  if (shard >= config.shard_count()) {
    return Status(StatusCode::kInvalidArgument,
                  "cluster config: shard " + std::to_string(shard) +
                      " out of range (" +
                      std::to_string(config.shard_count()) + " shards)");
  }
  std::map<sim::NodeId, UdpEndpoint> peers;
  const auto& group = config.shard_groups[shard];
  for (std::size_t r = 0; r < group.size(); ++r) {
    const auto& ep = group[r];
    auto parsed = UdpEndpoint::parse(ep.host, ep.port);
    if (!parsed.has_value()) {
      return Status(StatusCode::kInvalidArgument,
                    "cluster config: bad replica host '" + ep.host + "'");
    }
    peers[static_cast<sim::NodeId>(r)] = *parsed;
  }
  return peers;
}

void register_cluster_principals(const ClusterConfig& config,
                                 crypto::Keystore& keystore) {
  // Canonical registration order — replicas then clients — so every
  // process's deterministic Keystore mints the same key for the same
  // principal (see file comment in the header).
  const std::uint32_t n = 3 * config.f + 1;
  for (std::uint32_t r = 0; r < n; ++r) {
    (void)keystore.register_principal(quorum::replica_principal(r));
  }
  for (std::uint32_t c = 0; c < config.max_clients; ++c) {
    (void)keystore.register_principal(quorum::client_principal(c));
  }
}

}  // namespace bftbc::net
