#include "deploy.h"

#include <atomic>
#include <filesystem>
#include <mutex>
#include <optional>

#include "auditor.h"
#include "cluster/cluster_client.h"
#include "cluster/partition.h"
#include "common/codec.h"
#include "core/spitz_db.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/spitz_client.h"
#include "net/spitz_server.h"
#include "net/spitz_wire.h"
#include "replica/backup.h"
#include "replica/replicator.h"

namespace perfbench {

using spitz::BackupReplica;
using spitz::ClusterClient;
using spitz::ClusterDigest;
using spitz::Hash256;
using spitz::NetClient;
using spitz::NetServer;
using spitz::ReadProof;
using spitz::Replicator;
using spitz::SpitzClient;
using spitz::SpitzDb;
using spitz::SpitzDigest;
using spitz::SpitzOptions;
using spitz::SpitzServer;
using spitz::WriteBatch;
using spitz::WriteOptions;
namespace wire = spitz::wire;

namespace {

Status Tag(const std::string& what, const Status& s) {
  if (s.ok()) return s;
  return Status::IOError(what + ": " + s.ToString());
}

// Bulk-loads `entries` (sorted by key), seals the tail block and makes
// everything durable before the database serves its first request.
Status LoadDurably(SpitzDb* db, std::vector<PosEntry> entries) {
  Status s = db->BulkLoad(std::move(entries));
  if (s.ok()) s = db->FlushBlock();
  if (s.ok()) s = db->SyncStorage();
  return Tag("load", s);
}

SpitzOptions DbOptions(const WorkloadSpec& spec, const std::string& dir,
                       bool primary) {
  SpitzOptions options;
  options.data_dir = dir;
  options.buffer_cache_bytes = spec.cache_bytes;
  options.gc_interval_blocks = spec.gc_interval_blocks;
  // Flush policy: every acknowledged client write is fsync'd. Backups
  // fsync each applied block instead (BackupReplica::sync_applies).
  options.sync_writes = primary;
  options.chunk_segment_bytes = spec.segment_bytes;
  return options;
}

// --- Tamper canary ------------------------------------------------------------

// Flips one byte of `bytes` in [from, to) (to = 0 means the end).
void FlipByte(std::string* bytes, Random* rng, size_t from = 0,
              size_t to = 0) {
  if (to == 0 || to > bytes->size()) to = bytes->size();
  if (from >= to) return;
  const size_t pos = from + rng->Uniform(to - from);
  (*bytes)[pos] = static_cast<char>(static_cast<uint8_t>((*bytes)[pos]) ^
                                    static_cast<uint8_t>(1 + rng->Uniform(255)));
}

enum class Tamper { kNone, kProof, kValue, kDigest };

// Where each part of a proof-carrying reply sits: [begin, end) offsets,
// empty when the reply carries no such part.
struct ReplyLayout {
  size_t value_begin = 0, value_end = 0;
  size_t proof_begin = 0, proof_end = 0;
  size_t digest_begin = 0, digest_end = 0;
};

// Decodes a reply to `method` far enough to locate its parts; the value
// of a scan reply is one of its rows' values. False when the reply
// carries no evidence or does not decode.
bool LocateReply(uint32_t method, const std::string& reply, Random* rng,
                 ReplyLayout* out) {
  Slice in(reply);
  auto offset = [&] { return static_cast<size_t>(in.data() - reply.data()); };
  if (method == wire::kDigest) {
    out->digest_end = reply.size();
    return true;
  }
  if (method == wire::kGetProof || method == wire::kGetProofAt) {
    Slice value;
    if (!spitz::GetLengthPrefixedSlice(&in, &value).ok()) return false;
    out->value_begin = static_cast<size_t>(value.data() - reply.data());
    out->value_end = out->value_begin + value.size();
    out->proof_begin = offset();
    ReadProof proof;
    if (!ReadProof::DecodeFrom(&in, &proof).ok()) return false;
  } else if (method == wire::kScanProof || method == wire::kScanProofAt) {
    std::vector<PosEntry> rows;
    if (!wire::DecodeRows(&in, &rows).ok()) return false;
    out->proof_begin = offset();
    if (!rows.empty()) {
      const std::string& value = rows[rng->Uniform(rows.size())].value;
      const size_t at = reply.find(value);
      if (at == std::string::npos || at + value.size() > out->proof_begin) {
        return false;
      }
      out->value_begin = at;
      out->value_end = at + value.size();
    }
    spitz::ScanProof proof;
    if (!spitz::ScanProof::DecodeFrom(&in, &proof).ok()) return false;
  } else {
    return false;
  }
  out->proof_end = offset();
  if (method == wire::kGetProof || method == wire::kScanProof) {
    out->digest_begin = out->proof_end;
    out->digest_end = reply.size();
  } else {
    out->digest_begin = out->digest_end = out->proof_end;  // no digest
  }
  return true;
}

// A loopback proxy in front of one server. It forwards every call
// verbatim and, while a Tamper field is set, flips one byte of that
// field in every proof-carrying reply. A digest flip hits the index
// root, the part of a digest that proofs bind to, both in digests sent
// inline with a proof and in kDigest replies. Requests pinned at a root
// (kGetProofAt, kScanProofAt) get that flip undone on the way in, so the
// server answers honestly for its real state while the client holds a
// digest that disagrees with it.
class TamperProxy {
 public:
  static Status Start(uint16_t upstream_port, uint64_t seed,
                      std::unique_ptr<TamperProxy>* out) {
    std::unique_ptr<TamperProxy> proxy(new TamperProxy(seed));
    NetClient::Options upstream;
    upstream.port = upstream_port;
    Status s = NetClient::Connect(upstream, &proxy->upstream_);
    if (!s.ok()) return s;
    NetServer::Options options;
    options.dispatcher_count = 1;
    TamperProxy* self = proxy.get();
    s = NetServer::Start(
        [self](uint32_t method, const std::string& request,
               std::string* response) {
          return self->Handle(method, request, response);
        },
        options, &proxy->server_);
    if (!s.ok()) return s;
    *out = std::move(proxy);
    return Status::OK();
  }

  TamperProxy(const TamperProxy&) = delete;
  TamperProxy& operator=(const TamperProxy&) = delete;

  uint16_t port() const { return server_->port(); }

  // Tampers with replies from now on; each call picks a new root byte
  // and mask for digest flips.
  void Set(Tamper tamper) {
    std::lock_guard<std::mutex> lock(mu_);
    tamper_ = tamper;
    root_pos_ = rng_.Uniform(Hash256::kSize);
    root_mask_ = static_cast<uint8_t>(1 + rng_.Uniform(255));
  }

 private:
  explicit TamperProxy(uint64_t seed) : rng_(seed) {}

  Status Handle(uint32_t method, const std::string& request,
                std::string* response) {
    std::lock_guard<std::mutex> lock(mu_);
    std::string forwarded = request;
    const bool pinned =
        method == wire::kGetProofAt || method == wire::kScanProofAt;
    if (tamper_ == Tamper::kDigest && pinned &&
        forwarded.size() >= Hash256::kSize) {
      forwarded[root_pos_] = static_cast<char>(
          static_cast<uint8_t>(forwarded[root_pos_]) ^ root_mask_);
    }
    const Status s = upstream_->Call(method, forwarded, response);
    ReplyLayout at;
    if (tamper_ == Tamper::kNone || !(s.ok() || s.IsNotFound()) ||
        !LocateReply(method, *response, &rng_, &at)) {
      return s;
    }
    if (tamper_ == Tamper::kProof && at.proof_end > at.proof_begin) {
      FlipByte(response, &rng_, at.proof_begin, at.proof_end);
    } else if (tamper_ == Tamper::kValue && at.value_end > at.value_begin) {
      FlipByte(response, &rng_, at.value_begin, at.value_end);
    } else if (tamper_ == Tamper::kDigest &&
               at.digest_end >= at.digest_begin + Hash256::kSize) {
      char& byte = (*response)[at.digest_begin + root_pos_];
      byte = static_cast<char>(static_cast<uint8_t>(byte) ^ root_mask_);
    }
    return s;
  }

  std::mutex mu_;
  Random rng_;
  Tamper tamper_ = Tamper::kNone;
  size_t root_pos_ = 0;
  uint8_t root_mask_ = 1;
  std::unique_ptr<NetClient> upstream_;
  std::unique_ptr<NetServer> server_;  // stops before upstream_ closes
};

Status VerifyGetEvidence(bool cluster, const std::string& key,
                         const VerifiedKv::Evidence& ev) {
  return cluster ? ClusterClient::VerifyGetEvidence(key, ev)
                 : spitz::bench::internal::VerifySingleGetEvidence(key, ev);
}

Status VerifyScanEvidence(bool cluster, const std::string& start,
                          size_t limit, const VerifiedKv::ScanEvidence& ev) {
  return cluster ? ClusterClient::VerifyScanEvidence(start, kScanEnd, limit, ev)
                 : spitz::bench::internal::VerifySingleScanEvidence(
                       start, kScanEnd, limit, ev);
}

// A client's answer to a tampered reply counts as rejected only when
// it names the tampering, not when the call merely failed to arrive.
bool Rejected(const Status& s) {
  return s.IsVerificationFailed() || s.IsCorruption();
}

// --- Single served node -------------------------------------------------------

class SingleConnection : public Connection {
 public:
  explicit SingleConnection(std::unique_ptr<SpitzClient> client)
      : client_(std::move(client)) {}

  VerifiedKv* kv() override { return client_.get(); }

  Status Write(const WriteBatch& batch) override {
    return client_->Write(WriteOptions(), batch);
  }

  // The steps of SpitzClient::VerifiedGet, each timed: the proof RPC,
  // the decode of value, proof and digest, and the verification.
  Status TracedVerifiedGet(const std::string& key, std::string* value,
                           Tracer* tracer) override {
    const int32_t root = tracer->Begin(kSpanVGet);
    std::string request, response;
    spitz::PutLengthPrefixedSlice(&request, key);
    std::shared_ptr<NetClient> channel = client_->channel();
    const int32_t rpc = tracer->Begin(kSpanNetRpc, root);
    const Status call = channel->Call(wire::kGetProof, request, &response);
    tracer->End(rpc);
    Status s = call;
    if (call.ok() || call.IsNotFound()) {
      const int32_t decode = tracer->Begin(kSpanDecode, root);
      Slice input(response);
      Slice raw;
      ReadProof proof;
      SpitzDigest digest;
      s = spitz::GetLengthPrefixedSlice(&input, &raw);
      if (s.ok()) s = ReadProof::DecodeFrom(&input, &proof);
      if (s.ok()) s = wire::DecodeDigest(&input, &digest);
      std::optional<std::string> found;
      if (call.ok()) found = raw.ToString();
      tracer->End(decode);
      if (s.ok()) {
        const int32_t verify = tracer->Begin(kSpanVerify, root);
        s = SpitzDb::VerifyRead(digest, key, found, proof);
        tracer->End(verify);
        if (s.ok()) {
          if (found.has_value()) *value = std::move(*found);
          s = call;
        }
      }
    }
    tracer->End(root);
    return s;
  }

  // The steps of SpitzClient::VerifiedScan, timed the same way.
  Status TracedVerifiedScan(const std::string& start, size_t limit,
                            std::vector<PosEntry>* rows,
                            Tracer* tracer) override {
    const int32_t root = tracer->Begin(kSpanVScan);
    std::string request, response;
    spitz::PutLengthPrefixedSlice(&request, start);
    spitz::PutLengthPrefixedSlice(&request, kScanEnd);
    spitz::PutVarint64(&request, limit);
    std::shared_ptr<NetClient> channel = client_->channel();
    const int32_t rpc = tracer->Begin(kSpanScanRpc, root);
    Status s = channel->Call(wire::kScanProof, request, &response);
    tracer->End(rpc);
    if (s.ok()) {
      const int32_t decode = tracer->Begin(kSpanScanDecode, root);
      Slice input(response);
      std::vector<PosEntry> decoded;
      spitz::ScanProof proof;
      SpitzDigest digest;
      s = wire::DecodeRows(&input, &decoded);
      if (s.ok()) s = spitz::ScanProof::DecodeFrom(&input, &proof);
      if (s.ok()) s = wire::DecodeDigest(&input, &digest);
      tracer->End(decode);
      if (s.ok()) {
        const int32_t verify = tracer->Begin(kSpanScanVerify, root);
        s = SpitzDb::VerifyScan(digest, start, kScanEnd, limit, decoded, proof);
        tracer->End(verify);
        if (s.ok()) *rows = std::move(decoded);
      }
    }
    tracer->End(root);
    return s;
  }

 private:
  std::unique_ptr<SpitzClient> client_;
};

Status OpenSpitzClient(uint16_t port, std::unique_ptr<SpitzClient>* out) {
  SpitzClient::Options options;
  options.net.port = port;
  return SpitzClient::Open(options, out);
}

class SingleDeployment : public Deployment {
 public:
  Status Start(const WorkloadSpec& spec, const std::string& dir,
               uint64_t seed) {
    Status s = SpitzDb::Open(DbOptions(spec, dir + "/db", true), &db_);
    if (!s.ok()) return Tag("open database", s);
    std::vector<PosEntry> entries;
    entries.reserve(spec.keys);
    for (uint64_t i = 0; i < spec.keys; i++) {
      entries.push_back({RecordKey(i), MakeValue(seed, i, 0, 0)});
    }
    s = LoadDurably(db_.get(), std::move(entries));
    if (!s.ok()) return s;
    SpitzServer::Options options;
    options.db = db_.get();
    return Tag("open server", SpitzServer::Open(options, &server_));
  }

  bool cluster() const override { return false; }

  std::unique_ptr<Connection> Connect() override {
    std::unique_ptr<SpitzClient> client;
    if (!OpenSpitzClient(server_->port(), &client).ok()) return nullptr;
    return std::make_unique<SingleConnection>(std::move(client));
  }

  std::vector<uint16_t> PrimaryPorts() override { return {server_->port()}; }

  Status ConnectTo(const std::vector<uint16_t>& ports,
                   std::unique_ptr<VerifiedKv>* out) override {
    std::unique_ptr<SpitzClient> client;
    Status s = OpenSpitzClient(ports.at(0), &client);
    if (s.ok()) *out = std::move(client);
    return s;
  }

  std::vector<MetricsSnapshot> Snapshots() override {
    return {db_->Metrics(), server_->Metrics()};
  }

  Status CheckReplicas() override { return Status::OK(); }

  Status Compact(double* gc_ms) override {
    Status s = db_->SyncStorage();
    if (!s.ok()) return Tag("sync", s);
    const uint64_t t0 = spitz::MonotonicNanos();
    s = db_->CollectGarbage();
    *gc_ms += static_cast<double>(spitz::MonotonicNanos() - t0) / 1e6;
    return Tag("collect garbage", s);
  }

 private:
  // Declared in start-up order, so destruction stops the server before
  // it closes the database.
  std::unique_ptr<SpitzDb> db_;
  std::unique_ptr<SpitzServer> server_;
};

// --- Replicated cluster -------------------------------------------------------

class ClusterConnection : public Connection {
 public:
  explicit ClusterConnection(ClusterClient* client) : client_(client) {}

  VerifiedKv* kv() override { return client_; }

  Status Write(const WriteBatch& batch) override {
    return client_->Write(WriteOptions(), batch);
  }

  // The public pieces of a cluster verified read: the cluster digest
  // snapshot, the owning shard's proof pinned at the root that snapshot
  // names, and the stateless evidence verifier.
  Status TracedVerifiedGet(const std::string& key, std::string* value,
                           Tracer* tracer) override {
    const int32_t root = tracer->Begin(kSpanVGet);
    const int32_t snap = tracer->Begin(kSpanClusterSnapshot, root);
    ClusterDigest digest;
    Status s = client_->GetClusterDigest(&digest);
    tracer->End(snap);
    if (s.ok()) {
      const size_t shard = spitz::PartitionOf(key, client_->shard_count());
      std::optional<std::string> found;
      ReadProof proof;
      const int32_t fetch = tracer->Begin(kSpanClusterProof, root);
      const Status call = client_->shard(shard)->GetProofAt(
          digest.shards[shard].index_root, key, &found, &proof);
      tracer->End(fetch);
      s = call;
      if (call.ok() || call.IsNotFound()) {
        const int32_t encode = tracer->Begin(kSpanClusterEncode, root);
        VerifiedKv::Evidence evidence;
        evidence.value = found;
        spitz::PutVarint64(&evidence.proof, shard);
        proof.EncodeTo(&evidence.proof);
        digest.EncodeTo(&evidence.digest);
        tracer->End(encode);
        const int32_t verify = tracer->Begin(kSpanClusterVerify, root);
        s = ClusterClient::VerifyGetEvidence(key, evidence);
        tracer->End(verify);
        if (s.ok()) {
          if (found.has_value()) *value = std::move(*found);
          s = call;
        }
      }
    }
    tracer->End(root);
    return s;
  }

  // One span around the client's own verified scan.
  Status TracedVerifiedScan(const std::string& start, size_t limit,
                            std::vector<PosEntry>* rows,
                            Tracer* tracer) override {
    const int32_t root = tracer->Begin(kSpanVScan);
    Status s = kv()->VerifiedScan(start, kScanEnd, limit, rows);
    tracer->End(root);
    return s;
  }

 private:
  ClusterClient* client_;
};

class ClusterDeployment : public Deployment {
 public:
  static constexpr size_t kShards = 2;

  // Declared in start-up order, so destruction stops the replicator,
  // then each server before the database behind it.
  struct Shard {
    std::unique_ptr<SpitzDb> backup_db;
    std::unique_ptr<BackupReplica> backup;
    std::unique_ptr<SpitzServer> backup_server;
    std::unique_ptr<SpitzDb> db;
    std::unique_ptr<SpitzServer> server;
    std::unique_ptr<Replicator> replicator;
  };

  // Provisions each shard the way an operator seeds a fresh replica
  // pair: bulk-load the primary, make it durable, copy its files to
  // seed the backup, then start serving and streaming. The Replicator
  // resumes from the backup's ack, which already matches the primary.
  Status Start(const WorkloadSpec& spec, const std::string& dir,
               uint64_t seed) {
    std::vector<std::vector<PosEntry>> owned(kShards);
    for (uint64_t i = 0; i < spec.keys; i++) {
      const std::string key = RecordKey(i);
      owned[spitz::PartitionOf(key, kShards)].push_back(
          {key, MakeValue(seed, i, 0, 0)});
    }
    ClusterClient::Options client_options;
    for (size_t i = 0; i < kShards; i++) {
      Shard shard;
      const std::string base = dir + "/shard" + std::to_string(i);
      Status s = SpitzDb::Open(DbOptions(spec, base + "-primary", true),
                               &shard.db);
      if (!s.ok()) return Tag("open primary database", s);
      s = LoadDurably(shard.db.get(), std::move(owned[i]));
      if (!s.ok()) return s;
      std::error_code ec;
      std::filesystem::copy(base + "-primary", base + "-backup",
                            std::filesystem::copy_options::recursive, ec);
      if (ec) return Status::IOError("seed backup: " + ec.message());
      s = SpitzDb::Open(DbOptions(spec, base + "-backup", false),
                        &shard.backup_db);
      if (!s.ok()) return Tag("open backup database", s);
      BackupReplica::Options backup_options;
      backup_options.db = shard.backup_db.get();
      backup_options.sync_applies = true;
      s = BackupReplica::Open(backup_options, &shard.backup);
      if (!s.ok()) return Tag("open backup", s);
      SpitzServer::Options backup_server_options;
      backup_server_options.db = shard.backup_db.get();
      backup_server_options.replica = shard.backup.get();
      s = SpitzServer::Open(backup_server_options, &shard.backup_server);
      if (!s.ok()) return Tag("open backup server", s);
      SpitzServer::Options server_options;
      server_options.db = shard.db.get();
      s = SpitzServer::Open(server_options, &shard.server);
      if (!s.ok()) return Tag("open primary server", s);
      Replicator::Options replicator_options;
      replicator_options.db = shard.db.get();
      replicator_options.backup.port = shard.backup_server->port();
      s = Replicator::Open(replicator_options, &shard.replicator);
      if (!s.ok()) return Tag("open replicator", s);
      NetClient::Options primary_endpoint, backup_endpoint;
      primary_endpoint.port = shard.server->port();
      backup_endpoint.port = shard.backup_server->port();
      client_options.shards.push_back(primary_endpoint);
      client_options.backups.push_back(backup_endpoint);
      shards_.push_back(std::move(shard));
    }
    Status s = ClusterClient::Open(client_options, &client_);
    return Tag("open cluster client", s);
  }

  bool cluster() const override { return true; }

  std::unique_ptr<Connection> Connect() override {
    return std::make_unique<ClusterConnection>(client_.get());
  }

  std::vector<uint16_t> PrimaryPorts() override {
    std::vector<uint16_t> ports;
    for (Shard& shard : shards_) ports.push_back(shard.server->port());
    return ports;
  }

  Status ConnectTo(const std::vector<uint16_t>& ports,
                   std::unique_ptr<VerifiedKv>* out) override {
    ClusterClient::Options options;
    for (uint16_t port : ports) {
      NetClient::Options endpoint;
      endpoint.port = port;
      options.shards.push_back(endpoint);
    }
    std::unique_ptr<ClusterClient> client;
    Status s = ClusterClient::Open(options, &client);
    if (s.ok()) *out = std::move(client);
    return s;
  }

  std::vector<MetricsSnapshot> Snapshots() override {
    std::vector<MetricsSnapshot> out;
    for (Shard& shard : shards_) {
      out.push_back(shard.db->Metrics());
      out.push_back(shard.server->Metrics());
      out.push_back(shard.replicator->Metrics());
      out.push_back(shard.backup->Metrics());
    }
    out.push_back(client_->coordinator()->Metrics());
    return out;
  }

  // Drains every replication stream, then requires each backup's
  // independently derived digest to equal its primary's.
  Status CheckReplicas() override {
    for (size_t i = 0; i < shards_.size(); i++) {
      Shard& shard = shards_[i];
      const std::string name = "shard " + std::to_string(i);
      Status s = shard.db->FlushBlock();
      if (s.ok()) s = shard.replicator->WaitDrained(60'000);
      if (s.ok()) s = shard.replicator->ReplicationFault();
      if (!s.ok()) return Tag(name + " replication drain", s);
      if (shard.db->Digest() != shard.backup_db->Digest()) {
        return Status::VerificationFailed(name +
                                          ": backup digest differs from primary");
      }
      if (shard.backup->digest_mismatches() != 0) {
        return Status::VerificationFailed(name + ": backup saw digest mismatches");
      }
    }
    return Status::OK();
  }

  Status Compact(double* gc_ms) override {
    for (Shard& shard : shards_) {
      shard.replicator->Stop();
      for (SpitzDb* db : {shard.db.get(), shard.backup_db.get()}) {
        Status s = db->SyncStorage();
        if (!s.ok()) return Tag("sync", s);
        const uint64_t t0 = spitz::MonotonicNanos();
        s = db->CollectGarbage();
        *gc_ms += static_cast<double>(spitz::MonotonicNanos() - t0) / 1e6;
        if (!s.ok()) return Tag("collect garbage", s);
      }
    }
    return Status::OK();
  }

 private:
  std::vector<Shard> shards_;
  std::unique_ptr<ClusterClient> client_;  // destroyed before the shards
};

}  // namespace

void RunCanary(Deployment* deployment, const std::vector<uint64_t>& keys,
               const std::vector<std::pair<uint64_t, size_t>>& scans,
               Random* rng, CanaryResult* out) {
  auto note = [out](const std::string& what, const Status& s) {
    if (out->problem.empty()) out->problem = what + ": " + s.ToString();
  };
  std::vector<std::unique_ptr<TamperProxy>> proxies;
  std::vector<uint16_t> ports;
  for (uint16_t port : deployment->PrimaryPorts()) {
    std::unique_ptr<TamperProxy> proxy;
    Status s = TamperProxy::Start(port, rng->Next(), &proxy);
    if (!s.ok()) return note("start tamper proxy", s);
    ports.push_back(proxy->port());
    proxies.push_back(std::move(proxy));
  }
  std::unique_ptr<VerifiedKv> kv;
  Status s = deployment->ConnectTo(ports, &kv);
  if (!s.ok()) return note("connect through tamper proxies", s);
  auto set = [&proxies](Tamper tamper) {
    for (auto& proxy : proxies) proxy->Set(tamper);
  };
  const bool cluster = deployment->cluster();
  // Single-node digests bind proofs through their index root only.
  const size_t digest_span = cluster ? 0 : Hash256::kSize;
  const Tamper kFields[] = {Tamper::kProof, Tamper::kValue, Tamper::kDigest};

  for (uint64_t index : keys) {
    const std::string key = RecordKey(index);
    set(Tamper::kNone);
    VerifiedKv::Evidence ev;
    std::string value;
    s = kv->GetProof(key, &ev);
    if (s.ok()) s = VerifyGetEvidence(cluster, key, ev);
    if (s.ok()) s = kv->VerifiedGet(key, &value);
    if (s.ok() && value != ev.value) {
      s = Status::Corruption("verified read disagrees with its evidence");
    }
    if (!s.ok()) {
      note("honest read of " + key, s);
      continue;
    }
    out->honest++;
    for (Tamper field : kFields) {
      VerifiedKv::Evidence bad = ev;
      if (field == Tamper::kProof) FlipByte(&bad.proof, rng);
      if (field == Tamper::kValue) FlipByte(&*bad.value, rng);
      if (field == Tamper::kDigest) FlipByte(&bad.digest, rng, 0, digest_span);
      out->evidence_tampered++;
      if (!VerifyGetEvidence(cluster, key, bad).ok()) out->evidence_rejected++;
      set(field);
      out->calls_tampered++;
      if (Rejected(kv->VerifiedGet(key, &value))) out->calls_rejected++;
    }
  }
  for (const auto& [index, limit] : scans) {
    const std::string start = RecordKey(index);
    set(Tamper::kNone);
    VerifiedKv::ScanEvidence ev;
    std::vector<PosEntry> rows;
    s = kv->ScanProof(start, kScanEnd, limit, &ev);
    if (s.ok() && ev.rows.empty()) s = Status::NotFound("empty scan");
    if (s.ok()) s = VerifyScanEvidence(cluster, start, limit, ev);
    if (s.ok()) s = kv->VerifiedScan(start, kScanEnd, limit, &rows);
    if (s.ok() && rows.size() != ev.rows.size()) {
      s = Status::Corruption("verified scan disagrees with its evidence");
    }
    if (!s.ok()) {
      note("honest scan at " + start, s);
      continue;
    }
    out->honest++;
    for (Tamper field : kFields) {
      VerifiedKv::ScanEvidence bad = ev;
      if (field == Tamper::kProof) FlipByte(&bad.proof, rng);
      if (field == Tamper::kValue) {
        FlipByte(&bad.rows[rng->Uniform(bad.rows.size())].value, rng);
      }
      if (field == Tamper::kDigest) FlipByte(&bad.digest, rng, 0, digest_span);
      out->evidence_tampered++;
      if (!VerifyScanEvidence(cluster, start, limit, bad).ok()) {
        out->evidence_rejected++;
      }
      set(field);
      out->calls_tampered++;
      if (Rejected(kv->VerifiedScan(start, kScanEnd, limit, &rows))) {
        out->calls_rejected++;
      }
    }
  }
  kv.reset();  // before the proxies it is connected to
}

Status Deployment::Open(const WorkloadSpec& spec, const std::string& dir,
                        uint64_t seed, std::unique_ptr<Deployment>* out) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("create " + dir + ": " + ec.message());
  if (spec.cluster) {
    auto deployment = std::make_unique<ClusterDeployment>();
    Status s = deployment->Start(spec, dir, seed);
    if (!s.ok()) return s;
    *out = std::move(deployment);
  } else {
    auto deployment = std::make_unique<SingleDeployment>();
    Status s = deployment->Start(spec, dir, seed);
    if (!s.ok()) return s;
    *out = std::move(deployment);
  }
  return Status::OK();
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

Status VerifyAfterReopen(const WorkloadSpec& spec, const std::string& dir,
                         const std::vector<std::pair<uint64_t, std::string>>& expected) {
  SpitzOptions options = DbOptions(spec, dir + "/db", true);
  options.gc_interval_blocks = 0;
  std::unique_ptr<SpitzDb> db;
  Status s = SpitzDb::Open(options, &db);
  if (!s.ok()) return Tag("reopen", s);
  const SpitzDigest digest = db->Digest();
  for (const auto& [index, value] : expected) {
    const std::string key = RecordKey(index);
    std::string found;
    ReadProof proof;
    s = db->GetWithProof(key, &found, &proof);
    if (!s.ok()) return Tag("reopened read of " + key, s);
    s = SpitzDb::VerifyRead(digest, key, found, proof);
    if (!s.ok()) return Tag("reopened verify of " + key, s);
    if (found != value) {
      return Status::Corruption("acknowledged write to " + key +
                                " lost across reopen");
    }
  }
  return Status::OK();
}

}  // namespace perfbench
