// The two served deployment shapes the benchmark stands up over
// loopback TCP inside its own process: one durable SpitzServer, and a
// cluster of replicated durable shards behind one ClusterClient. Each
// hands generator threads a Connection whose untraced operations go
// through the VerifiedKv surface both shapes share.

#ifndef PERFBENCH_DEPLOY_H_
#define PERFBENCH_DEPLOY_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/verified_kv.h"
#include "index/pos_tree.h"
#include "perf.h"
#include "txn/write_batch.h"

namespace perfbench {

using spitz::PosEntry;
using spitz::Status;
using spitz::VerifiedKv;

inline constexpr char kScanEnd[] = "user~";  // '~' sorts after every digit

// One generator thread's handle on the deployment. Only what the
// VerifiedKv interface lacks is shape-specific: the multi-key atomic
// write, and the traced run's decomposition of a verified read and a
// verified scan into separately timed public calls.
class Connection {
 public:
  virtual ~Connection() = default;
  virtual VerifiedKv* kv() = 0;
  virtual Status Write(const spitz::WriteBatch& batch) = 0;
  virtual Status TracedVerifiedGet(const std::string& key, std::string* value,
                                   Tracer* tracer) = 0;
  virtual Status TracedVerifiedScan(const std::string& start, size_t limit,
                                    std::vector<PosEntry>* rows,
                                    Tracer* tracer) = 0;
};

class Deployment {
 public:
  // Stops clients, servers and background threads and closes every
  // database; the files stay.
  virtual ~Deployment() = default;

  // Stands the deployment up in `dir` and loads `spec.keys` keys whose
  // values are MakeValue(seed, key, 0, 0).
  static Status Open(const WorkloadSpec& spec, const std::string& dir,
                     uint64_t seed, std::unique_ptr<Deployment>* out);

  virtual bool cluster() const = 0;

  virtual std::unique_ptr<Connection> Connect() = 0;

  // Ports of the servers clients write to: the single node, or each
  // shard's primary.
  virtual std::vector<uint16_t> PrimaryPorts() = 0;

  // A client of this deployment's shape whose primaries are at `ports`
  // (the canary's tampering proxies), with no backups to fail over to.
  virtual Status ConnectTo(const std::vector<uint16_t>& ports,
                           std::unique_ptr<VerifiedKv>* out) = 0;

  // Metric snapshots of every component that serves the workload.
  virtual std::vector<MetricsSnapshot> Snapshots() = 0;

  // Workload-specific end-of-run agreement checks (OK if none).
  virtual Status CheckReplicas() = 0;

  // SyncStorage + CollectGarbage on every database; adds the
  // CollectGarbage wall time to *gc_ms.
  virtual Status Compact(double* gc_ms) = 0;
};

// Result of the tamper canary.
struct CanaryResult {
  uint64_t honest = 0;             // honest reads and scans that verified
  uint64_t evidence_tampered = 0;  // tampered evidence copies checked
  uint64_t evidence_rejected = 0;  // ... that the static verifiers rejected
  uint64_t calls_tampered = 0;     // client calls given a tampered reply
  uint64_t calls_rejected = 0;     // ... that the client rejected
  std::string problem;             // first honest read that failed, if any
};

// Samples `keys` point reads and `scans` verified scans (start key
// index, limit) through a client connected to the deployment via
// tampering proxies. Each is read honestly first. Then one byte each
// of the proof, the value and the digest is flipped twice over: in a
// copy of the evidence, which the static verifiers must reject, and in
// the proxied server reply, which the client's own verified call must
// reject. A tampered copy or reply that verifies is a failed canary.
void RunCanary(Deployment* deployment, const std::vector<uint64_t>& keys,
               const std::vector<std::pair<uint64_t, size_t>>& scans,
               Random* rng, CanaryResult* out);

// Bytes of every regular file under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

// Reopens the single-node database a closed Deployment left in `dir`
// and verified-reads each (key index, value) pair: every acknowledged
// durable write must survive the reopen and prove against the digest.
Status VerifyAfterReopen(
    const WorkloadSpec& spec, const std::string& dir,
    const std::vector<std::pair<uint64_t, std::string>>& expected);

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOY_H_
