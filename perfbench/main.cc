// spitz_perf — the repository benchmark (WORKLOADS.md).
//
// Stands up served Spitz deployments over loopback TCP inside this
// process, drives a closed-loop workload against each for a fixed time
// from a fixed number of generator threads, checks every answer, and
// prints the workload's metrics. With --trace 0 it measures five
// deployments in turn and prints the end-to-end metrics (medians over
// the five); with --trace 1 it measures one deployment with every other
// operation decomposed into spans and prints the per-layer metrics.
//
//   spitz_perf --workload kv-read|kv-write|cluster-txn --seed N
//              --seconds S --trace 0|1 --data DIR
//              [--trace-out FILE] [--commit ID]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every correctness check passed.

#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/spitz_db.h"
#include "deploy.h"
#include "index/siri.h"
#include "perf.h"

namespace perfbench {
namespace {

using spitz::WriteBatch;
using spitz::WriteOptions;

constexpr uint64_t kMaxScanRows = 100;
constexpr size_t kMaxSpansWritten = 200'000;
// Independently set-up deployments an untraced run measures.
constexpr size_t kDeployments = 5;
// A p99 needs at least ten samples beyond it.
constexpr size_t kMinSamplesForP99 = 1000;

struct Config {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string data;
  std::string trace_out;
  std::string commit = "unknown";
};

// --- Machine stanza -------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

std::string MachineStanza(const Config& config, const WorkloadSpec& spec) {
  std::string cpu = "unknown";
  bool sha = false;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string field = line.substr(0, colon);
    while (!field.empty() && (field.back() == ' ' || field.back() == '\t')) {
      field.pop_back();
    }
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : std::string();
    if (cpu == "unknown" && (field == "model name" || field == "Hardware")) {
      cpu = value;
    }
    // x86 SHA-NI, or the ARMv8 SHA-2 extension.
    if ((field == "flags" && (" " + value + " ").find(" sha_ni ") != std::string::npos) ||
        (field == "Features" && (" " + value + " ").find(" sha2 ") != std::string::npos)) {
      sha = true;
    }
  }
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(spec.name) << ", \"seed\": " << config.seed
      << ", \"trace\": " << (config.trace ? 1 : 0)
      << ", \"run_seconds\": " << JsonNumber(config.seconds)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << JsonString(cpu)
      << ", \"sha_extensions\": " << (sha ? "true" : "false")
      << ", \"build_type\": " << JsonString(PERF_BUILD_TYPE)
      << ", \"compiler\": " << JsonString(PERF_COMPILER)
      << ", \"commit\": " << JsonString(config.commit)
      << ", \"generator_threads\": " << kGeneratorThreads
      << ", \"load\": \"closed loop\""
      << ", \"flush_policy\": \"primaries sync_writes (every acknowledged write "
         "fsync'd, group-committed); backups sync_applies\"}";
  return out.str();
}

// A field of /proc/self/status in MiB: "VmRSS:" now, "VmHWM:" peak.
double ProcStatusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(strlen(field))) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// --- Generator threads ------------------------------------------------------------

// What a generator thread knows across warm-up and the measured phase:
// it is the only writer of keys congruent to its index, so it can
// predict exactly what each of them must read back.
struct ThreadState {
  explicit ThreadState(size_t index, uint64_t seed) : index(index), rng(seed) {}
  size_t index;
  Random rng;
  uint64_t seq = 0;
  std::unordered_map<uint64_t, uint64_t> last_seq;  // key -> acked seq
};

struct ThreadStats {
  std::vector<uint64_t> latency_ns[kOpCount];
  std::vector<uint64_t> vget_traced_ns;    // trace run only
  std::vector<uint64_t> vget_untraced_ns;  // trace run only
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t proof_failures = 0;
  uint64_t busy = 0;
  uint64_t timeouts = 0;
  uint64_t wrong = 0;  // answers that contradict what was written
  uint64_t writes_acked = 0;
  uint64_t scan_rows = 0;
  std::string first_problem;
  std::vector<Span> spans;
};

struct RunContext {
  const WorkloadSpec* spec;
  const KeyChooser* chooser;
  uint64_t seed;
  bool trace;
};

uint64_t OwnedKey(uint64_t k, const WorkloadSpec& spec, size_t thread) {
  uint64_t owned = k - k % kGeneratorThreads + thread;
  if (owned >= spec.keys) owned -= kGeneratorThreads;
  return owned;
}

std::string ExpectedValue(const RunContext& ctx, const ThreadState& st,
                          uint64_t key) {
  auto it = st.last_seq.find(key);
  if (it == st.last_seq.end()) return MakeValue(ctx.seed, key, 0, 0);
  return MakeValue(ctx.seed, key, static_cast<uint32_t>(st.index + 1),
                   it->second);
}

// A read of an owned key must return exactly the thread's last acked
// write (or the loaded value); any other key must hold a well-formed
// value written for that key.
bool ReadIsCorrect(const RunContext& ctx, const ThreadState& st, uint64_t key,
                   const std::string& value) {
  if (key % kGeneratorThreads == st.index) {
    return value == ExpectedValue(ctx, st, key);
  }
  return CheckValue(ctx.seed, key, value);
}

void Account(const Status& s, bool correct, const std::string& what,
             ThreadStats* stats) {
  if (s.ok() && correct) return;
  if (s.IsVerificationFailed()) {
    stats->proof_failures++;
  } else if (s.IsBusy()) {
    stats->busy++;
  } else if (s.IsTimedOut()) {
    stats->timeouts++;
  } else if (!s.ok()) {
    stats->errors++;
  } else {
    stats->wrong++;
  }
  if (stats->first_problem.empty()) {
    stats->first_problem =
        what + ": " + (s.ok() ? std::string("wrong answer") : s.ToString());
  }
}

// Runs the workload mix until `max_ops` or `*stop`. Only timed ops are
// recorded as attempts and latencies; a failure during warm-up is
// still a failure.
void RunOps(const RunContext& ctx, ThreadState* st, Connection* conn,
            bool timed, uint64_t max_ops, const std::atomic<bool>* stop,
            ThreadStats* stats) {
  const WorkloadSpec& spec = *ctx.spec;
  VerifiedKv* kv = conn->kv();
  Tracer tracer(&stats->spans);
  const uint64_t p_vget = static_cast<uint64_t>(spec.pct[0]);
  const uint64_t p_get = p_vget + static_cast<uint64_t>(spec.pct[1]);
  const uint64_t p_vscan = p_get + static_cast<uint64_t>(spec.pct[2]);
  for (uint64_t done = 0;
       done < max_ops && !stop->load(std::memory_order_relaxed); done++) {
    const bool traced = ctx.trace && timed && done % 2 == 0;
    Tracer* tr = traced ? &tracer : nullptr;
    if (traced) tracer.NewRequest((static_cast<uint64_t>(st->index) << 48) | done);
    const uint64_t dice = st->rng.Uniform(100);
    const int op = dice < p_vget    ? kVGet
                   : dice < p_get   ? kGet
                   : dice < p_vscan ? kVScan
                                    : kWrite;
    Status s;
    bool correct = true;
    std::string what;
    uint64_t t0 = 0, t1 = 0;
    std::vector<std::pair<std::string, std::string>> kvs;
    std::vector<std::pair<uint64_t, uint64_t>> written;  // key, seq
    if (op == kVGet || op == kGet) {
      const uint64_t key = ctx.chooser->Next(&st->rng);
      what = std::string(OpName(op)) + " " + RecordKey(key);
      std::string value;
      t0 = spitz::MonotonicNanos();
      if (op == kVGet) {
        s = tr != nullptr ? conn->TracedVerifiedGet(RecordKey(key), &value, tr)
                          : kv->VerifiedGet(RecordKey(key), &value);
      } else {
        const int32_t span = tr != nullptr ? tr->Begin(kSpanGet) : -1;
        s = kv->Get(RecordKey(key), &value);
        if (tr != nullptr) tr->End(span);
      }
      t1 = spitz::MonotonicNanos();
      if (s.ok()) correct = ReadIsCorrect(ctx, *st, key, value);
      if (op == kVGet && ctx.trace && timed) {
        (traced ? stats->vget_traced_ns : stats->vget_untraced_ns)
            .push_back(t1 - t0);
      }
    } else if (op == kVScan) {
      const uint64_t start = ctx.chooser->Next(&st->rng);
      const size_t limit = st->rng.Range(1, kMaxScanRows);
      what = "vscan " + RecordKey(start);
      std::vector<PosEntry> rows;
      t0 = spitz::MonotonicNanos();
      s = tr != nullptr
              ? conn->TracedVerifiedScan(RecordKey(start), limit, &rows, tr)
              : kv->VerifiedScan(RecordKey(start), kScanEnd, limit, &rows);
      t1 = spitz::MonotonicNanos();
      if (s.ok()) {
        // Every key exists, so the scan must return the next `limit`
        // consecutive keys, each with a correct value.
        const uint64_t expect = std::min<uint64_t>(limit, spec.keys - start);
        correct = rows.size() == expect;
        for (size_t i = 0; correct && i < rows.size(); i++) {
          correct = rows[i].key == RecordKey(start + i) &&
                    ReadIsCorrect(ctx, *st, start + i, rows[i].value);
        }
        if (timed) stats->scan_rows += rows.size();
      }
    } else {
      while (written.size() < spec.write_keys) {
        const uint64_t key =
            OwnedKey(ctx.chooser->Next(&st->rng), spec, st->index);
        bool fresh = true;
        for (const auto& w : written) fresh = fresh && w.first != key;
        if (!fresh) continue;
        written.emplace_back(key, ++st->seq);
        kvs.emplace_back(RecordKey(key),
                         MakeValue(ctx.seed, key,
                                   static_cast<uint32_t>(st->index + 1),
                                   st->seq));
      }
      what = "write " + kvs[0].first;
      t0 = spitz::MonotonicNanos();
      const int32_t span = tr != nullptr ? tr->Begin(kSpanWrite) : -1;
      if (kvs.size() == 1) {
        s = kv->Put(WriteOptions(), kvs[0].first, kvs[0].second);
      } else {
        WriteBatch batch;
        for (const auto& [key, value] : kvs) batch.Put(key, value);
        s = conn->Write(batch);
      }
      if (tr != nullptr) tr->End(span);
      t1 = spitz::MonotonicNanos();
      if (s.ok()) {
        for (const auto& [key, seq] : written) st->last_seq[key] = seq;
        if (timed) stats->writes_acked++;
      }
    }
    if (timed) {
      stats->attempted++;
      stats->latency_ns[op].push_back(t1 - t0);
    }
    Account(s, correct, what, stats);
  }
}

// Runs every generator thread until each did `max_ops` or, when
// `seconds` > 0, until that much time passed, sampling the resident set
// meanwhile into *peak_rss_mb (when non-null). Returns the seconds from
// start until the threads were told to stop.
double RunPhase(const RunContext& ctx, std::vector<ThreadState>* states,
                const std::vector<std::unique_ptr<Connection>>& clients,
                bool timed, uint64_t max_ops, double seconds,
                std::vector<ThreadStats>* stats,
                double* peak_rss_mb = nullptr) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const uint64_t start = spitz::MonotonicNanos();
  for (size_t t = 0; t < clients.size(); t++) {
    threads.emplace_back([&, t] {
      RunOps(ctx, &(*states)[t], clients[t].get(), timed, max_ops, &stop,
             &(*stats)[t]);
    });
  }
  if (seconds > 0) {
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    for (uint64_t now = start; now < deadline; now = spitz::MonotonicNanos()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<uint64_t>(deadline - now, 50'000'000)));
      if (peak_rss_mb != nullptr) {
        *peak_rss_mb = std::max(*peak_rss_mb, ProcStatusMb("VmRSS:"));
      }
    }
    stop.store(true, std::memory_order_relaxed);
  }
  const uint64_t stopped = spitz::MonotonicNanos();
  for (std::thread& t : threads) t.join();
  return static_cast<double>(stopped - start) / 1e9;
}

// --- Metrics output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct SpanTotals {
  uint64_t count = 0;
  double dur_ns = 0;
  double child_ns = 0;  // time covered by direct children
  double MeanUs() const { return count == 0 ? 0 : dur_ns / count / 1e3; }
  double SelfUs() const {
    return count == 0 ? 0 : (dur_ns - child_ns) / count / 1e3;
  }
};

void WriteTrace(const Config& config, const std::string& stanza,
                const std::vector<ThreadStats>& stats) {
  if (config.trace_out.empty()) return;
  std::error_code ec;
  const std::filesystem::path path(config.trace_out);
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::ofstream out(config.trace_out, std::ios::trunc);
  out << "{\"machine\": " << stanza << "}\n";
  size_t written = 0;
  for (size_t t = 0; t < stats.size(); t++) {
    for (size_t i = 0; i < stats[t].spans.size() && written < kMaxSpansWritten;
         i++, written++) {
      const Span& s = stats[t].spans[i];
      out << "{\"thread\": " << t << ", \"id\": " << i << ", \"request\": "
          << s.request << ", \"name\": \"" << SpanLabel(s.name)
          << "\", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << "}\n";
    }
  }
}

// A proof-size histogram's name: it carries the SIRI backend, and the
// databases run the default one.
std::string BackendHistogram(const std::string& prefix) {
  return prefix + spitz::SiriBackendName(spitz::SpitzOptions().index_backend);
}

// Everything one measured deployment yields.
struct Measurement {
  double setup_s = 0;
  double elapsed_s = 0;
  double peak_rss_mb = 0;
  double gc_final_ms = 0;
  uint64_t disk_bytes = 0;
  Totals after;  // metric totals at the end of the window
  Totals delta;  // ... minus those at its start
  std::vector<ThreadStats> stats;
  ThreadStats all;  // the generator threads merged (no spans)
  uint64_t failed = 0;
  CanaryResult canary;
  std::vector<std::string> problems;
};

void Merge(const ThreadStats& st, ThreadStats* all) {
  for (int op = 0; op < kOpCount; op++) {
    all->latency_ns[op].insert(all->latency_ns[op].end(),
                               st.latency_ns[op].begin(), st.latency_ns[op].end());
  }
  all->vget_traced_ns.insert(all->vget_traced_ns.end(),
                             st.vget_traced_ns.begin(), st.vget_traced_ns.end());
  all->vget_untraced_ns.insert(all->vget_untraced_ns.end(),
                               st.vget_untraced_ns.begin(),
                               st.vget_untraced_ns.end());
  all->attempted += st.attempted;
  all->errors += st.errors;
  all->proof_failures += st.proof_failures;
  all->busy += st.busy;
  all->timeouts += st.timeouts;
  all->wrong += st.wrong;
  all->writes_acked += st.writes_acked;
  all->scan_rows += st.scan_rows;
}

// Sets up a deployment in `dir` (bring-up + load + warm-up, timed as
// set-up), drives it for `seconds`, runs the correctness gates (the
// reopen gate only when `reopen`) and removes the directory. Returns false, with nothing measured, when the
// deployment could not be brought up.
bool MeasureDeployment(const Config& config, const RunContext& ctx,
                       const std::string& dir, double seconds, bool reopen,
                       Measurement* m) {
  const WorkloadSpec& spec = *ctx.spec;
  std::error_code ec;
  const uint64_t t0 = spitz::MonotonicNanos();
  std::unique_ptr<Deployment> deployment;
  Status s = Deployment::Open(spec, dir, config.seed, &deployment);
  std::vector<std::unique_ptr<Connection>> clients;
  std::vector<ThreadState> states;
  for (size_t t = 0; s.ok() && t < kGeneratorThreads; t++) {
    clients.push_back(deployment->Connect());
    if (clients.back() == nullptr) s = Status::IOError("client connect failed");
    states.emplace_back(t, config.seed * 0x100000001b3ull + t * 7919 + 1);
  }
  if (!s.ok()) {
    fprintf(stderr, "spitz_perf: set-up failed: %s\n", s.ToString().c_str());
    clients.clear();
    deployment.reset();
    std::filesystem::remove_all(dir, ec);
    return false;
  }
  std::vector<ThreadStats> warm(kGeneratorThreads);
  RunPhase(ctx, &states, clients, /*timed=*/false, spec.warmup_ops, 0, &warm);
  for (const ThreadStats& w : warm) {
    if (!w.first_problem.empty()) m->problems.push_back("warm-up " + w.first_problem);
  }
  m->setup_s = static_cast<double>(spitz::MonotonicNanos() - t0) / 1e9;

  // --- Measured window ---
  const Totals before = Totals::Of(deployment->Snapshots());
  m->stats.resize(kGeneratorThreads);
  m->peak_rss_mb = ProcStatusMb("VmRSS:");
  m->elapsed_s = RunPhase(ctx, &states, clients, /*timed=*/true, UINT64_MAX,
                          seconds, &m->stats, &m->peak_rss_mb);
  m->after = Totals::Of(deployment->Snapshots());
  m->delta = m->after.Minus(before);
  for (const ThreadStats& st : m->stats) {
    Merge(st, &m->all);
    if (!st.first_problem.empty()) m->problems.push_back(st.first_problem);
  }
  m->failed = m->all.errors + m->all.proof_failures + m->all.busy +
              m->all.timeouts + m->all.wrong;

  // --- Correctness gates ---
  Random rng(config.seed ^ 0xca9a7ull);
  std::vector<uint64_t> keys;
  std::vector<std::pair<uint64_t, size_t>> scans;
  for (int i = 0; i < 6; i++) keys.push_back(rng.Uniform(spec.keys));
  for (int i = 0; i < 3; i++) {
    scans.emplace_back(rng.Uniform(spec.keys), rng.Range(1, kMaxScanRows));
  }
  RunCanary(deployment.get(), keys, scans, &rng, &m->canary);
  const CanaryResult& canary = m->canary;
  if (!canary.problem.empty()) m->problems.push_back("canary: " + canary.problem);
  if (canary.evidence_tampered == 0 ||
      canary.evidence_rejected != canary.evidence_tampered) {
    m->problems.push_back(
        "canary: " + std::to_string(canary.evidence_tampered - canary.evidence_rejected) +
        " of " + std::to_string(canary.evidence_tampered) +
        " tampered evidence copies verified");
  }
  if (canary.calls_tampered == 0 || canary.calls_rejected != canary.calls_tampered) {
    m->problems.push_back(
        "canary: " + std::to_string(canary.calls_tampered - canary.calls_rejected) +
        " of " + std::to_string(canary.calls_tampered) +
        " verified client calls accepted a tampered reply");
  }
  Status gate = deployment->CheckReplicas();
  if (!gate.ok()) m->problems.push_back(gate.ToString());
  gate = deployment->Compact(&m->gc_final_ms);
  if (!gate.ok()) m->problems.push_back(gate.ToString());
  m->disk_bytes = DirectoryBytes(dir);
  clients.clear();
  deployment.reset();
  if (reopen) {
    std::vector<std::pair<uint64_t, std::string>> expected;
    for (const ThreadState& st : states) {
      for (const auto& [key, seq] : st.last_seq) {
        expected.emplace_back(
            key, MakeValue(config.seed, key, static_cast<uint32_t>(st.index + 1), seq));
      }
    }
    gate = VerifyAfterReopen(spec, dir, expected);
    if (!gate.ok()) m->problems.push_back(gate.ToString());
    printf("reopen gate: %zu acknowledged writes re-read: %s\n",
           expected.size(), gate.ToString().c_str());
  }
  std::filesystem::remove_all(dir, ec);
  // Hand the torn-down deployment's heap back to the kernel, so the
  // next deployment's resident set is its own.
  malloc_trim(0);
  return true;
}

// Per-layer metrics of one traced deployment (WORKLOADS.md).
std::vector<Metric> LayerMetrics(const WorkloadSpec& spec, Measurement& m) {
  SpanTotals spans[kSpanCount];
  for (const ThreadStats& st : m.stats) {
    std::vector<double> child(st.spans.size(), 0);
    for (const Span& s : st.spans) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < st.spans.size(); i++) {
      SpanTotals& agg = spans[st.spans[i].name];
      agg.count++;
      agg.dur_ns += st.spans[i].end_ns - st.spans[i].start_ns;
      agg.child_ns += child[i];
    }
  }
  const Totals& delta = m.delta;
  const Totals& after = m.after;
  const ThreadStats& all = m.all;
  const double writes = static_cast<double>(all.writes_acked);
  const std::string proof_method = spec.cluster
                                       ? "net.server.method_latency_ns.get_proof_at"
                                       : "net.server.method_latency_ns.get_proof";
  const SpanTotals& vget = spans[kSpanVGet];
  const double rpc_us = spec.cluster ? spans[kSpanClusterProof].MeanUs()
                                     : spans[kSpanNetRpc].MeanUs();
  const double server_us = delta.Mean(proof_method) / 1e3;
  const double vgets_served = static_cast<double>(delta.Count(proof_method));
  const uint64_t hits = delta.Counter("cache.hits");
  const uint64_t misses = delta.Counter("cache.misses");
  const uint64_t txns = delta.Counter("cluster.coordinator.commits_1pc") +
                        delta.Counter("cluster.coordinator.commits_2pc");
  const double traced_p50 = Quantile(&m.all.vget_traced_ns, 0.5) / 1e3;
  const double untraced_p50 = Quantile(&m.all.vget_untraced_ns, 0.5) / 1e3;
  // Tails come from the untraced half of the verified reads, and from
  // every write (a write is one span; tracing adds nothing inside it).
  const double vget_p99 = Quantile(&m.all.vget_untraced_ns, 0.99) / 1e3;
  const double write_p99 = Quantile(&m.all.latency_ns[kWrite], 0.99) / 1e3;
  const double gc_final_ms = m.gc_final_ms;
  const std::string proof_bytes = BackendHistogram("index.siri.proof_bytes.");
  const std::string range_proof_bytes =
      BackendHistogram("index.siri.range_proof_bytes.");
  printf("trace: %" PRIu64 " traced verified reads, %zu untraced; self time: "
         "rpc %.1fus decode %.1fus verify %.1fus vget root %.1fus\n",
         vget.count, all.vget_untraced_ns.size(), rpc_us,
         spans[kSpanDecode].SelfUs(), spans[kSpanVerify].SelfUs(), vget.SelfUs());
  std::vector<Metric> metrics = {
      {"net.rpc_us", rpc_us, "us"},
      {"net.server_get_proof_us", server_us, "us"},
      {"net.wire_us", rpc_us - server_us, "us"},
      {"net.dispatch_us", delta.Mean("net.server.dispatch_latency_ns") / 1e3, "us"},
      {"core.processor.queue_wait_us",
       delta.Mean("core.processor.queue_wait_ns") / 1e3, "us"},
      {"core.db.proof_build_us",
       delta.Mean("core.db.proof_build_latency_ns") / 1e3, "us"},
      {"core.db.write_us", delta.Mean("core.db.write_latency_ns") / 1e3, "us"},
      {"core.db.seal_us", delta.Mean("core.db.seal_latency_ns") / 1e3, "us"},
      {"core.db.group_size", delta.Mean("core.db.commit.group_size"), "count"},
      {"core.db.fsyncs_per_write",
       Ratio(static_cast<double>(delta.Counter("core.db.journal.fsyncs")),
             static_cast<double>(delta.Count("core.db.write_latency_ns"))),
       "ratio"},
      {"client.decode_us", spans[kSpanDecode].MeanUs(), "us"},
      {"client.verify_us", spans[kSpanVerify].MeanUs(), "us"},
      {"client.scan_verify_us", spans[kSpanScanVerify].MeanUs(), "us"},
      {"index.proof_bytes", delta.Mean(proof_bytes), "B"},
      {"index.range_proof_bytes_per_row",
       Ratio(static_cast<double>(delta.Sum(range_proof_bytes)),
             static_cast<double>(all.scan_rows)),
       "B"},
      {"chunk.cache_hit_rate",
       Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
       "ratio"},
      {"chunk.reads_per_vget",
       Ratio(static_cast<double>(delta.Counter("chunk.file.reads")), vgets_served),
       "count"},
      {"chunk.appended_bytes_per_write",
       Ratio(static_cast<double>(delta.Counter("chunk.file.appended_bytes")), writes),
       "B"},
      {"chunk.dedup_hit_rate",
       Ratio(static_cast<double>(delta.Counter("chunk.store.dedup_hits")),
             static_cast<double>(delta.Counter("chunk.store.puts"))),
       "ratio"},
      {"gc.runs", static_cast<double>(delta.Counter("gc.runs")), "count"},
      {"gc.rewritten_per_reclaimed",
       Ratio(static_cast<double>(delta.Counter("gc.rewritten_bytes")),
             static_cast<double>(delta.Counter("gc.reclaimed_bytes"))),
       "ratio"},
      {"gc.final_pass_ms", gc_final_ms, "ms"},
      {"txn.verifier.queue_wait_us",
       delta.Mean("txn.verifier.queue_wait_ns") / 1e3, "us"},
      {"txn.verifier.verify_us",
       delta.Mean("txn.verifier.verify_latency_ns") / 1e3, "us"},
      {"txn.verifier.audits_per_write",
       Ratio(static_cast<double>(delta.Counter("txn.verifier.submitted")), writes),
       "ratio"},
      {"cluster.snapshot_us", spans[kSpanClusterSnapshot].MeanUs(), "us"},
      {"cluster.proof_us", spans[kSpanClusterProof].MeanUs(), "us"},
      {"cluster.verify_us", spans[kSpanClusterVerify].MeanUs(), "us"},
      {"cluster.prepare_us",
       delta.Mean("net.server.method_latency_ns.txn_prepare") / 1e3, "us"},
      {"cluster.commit_us",
       delta.Mean("net.server.method_latency_ns.txn_commit") / 1e3, "us"},
      {"cluster.2pc_share",
       Ratio(static_cast<double>(delta.Counter("cluster.coordinator.commits_2pc")),
             static_cast<double>(txns)),
       "ratio"},
      {"cluster.retries_per_txn",
       Ratio(static_cast<double>(delta.Counter("cluster.coordinator.commit_retries")),
             static_cast<double>(txns)),
       "ratio"},
      {"cluster.busy_per_txn",
       spec.cluster ? Ratio(static_cast<double>(all.busy), writes) : 0, "ratio"},
      {"replica.lag_ms", delta.Mean("replica.primary.lag_ns") / 1e6, "ms"},
      {"replica.ship_us", delta.Mean("replica.primary.ship_ns") / 1e3, "us"},
      {"replica.backup_apply_us", delta.Mean("replica.backup.apply_ns") / 1e3, "us"},
      {"replica.digest_mismatches",
       static_cast<double>(after.Counter("replica.primary.digest_mismatches") +
                           after.Counter("replica.backup.digest_mismatches")),
       "count"},
      {"trace.vget_us", vget.MeanUs(), "us"},
      {"trace.vget_self_us", vget.SelfUs(), "us"},
      {"trace.accounted_frac",
       Ratio(vget.child_ns, vget.dur_ns), "ratio"},
      {"trace.overhead_us", traced_p50 - untraced_p50, "us"},
      {"vget_p99_us", vget_p99, "us"},
      {"write_p99_us", write_p99, "us"},
  };
  return metrics;
}

int Run(const Config& config) {
  const WorkloadSpec* spec = FindWorkload(config.workload);
  if (spec == nullptr) {
    fprintf(stderr, "spitz_perf: unknown workload %s\n", config.workload.c_str());
    return 2;
  }
  const std::string stanza = MachineStanza(config, *spec);
  printf("machine: %s\n", stanza.c_str());
  fflush(stdout);

  const KeyChooser chooser(spec->keys, spec->zipfian);
  const RunContext ctx{spec, &chooser, config.seed, config.trace};
  const std::string root = config.data + "/" + spec->name + "-" +
                           std::to_string(static_cast<long>(getpid()));
  std::error_code ec;
  std::filesystem::remove_all(root, ec);

  // The untraced run measures kDeployments independently set-up
  // deployments for an equal share of the time and reports medians;
  // the traced run measures one deployment for all of it.
  const size_t deployments = config.trace ? 1 : kDeployments;
  std::vector<Measurement> runs(deployments);
  for (size_t i = 0; i < deployments; i++) {
    // The reopen gate runs once per run, on the last deployment.
    if (!MeasureDeployment(config, ctx, root + "/deployment" + std::to_string(i),
                           config.seconds / static_cast<double>(deployments),
                           spec->reopen_gate && i + 1 == deployments, &runs[i])) {
      std::filesystem::remove_all(root, ec);
      return 1;
    }
  }
  std::filesystem::remove_all(root, ec);

  // --- Report ---
  std::vector<std::string> problems;
  uint64_t attempted = 0, failed = 0;
  const std::string proof_bytes = BackendHistogram("index.siri.proof_bytes.");
  std::vector<double> setup_s, ops_s, proof, disk, rss;
  std::vector<double> p50[kOpCount];
  std::vector<uint64_t> pooled[kOpCount];  // every deployment's samples
  for (size_t i = 0; i < deployments; i++) {
    Measurement& m = runs[i];
    problems.insert(problems.end(), m.problems.begin(), m.problems.end());
    attempted += m.all.attempted;
    failed += m.failed;
    printf("deployment %zu: set-up %.3f s; %" PRIu64 " ops in %.3f s; errors=%" PRIu64
           " proof_failures=%" PRIu64 " busy=%" PRIu64 " timeouts=%" PRIu64
           " wrong_answers=%" PRIu64 " fail_frac=%.6f; canary %" PRIu64
           " honest verified, tampered evidence %" PRIu64 "/%" PRIu64
           " rejected, tampered replies %" PRIu64 "/%" PRIu64 " rejected\n",
           i, m.setup_s, m.all.attempted, m.elapsed_s, m.all.errors,
           m.all.proof_failures, m.all.busy, m.all.timeouts, m.all.wrong,
           Ratio(static_cast<double>(m.failed), static_cast<double>(m.all.attempted)),
           m.canary.honest, m.canary.evidence_rejected, m.canary.evidence_tampered,
           m.canary.calls_rejected, m.canary.calls_tampered);
    for (int op = 0; op < kOpCount; op++) {
      std::vector<uint64_t>& v = m.all.latency_ns[op];
      if (v.empty()) {
        problems.push_back(std::string("no ") + OpName(op) + " samples");
        continue;
      }
      pooled[op].insert(pooled[op].end(), v.begin(), v.end());
      p50[op].push_back(Quantile(&v, 0.50) / 1e3);
      printf("  latency %-5s n=%zu p50=%.1fus p99=%.1fus\n", OpName(op), v.size(),
             p50[op].back(), Quantile(&v, 0.99) / 1e3);
    }
    setup_s.push_back(m.setup_s);
    ops_s.push_back(static_cast<double>(m.all.attempted) / m.elapsed_s);
    // Encoded ReadProof = index root + the SIRI proof the server built
    // for each verified point read.
    proof.push_back(spitz::Hash256::kSize + m.delta.Mean(proof_bytes));
    disk.push_back(Ratio(static_cast<double>(m.disk_bytes),
                         static_cast<double>(spec->keys * (16 + kValueBytes))));
    rss.push_back(m.peak_rss_mb);
  }

  // Exact quantiles. A p50 is the median of the deployments' p50s. A
  // p99 is taken over every deployment's samples together; it is
  // printed here, and reported as a metric by the traced run.
  for (int op : {kVGet, kWrite}) {
    if (pooled[op].size() < kMinSamplesForP99) {
      problems.push_back(std::string("too few ") + OpName(op) +
                         " samples for a p99 with ten beyond it");
    }
    printf("pooled %-5s n=%zu p99=%.1fus\n", OpName(op), pooled[op].size(),
           Quantile(&pooled[op], 0.99) / 1e3);
  }
  std::vector<Metric> metrics;
  if (!config.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ops_s", Median(ops_s), "1/s"},
        {"vget_p50_us", Median(p50[kVGet]), "us"},
        {"get_p50_us", Median(p50[kGet]), "us"},
        {"vscan_p50_us", Median(p50[kVScan]), "us"},
        {"write_p50_us", Median(p50[kWrite]), "us"},
        {"proof_bytes_per_vget", Median(proof), "B"},
        {"disk_bytes_per_user_byte", Median(disk), "ratio"},
        {"peak_rss_mb", Median(rss), "MB"},
    };
  } else {
    metrics = LayerMetrics(*spec, runs[0]);
    WriteTrace(config, stanza, runs[0].stats);
  }

  for (const Metric& m : metrics) {
    printf("metric %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : problems) {
    fprintf(stderr, "spitz_perf: CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = problems.empty() && failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " +
            JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Config* config) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config->seed = strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (flag == "--seconds") {
      config->seconds = strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && config->seconds > 0;
    } else if (flag == "--trace") {
      config->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--data") {
      config->data = value;
    } else if (flag == "--trace-out") {
      config->trace_out = value;
    } else if (flag == "--commit") {
      config->commit = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && have_workload && have_seed && have_seconds &&
         have_trace && !config->data.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Config config;
  if (!perfbench::ParseArgs(argc, argv, &config)) {
    fprintf(stderr,
            "usage: %s --workload kv-read|kv-write|cluster-txn --seed N "
            "--seconds S --trace 0|1 --data DIR [--trace-out FILE] "
            "[--commit ID]\n",
            argv[0]);
    return 2;
  }
  return perfbench::Run(config);
}
