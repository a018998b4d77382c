// Shared pieces of the repository benchmark (see WORKLOADS.md): the
// workload table, the self-checking key/value encoding, exact latency
// samples, and the in-memory span recorder of the traced run.

#ifndef PERFBENCH_PERF_H_
#define PERFBENCH_PERF_H_

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/slice.h"

namespace perfbench {

using spitz::MetricsSnapshot;
using spitz::Random;
using spitz::Slice;

constexpr size_t kValueBytes = 100;

// Closed-loop generator threads in every workload: two leave the
// in-process servers the other cores of a 4-core machine.
constexpr size_t kGeneratorThreads = 2;

// --- Operation classes --------------------------------------------------------

enum Op { kVGet = 0, kGet, kVScan, kWrite, kOpCount };
inline const char* OpName(int op) {
  static const char* kNames[] = {"vget", "get", "vscan", "write"};
  return kNames[op];
}

// --- Workloads ----------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  bool cluster;          // 2 replicated shards behind a ClusterClient
  uint64_t keys;         // live keys, all loaded before timing
  bool zipfian;          // scrambled zipfian (theta 0.99), else uniform
  size_t cache_bytes;    // SpitzOptions::buffer_cache_bytes per database
  // SpitzOptions::chunk_segment_bytes. GC reclaims whole segments and
  // never the active one, so a database whose live data is a few MiB
  // uses small segments: one partly filled default 8 MiB segment would
  // otherwise dominate its disk figure.
  size_t segment_bytes;
  size_t gc_interval_blocks;  // background GC cadence (0 = off)
  int pct[4];            // vget, get, vscan, write (sums to 100)
  size_t write_keys;     // keys per write (1 = Put, 2 = atomic Write)
  bool reopen_gate;      // reopen the database and re-read acked writes
  size_t warmup_ops;     // untimed ops per thread, part of set-up
};

// The three workloads; WORKLOADS.md gives the reasons for each number.
inline const WorkloadSpec* FindWorkload(const std::string& name) {
  static const WorkloadSpec kSpecs[] = {
      {"kv-read", false, 100'000, true, 64u << 20, 8u << 20, 0,
       {75, 10, 10, 5}, 1, false, 1500},
      {"kv-write", false, 200'000, false, 8u << 20, 8u << 20, 64,
       {40, 5, 5, 50}, 1, true, 600},
      {"cluster-txn", true, 50'000, false, 16u << 20, 2u << 20, 0,
       {40, 5, 5, 50}, 2, false, 400},
  };
  for (const WorkloadSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// --- Keys and self-checking values ---------------------------------------------

inline std::string RecordKey(uint64_t index) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012" PRIu64, index);
  return std::string(buf);
}

// A value names its key, its writer (0 = the loader, t+1 = generator
// thread t) and the writer's sequence number, followed by filler drawn
// from those fields and the run seed. Any value read back can thus be
// re-derived from its own header: a value served for the wrong key, or
// with a single changed byte, fails CheckValue.
//
// The loaded data set is the same for every seed (content-defined
// chunking makes the index shape depend on the bytes stored, and with
// it proof sizes and read costs); the seed drives the operation stream
// and the values it writes.
constexpr uint64_t kDatasetSeed = 0x5b17a;

inline std::string MakeValue(uint64_t seed, uint64_t key, uint32_t writer,
                             uint64_t seq) {
  char head[40];
  const int n = snprintf(head, sizeof(head), "%012" PRIu64 ".%02u.%010" PRIu64 ":",
                         key, writer, seq);
  std::string value(head, static_cast<size_t>(n));
  Random rng((writer == 0 ? kDatasetSeed : seed) ^
             (key * 0x9e3779b97f4a7c15ull) ^
             (static_cast<uint64_t>(writer) << 48) ^ (seq << 20));
  value.append(rng.Bytes(kValueBytes - value.size()));
  return value;
}

inline bool CheckValue(uint64_t seed, uint64_t key, const std::string& value) {
  if (value.size() != kValueBytes) return false;
  uint64_t k = 0, s = 0;
  unsigned w = 0;
  if (sscanf(value.c_str(), "%12" SCNu64 ".%2u.%10" SCNu64 ":", &k, &w, &s) !=
      3) {
    return false;
  }
  return k == key && value == MakeValue(seed, key, w, s);
}

// --- Key choosers ----------------------------------------------------------------

// YCSB's zipfian generator (Gray et al.), ranks scattered over the key
// space by a SplitMix64 finalizer, as in bench/ycsb_driver.
class KeyChooser {
 public:
  KeyChooser(uint64_t items, bool zipfian) : items_(items), zipfian_(zipfian) {
    if (!zipfian_) return;
    zetan_ = Zeta(items_);
    alpha_ = 1.0 / (1.0 - kTheta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(items_), 1.0 - kTheta)) /
           (1.0 - Zeta(2) / zetan_);
  }

  uint64_t Next(Random* rng) const {
    if (!zipfian_) return rng->Uniform(items_);
    return Scramble(Rank(rng)) % items_;
  }

 private:
  static constexpr double kTheta = 0.99;

  uint64_t Rank(Random* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, kTheta)) return 1;
    const uint64_t rank = static_cast<uint64_t>(
        static_cast<double>(items_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank < items_ ? rank : items_ - 1;
  }

  static double Zeta(uint64_t n) {
    double sum = 0;
    for (uint64_t i = 1; i <= n; i++) {
      sum += 1.0 / std::pow(static_cast<double>(i), kTheta);
    }
    return sum;
  }

  static uint64_t Scramble(uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  uint64_t items_;
  bool zipfian_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

// --- Exact latency samples -------------------------------------------------------

// Nearest-rank quantile over exact samples (sorts in place). The
// program's log2 histograms are used for sum/count means only.
inline double Quantile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  if (rank == 0) rank = 1;
  return static_cast<double>((*v)[rank - 1]);
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- Tracing ---------------------------------------------------------------------

enum SpanName {
  kSpanVGet = 0,
  kSpanNetRpc,
  kSpanDecode,
  kSpanVerify,
  kSpanGet,
  kSpanVScan,
  kSpanScanRpc,
  kSpanScanDecode,
  kSpanScanVerify,
  kSpanWrite,
  kSpanClusterSnapshot,
  kSpanClusterProof,
  kSpanClusterEncode,
  kSpanClusterVerify,
  kSpanCount
};
inline const char* SpanLabel(int name) {
  static const char* kLabels[] = {
      "vget",          "net.rpc",          "client.decode",
      "client.verify", "get",              "vscan",
      "net.scan_rpc",  "client.scan_decode", "client.scan_verify",
      "write",         "cluster.snapshot", "cluster.proof",
      "cluster.evidence_encode",           "cluster.verify"};
  return kLabels[name];
}

struct Span {
  uint64_t request = 0;  // spans of one operation share it
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  // index into the same thread's span vector
  uint16_t name = 0;
};

// Records spans of one generator thread; null when tracing is off, in
// which case callers take the untraced public call instead.
class Tracer {
 public:
  explicit Tracer(std::vector<Span>* spans) : spans_(spans) {}

  void NewRequest(uint64_t id) { request_ = id; }

  int32_t Begin(SpanName name, int32_t parent = -1) {
    Span span;
    span.request = request_;
    span.name = static_cast<uint16_t>(name);
    span.parent = parent;
    span.start_ns = spitz::MonotonicNanos();
    spans_->push_back(span);
    return static_cast<int32_t>(spans_->size() - 1);
  }
  void End(int32_t index) {
    (*spans_)[static_cast<size_t>(index)].end_ns = spitz::MonotonicNanos();
  }

 private:
  std::vector<Span>* spans_;
  uint64_t request_ = 0;
};

// --- Metric deltas over several components' snapshots ---------------------------

// Counter values and histogram (count, sum) pairs summed over every
// snapshot given — e.g. both shard primaries — so that a difference of
// two Totals is the exact work done in between.
struct Totals {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, uint64_t>> histograms;

  static Totals Of(const std::vector<MetricsSnapshot>& snaps) {
    Totals t;
    for (const MetricsSnapshot& s : snaps) {
      for (const auto& [name, v] : s.counters) t.counters[name] += v;
      for (const auto& [name, h] : s.histograms) {
        auto& slot = t.histograms[name];
        slot.first += h.count;
        slot.second += h.sum;
      }
    }
    return t;
  }

  uint64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  uint64_t Count(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? 0 : it->second.first;
  }
  uint64_t Sum(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? 0 : it->second.second;
  }
  // Exact mean of a histogram's recordings (0 when none).
  double Mean(const std::string& name) const {
    const uint64_t n = Count(name);
    return n == 0 ? 0.0 : static_cast<double>(Sum(name)) / static_cast<double>(n);
  }

  Totals Minus(const Totals& before) const {
    Totals d;
    for (const auto& [name, v] : counters) d.counters[name] = v - before.Counter(name);
    for (const auto& [name, h] : histograms) {
      d.histograms[name] = {h.first - before.Count(name),
                            h.second - before.Sum(name)};
    }
    return d;
  }
};

inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace perfbench

#endif  // PERFBENCH_PERF_H_
