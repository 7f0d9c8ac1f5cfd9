// Host fingerprint, the effective-parallelism probe and the single-
// threaded layer-cost probes. All of them record; none of them is used
// to discard or rescale a run.

#include <cpuid.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "durability/wal.h"
#include "htm/emulated_htm.h"
#include "htm/native_htm.h"
#include "sync/lock_table.h"
#include "tm/tufast.h"

namespace perfbench {
namespace {

using tufast::EmulatedHtm;
using tufast::TmWord;

std::string CpuModel() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

/// Results the probes compute, kept observable so no loop is optimized out.
volatile uint64_t g_probe_sink = 0;

/// Fixed amount of dependent integer work (no memory traffic).
uint64_t Spin(uint64_t iters, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return x;
}

/// Median of `reps` timed batches of `per_batch` calls, in ns per call.
template <typename Fn>
double MedianNsPerOp(int reps, uint64_t per_batch, Fn&& fn) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < per_batch; ++i) fn(i);
    v.push_back(static_cast<double>(NowNs() - t0) /
                static_cast<double>(per_batch));
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

std::vector<std::string> HostFingerprint() {
  std::vector<std::string> lines;
  lines.push_back("nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  lines.push_back(std::string("rtm=") +
                  (tufast::NativeHtm::Supported() ? "yes" : "no"));
  lines.push_back("cpu=" + CpuModel());
  lines.push_back(std::string("compiler=g++ ") + __VERSION__);
  lines.push_back(std::string("build_type=") + PERFBENCH_BUILD_TYPE);
  return lines;
}

void WarmUp(double seconds) {
  const int n = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  std::vector<uint64_t> out(n);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&out, i, deadline] {
      while (NowNs() < deadline) out[i] += Spin(100'000, i + out[i]);
    });
  }
  for (auto& t : threads) t.join();
  for (const uint64_t x : out) g_probe_sink = g_probe_sink + x;
}

double EffectiveCores() {
  const int n = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  constexpr uint64_t kIters = 40'000'000;
  const uint64_t t0 = NowNs();
  g_probe_sink = Spin(kIters, 1);
  const double one = static_cast<double>(NowNs() - t0);
  std::vector<std::thread> threads;
  std::vector<uint64_t> out(n);
  const uint64_t t1 = NowNs();
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&out, i] { out[i] = Spin(kIters, i + 2); });
  }
  for (auto& t : threads) t.join();
  const double all = static_cast<double>(NowNs() - t1);
  for (const uint64_t x : out) g_probe_sink = g_probe_sink + x;
  return Ratio(n * one, all);
}

std::map<std::string, double> LayerProbes(const Options& opt) {
  std::map<std::string, double> out;
  constexpr int kReps = 9;
  constexpr uint64_t kBatch = 20'000;
  constexpr tufast::VertexId kN = 1024;
  std::vector<TmWord> words(kN, 0);

  {  // Empty emulated-HTM transaction.
    EmulatedHtm htm;
    EmulatedHtm::Tx tx(htm, 0);
    out["htm.empty_commit_ns"] =
        MedianNsPerOp(kReps, kBatch, [&](uint64_t) { tx.Execute([] {}); });
  }
  {  // LockTable shared lock + unlock.
    EmulatedHtm htm;
    tufast::LockTable<EmulatedHtm> table(htm, kN);
    out["sync.lock_round_trip_ns"] =
        MedianNsPerOp(kReps, kBatch, [&](uint64_t i) {
          const auto v = static_cast<tufast::VertexId>(i % kN);
          if (table.TryLockShared(v)) table.UnlockShared(v);
        });
  }
  {  // One-op H-mode Run (default Config).
    EmulatedHtm htm;
    tufast::TuFastScheduler<EmulatedHtm> tm(htm, kN);
    out["tm.run_h_ns"] = MedianNsPerOp(kReps, kBatch, [&](uint64_t i) {
      const auto v = static_cast<tufast::VertexId>(i % kN);
      tm.Run(0, 1, [&](auto& txn) { txn.Write(v, &words[v], i); });
    });
  }
  {  // One-op MVCC snapshot read.
    EmulatedHtm htm;
    tufast::TuFastScheduler<EmulatedHtm>::Config cfg;
    cfg.enable_mvcc = true;
    tufast::TuFastScheduler<EmulatedHtm> tm(htm, kN, cfg);
    uint64_t sink = 0;
    out["mvcc.snapshot_txn_ns"] =
        MedianNsPerOp(kReps, kBatch, [&](uint64_t i) {
          const auto v = static_cast<tufast::VertexId>(i % kN);
          tm.RunReadOnly(0, 1, [&](auto& txn) { sink += txn.Read(v, &words[v]); });
        });
    g_probe_sink = sink;
  }
  {  // One-update Publish + Commit on the group-commit writer (fsync).
    const std::string path = opt.run_dir + "/probe.wal";
    tufast::WalWriter wal(path, tufast::WalSyncPolicy::kFsyncEachCommit);
    if (wal.ok()) {
      const tufast::EdgeUpdate up = tufast::EdgeUpdate::Insert(1, 2, 3);
      out["durability.ack_ns"] = MedianNsPerOp(kReps, 20, [&](uint64_t) {
        const tufast::WalPublishInfo info = wal.Publish(&up, 1);
        wal.Commit(info.seq);
      });
    }
    std::remove(path.c_str());
  }
  return out;
}

}  // namespace perfbench
