#ifndef TUFAST_SERVING_REQUEST_H_
#define TUFAST_SERVING_REQUEST_H_

#include <cstdint>

namespace tufast {
namespace serving {

/// Tenant tiers. Interactive traffic carries the SLO; bulk analytics is
/// the sheddable background tier.
enum class Tenant : uint8_t { kInteractive = 0, kBulk, kNumTenants };

inline constexpr int kNumTenants = static_cast<int>(Tenant::kNumTenants);

inline const char* TenantName(Tenant t) {
  switch (t) {
    case Tenant::kInteractive: return "interactive";
    case Tenant::kBulk: return "bulk";
    default: return "?";
  }
}

/// Typed request operations over the dynamic graph.
enum class Op : uint8_t {
  kPointRead = 0,   // one vertex's adjacency snapshot
  kPointWrite,      // one edge upsert
  kKHop,            // bounded breadth-first neighborhood expansion
  kScan,            // filtered range scan over a run of vertices
  kBatchMutate,     // group of edge updates applied in one transaction
  kNumOps,
};

inline constexpr int kNumOps = static_cast<int>(Op::kNumOps);

inline const char* OpName(Op op) {
  switch (op) {
    case Op::kPointRead: return "point_read";
    case Op::kPointWrite: return "point_write";
    case Op::kKHop: return "k_hop";
    case Op::kScan: return "scan";
    case Op::kBatchMutate: return "batch_mutate";
    default: return "?";
  }
}

/// One serving request. 32 bytes; flows by value through the bounded
/// request queue. `arrival_ns` is the generator's *scheduled* arrival
/// time on the open-loop clock — latency is measured from it, not from
/// enqueue, so queue backlog shows up as latency instead of being
/// silently absorbed (coordinated omission). `enqueue_ns` is stamped by
/// the engine each time the request enters the run queue (first
/// admission or re-admission from the defer queue); the admission
/// controller trips on the run-queue wait measured from it, which
/// excludes time spent parked.
struct Request {
  Tenant tenant = Tenant::kInteractive;
  Op op = Op::kPointRead;
  uint16_t aux = 0;       // k for kKHop, span width for kScan/kBatchMutate
  uint32_t key = 0;       // Zipf-drawn vertex id
  uint64_t seq = 0;       // generator sequence number (dedup / rng stream)
  uint64_t arrival_ns = 0;
  uint64_t enqueue_ns = 0;
};

static_assert(sizeof(Request) <= 32, "Request should stay queue-friendly");

/// Final disposition of an offered request. Every offered request gets
/// exactly one: conservation (offered == admitted + shed + deferred) is
/// an invariant checked by tests, stress_fuzz --serve-chaos, and
/// serve_bench itself.
enum class Disposition : uint8_t {
  kAdmitted = 0,  // executed (possibly after a deferral round-trip)
  kShed,          // rejected; never executed
  kDeferred,      // parked in the defer queue and still there at shutdown
};

}  // namespace serving
}  // namespace tufast

#endif  // TUFAST_SERVING_REQUEST_H_
