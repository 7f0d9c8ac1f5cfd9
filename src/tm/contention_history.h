#ifndef TUFAST_TM_CONTENTION_HISTORY_H_
#define TUFAST_TM_CONTENTION_HISTORY_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/compiler.h"
#include "common/types.h"

namespace tufast {

/// Per-vertex (region-bucketed) contention history feeding the combining
/// router (DESIGN.md "Delegation"). The global ContentionMonitor
/// sees one attempt-abort probability for the whole worker; on power-law
/// graphs the abort mass concentrates on a handful of hub vertices, and a
/// global signal can only damp them by slowing everyone down (the PR-5
/// breaker). This table generalizes the monitor per region, DyAdHyTM
/// style: a fixed-size power-of-two array of EWMA abort scores, one
/// bucket per hashed vertex region, updated at the points the router
/// already classifies attempt outcomes.
///
/// Cost model: the table lives on the commit path, so updates are a
/// relaxed load + store of one 32-bit word — no locks, no CAS loops. A
/// racing update may lose a step; the score is a steering heuristic and
/// correctness never depends on it (a mis-routed operation just runs
/// competitively, exactly as without combining).
///
/// Score dynamics: per observed attempt on a bucket,
///   score <- score - (score >> kDecayShift) + (aborted ? kAbortStep : 0)
/// saturating at kScoreOne = kAbortStep << kDecayShift, so the steady
/// state for an attempt-abort fraction p is p * kScoreOne. A vertex turns
/// *hot* when its score crosses `hot_threshold * kScoreOne` and cools
/// back to cold only below half that (hysteresis), so the routing
/// decision cannot flap on every sample; ~2^kDecayShift consecutive
/// aborted attempts heat a cold bucket.
class ContentionHistory {
 public:
  struct Config {
    /// Region buckets (rounded up to a power of two). More buckets =
    /// finer vertex attribution, fewer innocent-bystander collisions.
    uint32_t buckets = 1024;
    /// EWMA attempt-abort fraction (0, 1] at which a region turns hot.
    double hot_threshold = 0.5;
  };

  explicit ContentionHistory(const Config& config)
      : mask_(RoundUpPow2(config.buckets) - 1),
        enter_score_(ClampThreshold(config.hot_threshold)),
        exit_score_(enter_score_ / 2),
        cells_(new Cell[mask_ + 1]) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(ContentionHistory);

  uint32_t num_buckets() const { return mask_ + 1; }
  uint32_t BucketOf(VertexId v) const {
    // Fibonacci hash: adjacent vertex ids land in unrelated buckets, so
    // one hub does not heat its id-neighbors' regions.
    return static_cast<uint32_t>(
               (uint64_t{v} * 0x9e3779b97f4a7c15ULL) >> 32) &
           mask_;
  }

  /// Records one attempt outcome for an operation homed at `v`. Returns
  /// true when this observation flipped the region cold -> hot (the
  /// caller counts the transition in its worker-local stats).
  bool RecordAttempt(VertexId v, bool aborted) {
    Cell& c = cells_[BucketOf(v)];
    uint32_t word = c.word.load(std::memory_order_relaxed);
    uint32_t score = word & kScoreMask;
    score -= score >> kDecayShift;
    if (aborted) {
      score += kAbortStep;
      if (score > kScoreOne) score = kScoreOne;
    }
    bool hot = (word & kHotBit) != 0;
    bool became_hot = false;
    if (!hot && score >= enter_score_) {
      hot = true;
      became_hot = true;
    } else if (hot && score < exit_score_) {
      hot = false;
    }
    c.word.store(score | (hot ? kHotBit : 0u), std::memory_order_relaxed);
    return became_hot;
  }

  /// Whether `v`'s region is currently flagged hot. One relaxed load —
  /// cheap enough to ask per batch item.
  bool IsHot(VertexId v) const { return BucketIsHot(BucketOf(v)); }
  bool BucketIsHot(uint32_t b) const {
    return (cells_[b].word.load(std::memory_order_relaxed) & kHotBit) != 0;
  }

  /// Currently-hot region count (cold full scan; stats/bench reporting).
  uint64_t HotCount() const {
    uint64_t n = 0;
    for (uint32_t b = 0; b <= mask_; ++b) {
      if ((cells_[b].word.load(std::memory_order_relaxed) & kHotBit) != 0) {
        ++n;
      }
    }
    return n;
  }

  /// Raw EWMA score in [0, 1] for tests.
  double ScoreOf(VertexId v) const {
    const uint32_t s =
        cells_[BucketOf(v)].word.load(std::memory_order_relaxed) & kScoreMask;
    return static_cast<double>(s) / static_cast<double>(kScoreOne);
  }

  static constexpr uint32_t kDecayShift = 4;  // EWMA window ~16 attempts
  static constexpr uint32_t kAbortStep = 64;
  static constexpr uint32_t kScoreOne = kAbortStep << kDecayShift;

 private:
  static constexpr uint32_t kHotBit = 0x8000'0000u;
  static constexpr uint32_t kScoreMask = ~kHotBit;

  struct Cell {
    std::atomic<uint32_t> word{0};
  };

  static uint32_t RoundUpPow2(uint32_t n) {
    if (n < 2) return 2;
    uint32_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }
  static uint32_t ClampThreshold(double t) {
    if (!(t > 0.0)) t = 0.5;  // also catches NaN
    if (t > 1.0) t = 1.0;
    const double s = t * static_cast<double>(kScoreOne);
    uint32_t v = static_cast<uint32_t>(s);
    if (v < 2) v = 2;  // keep exit_score_ = v/2 >= 1 so hysteresis exists
    return v;
  }

  const uint32_t mask_;
  const uint32_t enter_score_;
  const uint32_t exit_score_;
  std::unique_ptr<Cell[]> cells_;
};

}  // namespace tufast

#endif  // TUFAST_TM_CONTENTION_HISTORY_H_
