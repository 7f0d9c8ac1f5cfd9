#ifndef TUFAST_SHARDING_MAILBOX_H_
#define TUFAST_SHARDING_MAILBOX_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/compiler.h"

namespace tufast {

/// One atomic active message: `frame` points at the sender's in-flight
/// batch descriptor (type-erased — the scheduler that enqueued it knows
/// the concrete type) and `item` is the batch-item index to execute.
/// The sender guarantees the frame outlives the message (it blocks in
/// its flush phase until every message it enqueued has been executed).
struct ActiveMessage {
  const void* frame = nullptr;
  uint64_t item = 0;
};

/// Bounded multi-producer ring buffer of active messages (the classic
/// sequence-number bounded queue). Producers are the delegating
/// senders; consumption is serialized by the cell's drain lock
/// (tm/delegation.h), but the ring itself is safe for concurrent
/// dequeuers too.
///
/// TryEnqueue is lossless-by-contract: it fails (returns false) when the
/// ring is full and the *caller* must then run the item locally — a
/// message is never dropped once accepted. Capacity is rounded up to a
/// power of two.
template <typename T>
class BoundedMailbox {
 public:
  explicit BoundedMailbox(uint32_t capacity) {
    uint32_t cap = 4;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (uint32_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }
  TUFAST_DISALLOW_COPY_AND_MOVE(BoundedMailbox);

  uint32_t capacity() const { return mask_ + 1; }

  bool TryEnqueue(const T& value) {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    while (true) {
      Cell& cell = cells_[pos & mask_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t diff = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = value;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // Full: a lap behind the consumers.
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  bool TryDequeue(T* out) {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    while (true) {
      Cell& cell = cells_[pos & mask_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t diff =
          static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          *out = cell.value;
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // Empty (or the producer is mid-publish).
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  bool Empty() const {
    return head_.load(std::memory_order_acquire) >=
           tail_.load(std::memory_order_acquire);
  }

  /// Racy depth estimate for telemetry only.
  uint64_t ApproxDepth() const {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    return tail > head ? tail - head : 0;
  }

 private:
  struct Cell {
    std::atomic<uint64_t> seq{0};
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  uint32_t mask_ = 0;
  alignas(kCacheLineBytes) std::atomic<uint64_t> tail_{0};
  alignas(kCacheLineBytes) std::atomic<uint64_t> head_{0};
};

}  // namespace tufast

#endif  // TUFAST_SHARDING_MAILBOX_H_
