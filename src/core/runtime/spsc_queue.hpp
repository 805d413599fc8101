// Bounded single-producer/single-consumer ring buffer. Each physical
// stream between two operator threads is one of these; a full queue blocks
// the producer, giving the pipeline natural backpressure.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <thread>
#include <vector>

namespace aggspes {

template <typename T>
class SpscQueue {
 public:
  /// `capacity` is rounded up to a power of two (for mask indexing).
  explicit SpscQueue(std::size_t capacity = 1024) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    buffer_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Attempts to enqueue. On failure (queue full) `v` is left untouched —
  /// the parameter is a reference, so nothing is moved until success.
  bool try_push(T&& v) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail == buffer_.size()) return false;  // full
    buffer_[head & mask_] = std::move(v);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Blocking push: spins (with yields) until space is available.
  void push(T v) {
    while (!try_push(std::move(v))) {
      std::this_thread::yield();
    }
  }

  bool try_pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return false;  // empty
    out = std::move(buffer_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Bulk enqueue: moves up to `n` items from `src` into the queue and
  /// returns how many were taken (partial progress when the queue fills).
  /// One release store of `head_` publishes the whole block, so the
  /// consumer sees it with a single acquire instead of n.
  std::size_t push_n(T* src, std::size_t n) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t free = buffer_.size() - (head - tail);
    const std::size_t take = n < free ? n : free;
    for (std::size_t i = 0; i < take; ++i) {
      buffer_[(head + i) & mask_] = std::move(src[i]);
    }
    if (take > 0) head_.store(head + take, std::memory_order_release);
    return take;
  }

  /// Bulk dequeue: moves up to `max` items into `dst` and returns how many
  /// were taken (0 when empty). One release store of `tail_` frees the
  /// whole block for the producer.
  std::size_t pop_n(T* dst, std::size_t max) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t avail = head - tail;
    const std::size_t take = max < avail ? max : avail;
    for (std::size_t i = 0; i < take; ++i) {
      dst[i] = std::move(buffer_[(tail + i) & mask_]);
    }
    if (take > 0) tail_.store(tail + take, std::memory_order_release);
    return take;
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  std::size_t size() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return buffer_.size(); }

 private:
  std::vector<T> buffer_;
  std::size_t mask_{0};
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace aggspes
