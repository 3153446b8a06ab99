#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

namespace h2sim::sim {

/// A FIFO byte stream in one flat allocation. Bytes enter at the tail
/// (append, or grow() to write them in place) and leave from the front
/// (consume(), which only moves a head offset). The consumed prefix is
/// reclaimed when the queue next grows: a drained queue restarts at offset
/// 0, and the live bytes move to the front once the prefix is at least
/// kCompactMin bytes and at least as long as they are.
///
/// Every layer that holds a byte stream holds it here: the TCP send queue,
/// the TLS partial record, the HTTP/2 frame decoder's input and each HTTP/2
/// stream's send queue.
///
/// Spans from view() and grow() stay valid until the next grow() or
/// append(); consume() and clear() move no bytes.
class ByteQueue {
 public:
  static constexpr std::size_t kCompactMin = 4096;

  ByteQueue() = default;
  ByteQueue(const ByteQueue&) = delete;
  ByteQueue& operator=(const ByteQueue&) = delete;
  ByteQueue(ByteQueue&&) = default;
  ByteQueue& operator=(ByteQueue&&) = default;

  /// Extends the queue by `n` bytes and returns them, uninitialized, for the
  /// caller to write.
  std::span<std::uint8_t> grow(std::size_t n) {
    const std::size_t live = tail_ - head_;
    if (live == 0) {
      head_ = tail_ = 0;
    } else if (head_ >= kCompactMin && head_ >= live) {
      std::memmove(data_.get(), data_.get() + head_, live);
      head_ = 0;
      tail_ = live;
    }
    if (tail_ + n > cap_) {
      // Reallocation moves only the live bytes, so it compacts as well.
      const std::size_t cap = std::max(live + n, 2 * cap_);
      auto fresh = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
      if (live > 0) std::memcpy(fresh.get(), data_.get() + head_, live);
      data_ = std::move(fresh);
      cap_ = cap;
      head_ = 0;
      tail_ = live;
    }
    std::uint8_t* out = data_.get() + tail_;
    tail_ += n;
    return {out, n};
  }

  void append(std::span<const std::uint8_t> bytes) {
    if (bytes.empty()) return;
    std::memcpy(grow(bytes.size()).data(), bytes.data(), bytes.size());
  }

  /// The live bytes, front first.
  std::span<const std::uint8_t> view() const {
    return {data_.get() + head_, tail_ - head_};
  }

  /// Drops `n` bytes from the front.
  void consume(std::size_t n) {
    assert(n <= size());
    head_ += n;
  }

  void clear() { head_ = tail_ = 0; }

  std::size_t size() const { return tail_ - head_; }
  bool empty() const { return head_ == tail_; }
  /// Consumed bytes still held in front of the live ones.
  std::size_t dead_prefix() const { return head_; }
  std::size_t capacity() const { return cap_; }

 private:
  std::unique_ptr<std::uint8_t[]> data_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace h2sim::sim
