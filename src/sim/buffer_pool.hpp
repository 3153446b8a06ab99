#pragma once

#include <cstdint>
#include <vector>

namespace h2sim::sim {

/// Recycler for byte buffers (packet payloads, reassembly scratch). Buffers
/// returned through release() keep their capacity and are handed back by
/// acquire(), so a steady-state simulation stops allocating payload storage
/// once the pool has warmed up to the working set.
///
/// The pool belongs to one EventLoop (one trial): it is single-threaded by
/// construction and its hit/miss history is a pure function of the schedule,
/// which keeps same-seed trials bit-identical.
class BufferPool {
 public:
  struct Stats {
    std::uint64_t hits = 0;      // acquire served from the free list
    std::uint64_t misses = 0;    // acquire with an empty free list (caller
                                 // allocates on first use of the buffer)
    std::uint64_t recycled = 0;  // buffers accepted back
    std::uint64_t discarded = 0;  // buffers dropped because the pool was full
  };

  /// Bound on pooled buffers; beyond it release() frees instead of caching,
  /// capping the pool's memory at roughly kMaxPooled * MSS bytes.
  static constexpr std::size_t kMaxPooled = 1024;

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// An empty buffer, with recycled capacity when available. A miss returns a
  /// default-constructed vector; the caller's first assign/resize allocates.
  std::vector<std::uint8_t> acquire() {
    if (free_.empty()) {
      ++stats_.misses;
      return {};
    }
    ++stats_.hits;
    std::vector<std::uint8_t> v = std::move(free_.back());
    free_.pop_back();
    v.clear();
    return v;
  }

  /// Returns a buffer's storage to the pool. Buffers that never allocated
  /// (empty payloads, pure-ACK packets) are ignored.
  void release(std::vector<std::uint8_t>&& v) {
    if (v.capacity() == 0) return;
    if (free_.size() >= kMaxPooled) {
      ++stats_.discarded;
      return;  // v frees on scope exit
    }
    ++stats_.recycled;
    free_.push_back(std::move(v));
  }

  std::size_t size() const { return free_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  std::vector<std::vector<std::uint8_t>> free_;
  Stats stats_;
};

}  // namespace h2sim::sim
