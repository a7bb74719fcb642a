// Edge cache of encoded Ptile segments for the server/CDN layer.
//
// Keyed by (video id, segment index, plan word) — the plan word packs the
// tile-quality / frame-rate decision the MPC chose, so two sessions share a
// cached object only when they requested the *same encoding* of the same
// segment, exactly like a real CDN keyed on the encoded-representation URL.
// Byte-capacity accounting with least-recently-used eviction; a fixed slot
// pool of kMaxEntries objects bounds residency as well.
//
// Zero hot-path allocation after construction: the slot pool, the
// open-addressing index (linear probing, backward-shift deletion), the free
// list, and the intrusive LRU chain are all sized up front; lookup/admit
// never touch the heap. footprint_bytes() exposes the container footprint so
// a regression test can pin it flat across a workload. Determinism: plain
// vectors and index order only — no unordered containers, no pointers as
// keys, no wall clock — so fleet runs stay bit-identical for any
// PS360_THREADS (one cache per run_fleet call, touched by its coordinator
// alone).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/units.h"

namespace ps360::server {

struct SegmentKey {
  std::uint32_t video = 0;
  std::uint32_t segment = 0;
  std::uint64_t plan_word = 0;  // packed tile-quality/frame-rate plan

  friend constexpr bool operator==(const SegmentKey&,
                                   const SegmentKey&) = default;
};

struct EdgeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t bypasses = 0;  // objects larger than the whole cache
  std::size_t entries = 0;     // resident objects
  util::Bytes resident{0.0};   // resident bytes

  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

class EdgeCache {
 public:
  // Slot-pool size: at most this many objects are resident at once, however
  // much byte capacity is left.
  static constexpr std::size_t kMaxEntries = 4096;

  // `capacity` (>= 0) is the total byte budget; objects larger bypass.
  explicit EdgeCache(util::Bytes capacity);

  // One request: counts a hit (and refreshes its recency) or a miss. The
  // caller fetches from origin on a miss and then offers the object back via
  // admit().
  bool lookup(const SegmentKey& key);

  // Side-effect-free membership probe (tests / diagnostics).
  bool contains(const SegmentKey& key) const;

  // Offer an object after a miss fetch. Evicts least-recently-used objects
  // until it fits; objects larger than the whole cache are bypassed (never
  // admitted). An already-resident key (two sessions raced the same origin
  // fetch) is refreshed, not duplicated. Returns whether the object is now
  // resident.
  bool admit(const SegmentKey& key, util::Bytes size);

  const EdgeCacheStats& stats() const { return stats_; }
  util::Bytes capacity() const { return capacity_; }

  // Total heap footprint of every container the cache owns. Constant after
  // construction — the zero-hot-path-allocation regression test pins it.
  std::size_t footprint_bytes() const;

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    SegmentKey key;
    double size_bytes = 0.0;
    std::uint32_t prev = kNil;  // LRU chain (head = MRU)
    std::uint32_t next = kNil;
  };

  std::uint32_t find_slot(const SegmentKey& key) const;
  void index_insert(const SegmentKey& key, std::uint32_t slot);
  void index_erase(const SegmentKey& key);
  void touch(std::uint32_t slot);
  void list_unlink(std::uint32_t slot);
  void list_push_front(std::uint32_t slot);
  void evict_one();

  util::Bytes capacity_;
  EdgeCacheStats stats_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;   // reusable slot ids (stack)
  std::vector<std::uint32_t> index_;  // open-addressing table of slot ids
  std::uint32_t head_ = kNil;  // MRU
  std::uint32_t tail_ = kNil;  // LRU
};

}  // namespace ps360::server
