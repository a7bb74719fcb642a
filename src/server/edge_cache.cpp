// EdgeCache implementation: preallocated slot pool + open-addressing index
// (linear probing with backward-shift deletion) + an intrusive LRU chain.
// Everything is index-based over flat vectors: no per-operation allocation,
// no pointer or hash-container iteration order anywhere near the results.
#include "server/edge_cache.h"

#include "util/check.h"
#include "util/rng.h"

namespace ps360::server {

namespace {

// Stateless avalanche of the key into the index table. derive_seed already
// mixes order-sensitively, so (video, segment) swaps land in distant buckets.
std::uint64_t hash_key(const SegmentKey& key) {
  return util::derive_seed(key.plan_word, key.video, key.segment);
}

// Index table size: a power of two at load factor <= 0.5, so the probe
// sequences stay short and backward-shift deletion cheap even with every
// slot resident.
constexpr std::size_t kIndexSize = 2 * EdgeCache::kMaxEntries;
static_assert((kIndexSize & (kIndexSize - 1)) == 0, "index size must be a power of two");
constexpr std::size_t kIndexMask = kIndexSize - 1;

}  // namespace

EdgeCache::EdgeCache(util::Bytes capacity) : capacity_(capacity) {
  PS360_CHECK(capacity_.value() >= 0.0);
  slots_.resize(kMaxEntries);
  free_.reserve(kMaxEntries);
  for (std::size_t i = kMaxEntries; i-- > 0;)
    free_.push_back(static_cast<std::uint32_t>(i));
  index_.assign(kIndexSize, kNil);
}

std::uint32_t EdgeCache::find_slot(const SegmentKey& key) const {
  std::size_t pos = hash_key(key) & kIndexMask;
  while (index_[pos] != kNil) {
    if (slots_[index_[pos]].key == key) return index_[pos];
    pos = (pos + 1) & kIndexMask;
  }
  return kNil;
}

void EdgeCache::index_insert(const SegmentKey& key, std::uint32_t slot) {
  std::size_t pos = hash_key(key) & kIndexMask;
  while (index_[pos] != kNil) pos = (pos + 1) & kIndexMask;
  index_[pos] = slot;
}

void EdgeCache::index_erase(const SegmentKey& key) {
  std::size_t pos = hash_key(key) & kIndexMask;
  while (index_[pos] != kNil && !(slots_[index_[pos]].key == key))
    pos = (pos + 1) & kIndexMask;
  PS360_ASSERT_MSG(index_[pos] != kNil, "erasing a key that is not indexed");
  // Backward-shift deletion: pull every displaced follower into the hole so
  // probe chains never need tombstones.
  std::size_t hole = pos;
  std::size_t i = pos;
  for (;;) {
    i = (i + 1) & kIndexMask;
    if (index_[i] == kNil) break;
    const std::size_t home = hash_key(slots_[index_[i]].key) & kIndexMask;
    if (((i - home) & kIndexMask) >= ((i - hole) & kIndexMask)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = kNil;
}

void EdgeCache::list_unlink(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.prev != kNil) slots_[s.prev].next = s.next;
  else head_ = s.next;
  if (s.next != kNil) slots_[s.next].prev = s.prev;
  else tail_ = s.prev;
  s.prev = s.next = kNil;
}

void EdgeCache::list_push_front(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kNil;
  s.next = head_;
  if (head_ != kNil) slots_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNil) tail_ = slot;
}

void EdgeCache::touch(std::uint32_t slot) {
  list_unlink(slot);
  list_push_front(slot);
}

void EdgeCache::evict_one() {
  const std::uint32_t victim = tail_;
  PS360_ASSERT_MSG(victim != kNil, "eviction requested from an empty cache");
  Slot& s = slots_[victim];
  index_erase(s.key);
  list_unlink(victim);
  stats_.resident -= util::Bytes(s.size_bytes);
  --stats_.entries;
  ++stats_.evictions;
  s.size_bytes = 0.0;
  free_.push_back(victim);
}

bool EdgeCache::lookup(const SegmentKey& key) {
  const std::uint32_t slot = find_slot(key);
  if (slot == kNil) {
    ++stats_.misses;
    return false;
  }
  touch(slot);
  ++stats_.hits;
  return true;
}

bool EdgeCache::contains(const SegmentKey& key) const {
  return find_slot(key) != kNil;
}

bool EdgeCache::admit(const SegmentKey& key, util::Bytes size) {
  PS360_CHECK(size.value() > 0.0);
  if (size > capacity_) {
    ++stats_.bypasses;
    return false;
  }
  const std::uint32_t existing = find_slot(key);
  if (existing != kNil) {
    // Two sessions raced the same origin fetch; the object is already here.
    touch(existing);
    return true;
  }
  while (stats_.resident + size > capacity_ || stats_.entries >= kMaxEntries) {
    evict_one();
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  Slot& s = slots_[slot];
  s.key = key;
  s.size_bytes = size.value();
  index_insert(key, slot);
  list_push_front(slot);
  stats_.resident += size;
  ++stats_.entries;
  ++stats_.insertions;
  return true;
}

std::size_t EdgeCache::footprint_bytes() const {
  return slots_.capacity() * sizeof(Slot) +
         free_.capacity() * sizeof(std::uint32_t) +
         index_.capacity() * sizeof(std::uint32_t);
}

}  // namespace ps360::server
