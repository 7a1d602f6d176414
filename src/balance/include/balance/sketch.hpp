// Streaming key-frequency sampler for skew-aware partitioning.
//
// Each rank feeds the sketch from its map emissions during the first
// partition-buffer fill (before the first exchange round). Two bounded
// structures capture the distribution:
//
//   * a SpaceSaving heavy-hitter table over encoded key bytes: at most
//     `capacity` keys with (bytes, error) estimates. The classic
//     guarantee holds per rank: a key whose true byte volume exceeds
//     total/capacity is present, and estimate - error <= true <=
//     estimate. Eviction picks the minimum-bytes entry, ties broken by
//     the lexicographically smallest key, so the table contents are a
//     deterministic function of the offered stream.
//   * a bottom-k min-hash reservoir over distinct keys, giving a cheap
//     distinct-key estimate for the tail without storing tail keys.
//
// The sampler runs inline on the emit path, so both structures are
// flat: the heavy table is a slot array with an open-addressing index
// on the key hash and an indexed binary min-heap ordered by (bytes,
// key) whose root is the eviction victim; the reservoir is a sorted
// vector that rejects a hash at or above its k-th smallest at once.
// An offer costs O(1) expected plus O(log capacity) heap work and,
// once the tables are full, allocates nothing (an evicted slot's key
// storage is reused). The key-ordered view is built only on demand —
// serialize() and heavy().
//
// Per-destination byte totals (under the fallback hash routing) are
// tracked exactly; the planner derives the un-plannable tail load of a
// rank as total[d] minus the heavy bytes hashed to d.
//
// Sketches serialize to a deterministic, byte-ordered format (sorted
// keys, fixed-width little-endian integers) so the allgatherv'd blobs —
// and therefore the merged global sketch and the plan built from it —
// are bit-identical across runs and independent of host scheduling.
//
// Like the stats registry, sketch storage is bounded, rank-private and
// untracked: sampling never advances a simulated clock and never
// charges a memory tracker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mutil/hash.hpp"

namespace balance {

/// SpaceSaving estimate for one heavy key (byte volume, not counts:
/// balancing cares about shuffle bytes, and KVs vary in size).
struct HeavyEntry {
  std::uint64_t bytes = 0;  ///< estimated encoded bytes (overestimate)
  std::uint64_t error = 0;  ///< overestimation bound (0 = exact)
};

class KeyFreqSketch {
 public:
  KeyFreqSketch() = default;
  /// `ndests` is the rank count of the fallback routing (sizes the
  /// per-destination totals).
  KeyFreqSketch(std::size_t capacity, std::size_t reservoir_capacity,
                int ndests);

  /// Record one emitted KV: `bytes` encoded bytes routed to fallback
  /// destination `dest`.
  void offer(std::string_view key, std::uint64_t bytes, int dest) {
    offer(key, mutil::hash_bytes(key), bytes, dest);
  }
  /// As above, with the caller's `hash` == mutil::hash_bytes(key), so
  /// the emit path hashes each key once for routing, sketch and plan.
  void offer(std::string_view key, std::uint64_t hash, std::uint64_t bytes,
             int dest);

  /// The heavy-hitter table in key order (a copy, built per call).
  std::map<std::string, HeavyEntry, std::less<>> heavy() const;
  std::size_t heavy_size() const noexcept { return slots_.size(); }
  /// Exact bytes offered toward each fallback destination.
  const std::vector<std::uint64_t>& dest_bytes() const noexcept {
    return dest_bytes_;
  }
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  std::uint64_t offered_kvs() const noexcept { return offered_; }
  std::size_t capacity() const noexcept { return capacity_; }
  int ndests() const noexcept {
    return static_cast<int>(dest_bytes_.size());
  }

  /// Estimated distinct keys (bottom-k min-hash; exact while fewer than
  /// `reservoir_capacity` distinct hashes were seen).
  std::uint64_t distinct_estimate() const;

  /// Deterministic byte serialization (sorted keys, little-endian).
  std::vector<std::byte> serialize() const;
  /// Inverse of serialize(); throws mutil::UsageError on a malformed
  /// blob (truncation, or a count or key length beyond the bytes left).
  static KeyFreqSketch deserialize(std::span<const std::byte> blob);

  /// Fold `other` into this sketch: per-destination totals and matching
  /// heavy entries are summed, the reservoirs are unioned (trimmed back
  /// to capacity). The merged heavy table deliberately keeps the union
  /// of keys (up to ranks x capacity entries) — the planner wants the
  /// complete global candidate set, and the union is still tiny.
  void merge(const KeyFreqSketch& other);

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffU;

  struct Slot {
    std::uint64_t hash = 0;
    HeavyEntry entry;
    std::string key;
    std::uint32_t heap_pos = 0;  ///< position of this slot in heap_
  };
  struct IndexEntry {
    std::uint64_t hash = 0;
    std::uint32_t slot = kNoSlot;  ///< kNoSlot = empty
  };

  std::uint32_t find(std::uint64_t hash, std::string_view key) const;
  void add_slot(std::uint64_t hash, std::string_view key, HeavyEntry entry);
  void index_insert(std::uint64_t hash, std::uint32_t slot);
  void index_erase(std::uint64_t hash, std::uint32_t slot);
  bool heap_before(std::uint32_t a, std::uint32_t b) const;
  void heap_place(std::size_t pos, std::uint32_t slot);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void rebuild_heap();
  void reservoir_offer(std::uint64_t hash);
  std::vector<std::uint32_t> slots_by_key() const;

  std::size_t capacity_ = 0;
  std::size_t reservoir_capacity_ = 0;
  std::vector<Slot> slots_;        ///< heavy table, unordered
  std::vector<IndexEntry> index_;  ///< linear probing; size 0 or 2^k
  std::vector<std::uint32_t> heap_;  ///< slot ids, min-heap on (bytes, key)
  std::vector<std::uint64_t> dest_bytes_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t offered_ = 0;
  std::vector<std::uint64_t> reservoir_;  ///< k smallest key hashes, ascending
};

}  // namespace balance
