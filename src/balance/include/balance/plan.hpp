// Partition planner: merged key-frequency sketch -> balanced assignment.
//
// The planner sees the globally merged sketch (identical on every rank
// after the allgatherv) and produces a Plan mapping each heavy key to
// one or more shuffle destinations:
//
//   * tail load per rank is seeded from the exact per-destination byte
//     totals minus the heavy bytes hashed there — the un-plannable
//     bytes the hash fallback will keep routing to that rank;
//   * heavy keys are bin-packed greedily, largest first (ties broken by
//     key order), each onto the currently least-loaded rank (ties
//     broken by lowest rank id);
//   * a key whose estimated bytes exceed split_threshold x the per-rank
//     target is split across up to max_splits distinct ranks; senders
//     spread their emissions round-robin over the shares, and the
//     framework's merge pass re-homes the combined shares after the
//     map (safe for any reduce, profitable for associative ones);
//   * an unsplit key that lands on its own hash destination is dropped
//     from the plan — routing would not change, so the lookup is waste.
//
// Lookups (per emit after planning, per intermediate KV in the merge
// pass) go through an open-addressing index on the key hash, so a tail
// key — the common case — costs one hash compare, not a map walk.
//
// The algorithm consumes only the merged sketch, the rank count, and
// the options — all identical across ranks and runs — so every rank
// computes the same Plan locally with no further communication, and
// plans are bit-identical across repeated runs (test-enforced).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "balance/sketch.hpp"
#include "mutil/hash.hpp"

namespace mutil {
class Config;
}

namespace balance {

/// Balance knobs ("mimir.balance" / "mimir.balance.*" config keys).
struct Options {
  bool enabled = false;           ///< mimir.balance
  std::size_t sketch_capacity = 64;     ///< heavy-hitter table entries
  std::size_t reservoir_capacity = 256; ///< tail distinct-estimate size
  bool allow_split = true;        ///< mimir.balance.split
  std::size_t max_splits = 4;     ///< shares per split key
  /// Split a key when its bytes exceed this multiple of the per-rank
  /// byte target.
  double split_threshold = 1.25;

  /// Parse mimir.balance and mimir.balance.{sketch_capacity,
  /// reservoir_capacity, split, max_splits, split_threshold}.
  static Options from(const mutil::Config& cfg);
};

/// Shuffle destinations for one planned key. `ranks` is never empty;
/// size 1 = the key was moved, size > 1 = split across shares.
struct PlanEntry {
  std::vector<int> ranks;
};

/// Deterministic key -> destination override; identical on every rank.
class Plan {
 public:
  Plan() = default;
  // The index points into entries_' nodes: a copy re-points it, a move
  // carries the nodes along with it.
  Plan(const Plan& other);
  Plan& operator=(const Plan& other);
  Plan(Plan&&) = default;
  Plan& operator=(Plan&&) = default;

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t split_keys() const noexcept { return split_keys_; }

  bool planned(std::string_view key) const {
    return planned(key, mutil::hash_bytes(key));
  }
  /// As above, with the caller's `hash` == mutil::hash_bytes(key).
  bool planned(std::string_view key, std::uint64_t hash) const {
    return find(key, hash) != nullptr;
  }

  /// Destination for `key` emitted by rank `sender`: the fallback for
  /// tail keys, otherwise one of the key's shares (senders spread
  /// round-robin so split shares fill evenly).
  int route(std::string_view key, int fallback, int sender) const {
    return route(key, mutil::hash_bytes(key), fallback, sender);
  }
  /// As above, with the caller's `hash` == mutil::hash_bytes(key).
  int route(std::string_view key, std::uint64_t hash, int fallback,
            int sender) const {
    const PlanEntry* entry = find(key, hash);
    if (entry == nullptr) return fallback;
    return entry->ranks[static_cast<std::size_t>(sender) %
                        entry->ranks.size()];
  }

  const std::map<std::string, PlanEntry, std::less<>>& entries()
      const noexcept {
    return entries_;
  }

  void insert(std::string key, PlanEntry entry);

  /// Chained hash over the sorted entries; equal plans hash equal
  /// (the determinism tests compare fingerprints across runs).
  std::uint64_t fingerprint() const;

 private:
  using Node = std::map<std::string, PlanEntry, std::less<>>::value_type;
  struct IndexEntry {
    std::uint64_t hash = 0;
    const Node* node = nullptr;  ///< nullptr = empty
  };

  const PlanEntry* find(std::string_view key, std::uint64_t hash) const {
    if (index_.empty()) return nullptr;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const IndexEntry& e = index_[i];
      if (e.node == nullptr) return nullptr;
      if (e.hash == hash && e.node->first == key) return &e.node->second;
    }
  }
  void index_put(const Node& node);
  void reindex();

  std::map<std::string, PlanEntry, std::less<>> entries_;
  std::vector<IndexEntry> index_;  ///< linear probing; size 0 or 2^k
  std::size_t split_keys_ = 0;
};

/// Build the balanced assignment from the merged global sketch.
/// Deterministic in (merged, nranks, opts); every rank calls this on
/// identical inputs and obtains the identical plan.
Plan build_plan(const KeyFreqSketch& merged, int nranks,
                const Options& opts);

}  // namespace balance
