#include "balance/plan.hpp"

#include <algorithm>
#include <cmath>

#include "mutil/config.hpp"
#include "mutil/error.hpp"
#include "mutil/hash.hpp"

namespace balance {

Options Options::from(const mutil::Config& cfg) {
  Options out;
  out.enabled = cfg.get_bool("mimir.balance", out.enabled);
  out.sketch_capacity = static_cast<std::size_t>(
      cfg.get_int("mimir.balance.sketch_capacity",
                  static_cast<std::int64_t>(out.sketch_capacity)));
  out.reservoir_capacity = static_cast<std::size_t>(
      cfg.get_int("mimir.balance.reservoir_capacity",
                  static_cast<std::int64_t>(out.reservoir_capacity)));
  out.allow_split = cfg.get_bool("mimir.balance.split", out.allow_split);
  out.max_splits = static_cast<std::size_t>(
      cfg.get_int("mimir.balance.max_splits",
                  static_cast<std::int64_t>(out.max_splits)));
  out.split_threshold =
      cfg.get_double("mimir.balance.split_threshold", out.split_threshold);
  if (out.sketch_capacity == 0) {
    throw mutil::ConfigError("mimir.balance.sketch_capacity must be >= 1");
  }
  if (out.max_splits == 0) {
    throw mutil::ConfigError("mimir.balance.max_splits must be >= 1");
  }
  if (out.split_threshold <= 0.0) {
    throw mutil::ConfigError("mimir.balance.split_threshold must be > 0");
  }
  return out;
}

Plan::Plan(const Plan& other)
    : entries_(other.entries_), split_keys_(other.split_keys_) {
  reindex();
}

Plan& Plan::operator=(const Plan& other) {
  if (this != &other) {
    entries_ = other.entries_;
    split_keys_ = other.split_keys_;
    reindex();
  }
  return *this;
}

void Plan::insert(std::string key, PlanEntry entry) {
  if (entry.ranks.empty()) {
    throw mutil::UsageError("balance: plan entry without destinations");
  }
  if (entry.ranks.size() > 1) ++split_keys_;
  const auto [it, inserted] =
      entries_.insert_or_assign(std::move(key), std::move(entry));
  if (!inserted) return;  // the node, and so its index entry, stays
  if (2 * entries_.size() > index_.size()) {
    reindex();
  } else {
    index_put(*it);
  }
}

void Plan::index_put(const Node& node) {
  const std::uint64_t hash = mutil::hash_bytes(node.first);
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash & mask;
  while (index_[i].node != nullptr) i = (i + 1) & mask;
  index_[i] = IndexEntry{hash, &node};
}

/// Rebuild the index over entries_, at most half full.
void Plan::reindex() {
  std::size_t size = 16;
  while (size < 2 * entries_.size()) size *= 2;
  index_.assign(size, IndexEntry{});
  for (const Node& node : entries_) index_put(node);
}

std::uint64_t Plan::fingerprint() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& [key, entry] : entries_) {
    h = mutil::mix64(h ^ mutil::hash_bytes(key));
    for (const int r : entry.ranks) {
      h = mutil::mix64(h ^ static_cast<std::uint64_t>(
                               static_cast<std::uint32_t>(r)));
    }
  }
  return h;
}

Plan build_plan(const KeyFreqSketch& merged, int nranks,
                const Options& opts) {
  Plan plan;
  if (nranks <= 1 || merged.total_bytes() == 0) return plan;
  const auto p = static_cast<std::size_t>(nranks);

  // Tail load per rank: exact per-destination totals minus the heavy
  // bytes hashed there. The hash fallback keeps routing these bytes, so
  // they are the fixed floor the heavy keys are packed on top of.
  std::vector<double> load(p, 0.0);
  for (std::size_t d = 0; d < p && d < merged.dest_bytes().size(); ++d) {
    load[d] = static_cast<double>(merged.dest_bytes()[d]);
  }
  const auto heavy = merged.heavy();
  for (const auto& [key, entry] : heavy) {
    const auto d = static_cast<std::size_t>(
        mutil::hash_bytes(key) % static_cast<std::uint64_t>(nranks));
    load[d] -= static_cast<double>(entry.bytes);
    if (load[d] < 0.0) load[d] = 0.0;
  }

  // Largest keys first; ties by key order. Deterministic given the
  // deterministic merged sketch.
  std::vector<std::pair<std::string_view, std::uint64_t>> keys;
  keys.reserve(heavy.size());
  for (const auto& [key, entry] : heavy) {
    keys.emplace_back(key, entry.bytes);
  }
  std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });

  const double target =
      static_cast<double>(merged.total_bytes()) / static_cast<double>(p);

  std::vector<char> taken(p, 0);  // per-key distinct-rank mask
  for (const auto& [key, bytes] : keys) {
    const double w = static_cast<double>(bytes);
    std::size_t shares = 1;
    if (opts.allow_split && target > 0.0 &&
        w > opts.split_threshold * target) {
      shares = static_cast<std::size_t>(std::ceil(w / target));
      shares = std::min({shares, opts.max_splits, p});
      if (shares == 0) shares = 1;
    }
    std::fill(taken.begin(), taken.end(), 0);
    PlanEntry entry;
    entry.ranks.reserve(shares);
    for (std::size_t s = 0; s < shares; ++s) {
      std::size_t best = p;
      for (std::size_t r = 0; r < p; ++r) {
        if (taken[r]) continue;
        if (best == p || load[r] < load[best]) best = r;
      }
      taken[best] = 1;
      load[best] += w / static_cast<double>(shares);
      entry.ranks.push_back(static_cast<int>(best));
    }
    const int fallback = static_cast<int>(
        mutil::hash_bytes(key) % static_cast<std::uint64_t>(nranks));
    if (entry.ranks.size() == 1 && entry.ranks[0] == fallback) {
      continue;  // routing unchanged; skip the per-emit lookup
    }
    plan.insert(std::string(key), std::move(entry));
  }
  return plan;
}

}  // namespace balance
