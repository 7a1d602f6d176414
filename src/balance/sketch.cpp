#include "balance/sketch.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "mutil/error.hpp"

namespace balance {

namespace {

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_u64(std::span<const std::byte> blob, std::size_t& pos) {
  if (blob.size() - pos < 8) {
    throw mutil::UsageError("balance: truncated sketch blob");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(blob[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos += 8;
  return v;
}

/// Reject a decoded `count` of records of at least `record_bytes` each
/// that cannot fit in the bytes left, before anything is sized from it.
void require_room(std::span<const std::byte> blob, std::size_t pos,
                  std::uint64_t count, std::uint64_t record_bytes) {
  if (count > (blob.size() - pos) / record_bytes) {
    throw mutil::UsageError("balance: truncated sketch blob");
  }
}

}  // namespace

KeyFreqSketch::KeyFreqSketch(std::size_t capacity,
                             std::size_t reservoir_capacity, int ndests)
    : capacity_(capacity),
      reservoir_capacity_(reservoir_capacity),
      dest_bytes_(static_cast<std::size_t>(ndests < 0 ? 0 : ndests), 0) {}

void KeyFreqSketch::offer(std::string_view key, std::uint64_t hash,
                          std::uint64_t bytes, int dest) {
  total_bytes_ += bytes;
  ++offered_;
  if (dest >= 0 && static_cast<std::size_t>(dest) < dest_bytes_.size()) {
    dest_bytes_[static_cast<std::size_t>(dest)] += bytes;
  }
  if (reservoir_capacity_ > 0) reservoir_offer(hash);
  if (capacity_ == 0) return;
  if (const std::uint32_t s = find(hash, key); s != kNoSlot) {
    slots_[s].entry.bytes += bytes;
    sift_down(slots_[s].heap_pos);
    return;
  }
  if (slots_.size() < capacity_) {
    add_slot(hash, key, HeavyEntry{bytes, 0});
    sift_up(heap_.size() - 1);
    return;
  }
  // SpaceSaving eviction. The heap root is the minimum-bytes entry with
  // ties broken by the lexicographically smallest key — the entry a
  // scan of the table in key order would pick — so eviction stays a
  // deterministic function of the stream. The victim's slot (and its
  // key storage) is reused in place.
  const std::uint32_t victim = heap_.front();
  Slot& slot = slots_[victim];
  const std::uint64_t floor = slot.entry.bytes;
  index_erase(slot.hash, victim);
  slot.hash = hash;
  slot.key.assign(key);
  slot.entry = HeavyEntry{floor + bytes, floor};
  index_insert(hash, victim);
  sift_down(0);
}

std::uint32_t KeyFreqSketch::find(std::uint64_t hash,
                                  std::string_view key) const {
  if (index_.empty()) return kNoSlot;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexEntry& e = index_[i];
    if (e.slot == kNoSlot) return kNoSlot;
    if (e.hash == hash && slots_[e.slot].key == key) return e.slot;
  }
}

/// Append a slot at the heap's tail; the caller restores heap order.
void KeyFreqSketch::add_slot(std::uint64_t hash, std::string_view key,
                             HeavyEntry entry) {
  if (slots_.size() >= kNoSlot) {
    throw mutil::UsageError("balance: heavy-hitter table too large");
  }
  // Keep the index at most half full so probe runs stay short.
  if (2 * (slots_.size() + 1) > index_.size()) {
    index_.assign(std::max<std::size_t>(16, 2 * index_.size()),
                  IndexEntry{});
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      index_insert(slots_[s].hash, static_cast<std::uint32_t>(s));
    }
  }
  const auto id = static_cast<std::uint32_t>(slots_.size());
  Slot& slot = slots_.emplace_back();
  slot.hash = hash;
  slot.entry = entry;
  slot.key.assign(key);
  slot.heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(id);
  index_insert(hash, id);
}

void KeyFreqSketch::index_insert(std::uint64_t hash, std::uint32_t slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash & mask;
  while (index_[i].slot != kNoSlot) i = (i + 1) & mask;
  index_[i] = IndexEntry{hash, slot};
}

void KeyFreqSketch::index_erase(std::uint64_t hash, std::uint32_t slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = hash & mask;
  while (index_[hole].slot != slot) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole when its home position lies at or before the hole, so no
  // tombstones accumulate.
  for (std::size_t j = (hole + 1) & mask; index_[j].slot != kNoSlot;
       j = (j + 1) & mask) {
    const std::size_t home = index_[j].hash & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = IndexEntry{};
}

bool KeyFreqSketch::heap_before(std::uint32_t a, std::uint32_t b) const {
  const HeavyEntry& x = slots_[a].entry;
  const HeavyEntry& y = slots_[b].entry;
  if (x.bytes != y.bytes) return x.bytes < y.bytes;
  return slots_[a].key < slots_[b].key;
}

void KeyFreqSketch::heap_place(std::size_t pos, std::uint32_t slot) {
  heap_[pos] = slot;
  slots_[slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void KeyFreqSketch::sift_up(std::size_t pos) {
  const std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!heap_before(slot, heap_[parent])) break;
    heap_place(pos, heap_[parent]);
    pos = parent;
  }
  heap_place(pos, slot);
}

void KeyFreqSketch::sift_down(std::size_t pos) {
  const std::uint32_t slot = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!heap_before(heap_[child], slot)) break;
    heap_place(pos, heap_[child]);
    pos = child;
  }
  heap_place(pos, slot);
}

void KeyFreqSketch::rebuild_heap() {
  heap_.resize(slots_.size());
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    heap_place(i, static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

void KeyFreqSketch::reservoir_offer(std::uint64_t hash) {
  // A full reservoir keeps only hashes below its largest: any other
  // hash is already present or would be trimmed straight back out.
  const bool full = reservoir_.size() >= reservoir_capacity_;
  if (full && hash >= reservoir_.back()) return;
  const auto it = std::lower_bound(reservoir_.begin(), reservoir_.end(), hash);
  if (it != reservoir_.end() && *it == hash) return;
  const auto at = it - reservoir_.begin();
  if (full) reservoir_.pop_back();
  reservoir_.insert(reservoir_.begin() + at, hash);
}

std::vector<std::uint32_t> KeyFreqSketch::slots_by_key() const {
  std::vector<std::uint32_t> order(slots_.size());
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return slots_[a].key < slots_[b].key;
            });
  return order;
}

std::map<std::string, HeavyEntry, std::less<>> KeyFreqSketch::heavy() const {
  std::map<std::string, HeavyEntry, std::less<>> out;
  for (const Slot& slot : slots_) out.emplace(slot.key, slot.entry);
  return out;
}

std::uint64_t KeyFreqSketch::distinct_estimate() const {
  if (reservoir_.empty()) return 0;
  if (reservoir_.size() < reservoir_capacity_) {
    return reservoir_.size();
  }
  // Bottom-k estimator: k-th smallest of d uniform hashes sits near
  // k/d of the hash space.
  const double kth = static_cast<double>(reservoir_.back());
  if (kth <= 0.0) return reservoir_.size();
  const double space =
      static_cast<double>(std::numeric_limits<std::uint64_t>::max());
  const double estimate =
      static_cast<double>(reservoir_.size() - 1) * (space / kth);
  return estimate < static_cast<double>(reservoir_.size())
             ? reservoir_.size()
             : static_cast<std::uint64_t>(estimate);
}

std::vector<std::byte> KeyFreqSketch::serialize() const {
  std::size_t size = 8 * (7 + dest_bytes_.size() + reservoir_.size());
  for (const Slot& slot : slots_) size += 24 + slot.key.size();
  std::vector<std::byte> out;
  out.reserve(size);
  put_u64(out, capacity_);
  put_u64(out, reservoir_capacity_);
  put_u64(out, dest_bytes_.size());
  put_u64(out, total_bytes_);
  put_u64(out, offered_);
  for (const std::uint64_t b : dest_bytes_) put_u64(out, b);
  put_u64(out, slots_.size());
  for (const std::uint32_t s : slots_by_key()) {
    const Slot& slot = slots_[s];
    put_u64(out, slot.key.size());
    const auto* bytes = reinterpret_cast<const std::byte*>(slot.key.data());
    out.insert(out.end(), bytes, bytes + slot.key.size());
    put_u64(out, slot.entry.bytes);
    put_u64(out, slot.entry.error);
  }
  put_u64(out, reservoir_.size());
  for (const std::uint64_t h : reservoir_) put_u64(out, h);
  return out;
}

KeyFreqSketch KeyFreqSketch::deserialize(std::span<const std::byte> blob) {
  std::size_t pos = 0;
  KeyFreqSketch out;
  out.capacity_ = static_cast<std::size_t>(get_u64(blob, pos));
  out.reservoir_capacity_ = static_cast<std::size_t>(get_u64(blob, pos));
  const std::uint64_t ndests = get_u64(blob, pos);
  out.total_bytes_ = get_u64(blob, pos);
  out.offered_ = get_u64(blob, pos);
  require_room(blob, pos, ndests, 8);
  out.dest_bytes_.resize(static_cast<std::size_t>(ndests));
  for (auto& b : out.dest_bytes_) b = get_u64(blob, pos);
  const std::uint64_t nheavy = get_u64(blob, pos);
  require_room(blob, pos, nheavy, 24);  // length, bytes, error
  for (std::uint64_t i = 0; i < nheavy; ++i) {
    const std::uint64_t len = get_u64(blob, pos);
    if (len > blob.size() - pos) {
      throw mutil::UsageError("balance: truncated sketch key");
    }
    const std::string_view key(
        reinterpret_cast<const char*>(blob.data() + pos),
        static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    HeavyEntry entry;
    entry.bytes = get_u64(blob, pos);
    entry.error = get_u64(blob, pos);
    // A repeated key keeps its first entry.
    const std::uint64_t hash = mutil::hash_bytes(key);
    if (out.find(hash, key) == kNoSlot) out.add_slot(hash, key, entry);
  }
  out.rebuild_heap();
  const std::uint64_t nres = get_u64(blob, pos);
  require_room(blob, pos, nres, 8);
  out.reservoir_.resize(static_cast<std::size_t>(nres));
  for (auto& h : out.reservoir_) h = get_u64(blob, pos);
  std::sort(out.reservoir_.begin(), out.reservoir_.end());
  out.reservoir_.erase(
      std::unique(out.reservoir_.begin(), out.reservoir_.end()),
      out.reservoir_.end());
  if (pos != blob.size()) {
    throw mutil::UsageError("balance: trailing bytes in sketch blob");
  }
  return out;
}

void KeyFreqSketch::merge(const KeyFreqSketch& other) {
  if (&other == this) {
    merge(KeyFreqSketch(other));
    return;
  }
  if (dest_bytes_.size() != other.dest_bytes_.size()) {
    throw mutil::UsageError(
        "balance: merging sketches with different destination counts");
  }
  total_bytes_ += other.total_bytes_;
  offered_ += other.offered_;
  for (std::size_t d = 0; d < dest_bytes_.size(); ++d) {
    dest_bytes_[d] += other.dest_bytes_[d];
  }
  for (const Slot& theirs : other.slots_) {
    const std::uint32_t s = find(theirs.hash, theirs.key);
    if (s == kNoSlot) {
      add_slot(theirs.hash, theirs.key, theirs.entry);
      continue;
    }
    slots_[s].entry.bytes += theirs.entry.bytes;
    slots_[s].entry.error += theirs.entry.error;
  }
  rebuild_heap();
  const auto mid = static_cast<std::ptrdiff_t>(reservoir_.size());
  reservoir_.insert(reservoir_.end(), other.reservoir_.begin(),
                    other.reservoir_.end());
  std::inplace_merge(reservoir_.begin(), reservoir_.begin() + mid,
                     reservoir_.end());
  reservoir_.erase(std::unique(reservoir_.begin(), reservoir_.end()),
                   reservoir_.end());
  if (reservoir_capacity_ > 0 && reservoir_.size() > reservoir_capacity_) {
    reservoir_.resize(reservoir_capacity_);
  }
}

}  // namespace balance
