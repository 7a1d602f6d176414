#include "simmpi/comm.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "check/checker.hpp"
#include "check/race.hpp"
#include "mutil/hash.hpp"
#include "shared_state.hpp"
#include "stats/registry.hpp"

namespace simmpi {

using check::CollectiveFingerprint;
using check::CollectiveOp;
using detail::NbOp;
using detail::SharedState;
using detail::Slot;

namespace {

void check_vector_sizes(const SharedState& s, std::size_t counts,
                        std::size_t displs, const char* what) {
  const auto p = static_cast<std::size_t>(s.nranks);
  if (counts != p || displs != p) {
    throw mutil::CommError(std::string("simmpi: ") + what +
                           ": counts/displs must have one entry per rank");
  }
}

template <typename T>
T reduce_op(T a, T b, Op op) {
  switch (op) {
    case Op::kSum: return static_cast<T>(a + b);
    case Op::kMax: return std::max(a, b);
    case Op::kMin: return std::min(a, b);
    case Op::kLor: return static_cast<T>((a != T{}) || (b != T{}));
    case Op::kLand: return static_cast<T>((a != T{}) && (b != T{}));
  }
  return a;
}

/// Rendezvous cost of a collective that moves no payload: latency only.
constexpr auto kLatencyOnly = [] { return 0.0; };

/// Rendezvous cost tag for split's group handoff: no clock charge, no
/// recorded wait, not counted as a collective.
struct Uncharged {};

/// The fingerprint op codes of the typed one-word collectives.
template <class T>
struct WordOps;
template <>
struct WordOps<std::int64_t> {
  static constexpr CollectiveOp kAllreduce = CollectiveOp::kAllreduceI64;
  static constexpr CollectiveOp kAllgather = CollectiveOp::kAllgatherI64;
};
template <>
struct WordOps<std::uint64_t> {
  static constexpr CollectiveOp kAllreduce = CollectiveOp::kAllreduceU64;
  static constexpr CollectiveOp kAllgather = CollectiveOp::kAllgatherU64;
};
template <>
struct WordOps<double> {
  static constexpr CollectiveOp kAllreduce = CollectiveOp::kAllreduceF64;
};

/// Report `released - entry` simulated seconds of rendezvous blocking
/// to the rank's stats registry, if any. Accounting-only: reads
/// timestamps already computed by the collective, touches no clock.
void note_wait(double entry, double released) {
  if (stats::Registry* reg = stats::current()) {
    reg->record_wait(released - entry);
  }
}

std::string current_phase() {
  const stats::Registry* reg = stats::current();
  return reg != nullptr ? reg->phase_path() : std::string();
}

/// Handoff key for the initiate -> wait happens-before edge, salted
/// with the shared-state identity so keys from different communicators
/// (and from sched's (node, rank) keyspace) cannot collide.
std::uint64_t nb_race_key(const SharedState& s, std::uint64_t key) {
  return mutil::mix64(
      reinterpret_cast<std::uintptr_t>(&s) ^ mutil::mix64(key));
}

/// Completion, run by the last initiator while holding s.mutex: verify
/// fingerprints, move all data, publish results, wake waiters. May
/// throw (verification mismatch, receive-buffer overflow) — the
/// thrower unwinds, the runtime aborts the job, and blocked peers wake
/// via the abort channel.
void nb_complete_locked(SharedState& s, NbOp& op) {
  if (s.checker != nullptr && !op.fps.empty()) {
    s.checker->verify_collective(op.fps, s.check_ranks);
  }
  const auto n = static_cast<std::size_t>(s.nranks);
  if (op.op == CollectiveOp::kIalltoallv) {
    op.recv_counts.assign(n, std::vector<std::uint64_t>(n));
    for (std::size_t dst = 0; dst < n; ++dst) {
      NbOp::Part& to = op.parts[dst];
      std::uint64_t offset = 0;
      for (std::size_t src = 0; src < n; ++src) {
        const NbOp::Part& from = op.parts[src];
        const std::uint64_t len = from.counts[dst];
        if (offset + len > to.recv_cap) {
          throw mutil::CommError(
              "simmpi: ialltoallv recv buffer overflow: rank " +
              std::to_string(dst) + " receives more than " +
              std::to_string(to.recv_cap) + " bytes");
        }
        if (len != 0) {
          std::memcpy(to.recv + offset,
                      from.send + from.displs[dst], len);
        }
        op.recv_counts[dst][src] = len;
        offset += len;
      }
      to.received = offset;
    }
  } else {
    const Op red = static_cast<Op>(op.red_op);
    std::uint64_t acc = op.parts[0].u64;
    for (std::size_t i = 1; i < n; ++i) {
      acc = reduce_op(acc, op.parts[i].u64, red);
    }
    op.reduced = acc;
  }
  double t = 0.0;
  for (const NbOp::Part& part : op.parts) t = std::max(t, part.clock);
  op.t_all = t;
  op.complete = true;
  s.cv.notify_all();
}

}  // namespace

int Communicator::check_global_rank() const noexcept {
  return shared_->check_ranks[static_cast<std::size_t>(rank_)];
}

void Communicator::check_announce(const CollectiveFingerprint& fp,
                                  CollectiveFingerprint& out) {
  auto& s = *shared_;
  if (s.checker == nullptr) return;
  out = fp;
  out.seq = ++check_seq_;
  out.sim_time = clock_->now();
  out.phase = current_phase();
  if (check::RaceDetector* race = s.checker->race()) {
    // Feed the cross-run determinism digest: each rank chains its own
    // fingerprint history (announce runs before the rendezvous, so only
    // the owner rank touches its chain).
    race->record_fingerprint(check_global_rank(), out, s.nranks);
  }
}

void Communicator::check_verify() {
  auto& s = *shared_;
  if (s.checker == nullptr) return;
  if (rank_ == 0) {
    s.checker->verify_collective(s.check_fps, s.check_ranks);
    if (check::RaceDetector* race = s.checker->race()) {
      // Collective rendezvous joins every participant's vector clock.
      // Safe to apply on one rank's behalf: the peers are (or will be)
      // blocked in the verification fence below, and their
      // pre-collective accesses are ordered by the entry barrier.
      race->collective_sync(s.check_ranks);
    }
  }
  // Verification fence: hold every rank until rank 0 accepted the
  // fingerprints, so nobody dereferences peer slot data from a
  // mismatched collective. Barrier only — simulated clocks untouched.
  checked_wait("check_verify");
}

void Communicator::checked_wait(const char* what) {
  auto& s = *shared_;
  const check::BlockGuard guard(s.checker, check_global_rank(),
                                check::BlockedState::Kind::kCollective,
                                what, -1, check_seq_, clock_->now());
  s.barrier_wait();
}

void Communicator::check_region(const char* what, const char* side, int peer,
                                std::uint64_t displ, std::uint64_t count,
                                std::uint64_t size) {
  if (count <= size && displ <= size - count) return;
  if (check::JobChecker* checker = shared_->checker) {
    checker->local_error(
        check_global_rank(), std::string(what) + "-local-bounds",
        std::string(what) + " " + side + " region for peer " +
            std::to_string(peer) + " (" + std::to_string(count) +
            " bytes at offset " + std::to_string(displ) + ") exceeds the " +
            side + " buffer (" + std::to_string(size) + " bytes)",
        clock_->now());
  }
  throw mutil::CommError(std::string("simmpi: ") + what + " " + side +
                         " region out of bounds");
}

template <class Publish, class Collect, class Cost>
void Communicator::rendezvous(const CollectiveFingerprint& fp,
                              Publish publish, Collect collect, Cost cost) {
  auto& s = *shared_;
  const char* what = check::to_string(fp.op);
  Slot& mine = s.slots[static_cast<std::size_t>(rank_)];
  publish(mine);
  const double entry = clock_->now();
  mine.clock = entry;
  check_announce(fp, s.check_fps[static_cast<std::size_t>(rank_)]);
  checked_wait(what);
  check_verify();
  collect();
  // Scan all published clocks; every rank computes the same maximum.
  double t = 0.0;
  for (const Slot& slot : s.slots) t = std::max(t, slot.clock);
  checked_wait(what);
  // An Uncharged handoff (split) moves no clock and counts as no collective.
  if constexpr (!std::is_same_v<Cost, Uncharged>) {
    clock_->set(t + s.collective_latency() + cost());
    note_wait(entry, t);
    ++stats_.collectives;
  }
}

template <class Freeze, class Fill>
std::uint64_t Communicator::nb_initiate(CollectiveFingerprint fp,
                                        Freeze freeze, Fill fill) {
  auto& s = *shared_;
  const std::uint64_t key = ++nb_count_;
  if (s.checker != nullptr) {
    if (check::RaceDetector* race = s.checker->race()) {
      // Publish this rank's clock for the waiters to join at completion
      // (initiate -> wait is the new happens-before edge; initiators are
      // NOT ordered against each other).
      race->handoff_publish(check_global_rank(), nb_race_key(s, key));
      freeze(*race);
    }
  }
  {
    const std::scoped_lock lock(s.mutex);
    if (s.aborted) s.throw_aborted_locked();
    const auto n = static_cast<std::size_t>(s.nranks);
    NbOp& op = s.nb_ops[key];
    if (op.parts.empty()) {
      op.op = fp.op;
      op.parts.resize(n);
      if (s.checker != nullptr) op.fps.resize(n);
    } else if (op.op != fp.op) {
      throw mutil::CommError(
          std::string("simmpi: non-blocking collective mismatch: this rank "
                      "initiated ") +
          check::to_string(fp.op) + " #" + std::to_string(key) +
          " but a peer initiated " + check::to_string(op.op));
    }
    NbOp::Part& part = op.parts[static_cast<std::size_t>(rank_)];
    fill(op, part);
    part.clock = clock_->now();
    if (s.checker != nullptr) {
      // Fingerprint the op's own copy of the counts: the caller's array
      // may die before the last initiator verifies.
      if (!part.counts.empty()) fp.send_counts = part.counts.data();
      check_announce(fp, op.fps[static_cast<std::size_t>(rank_)]);
    }
    if (++op.arrived == s.nranks) nb_complete_locked(s, op);
  }
  ++stats_.collectives;
  return key;
}

Communicator::Communicator(std::shared_ptr<detail::SharedState> shared,
                           int rank)
    : shared_(std::move(shared)), rank_(rank) {}

Communicator::Communicator(std::shared_ptr<detail::SharedState> shared,
                           int rank, simtime::Clock* borrowed_clock)
    : shared_(std::move(shared)), rank_(rank), clock_(borrowed_clock) {}

Communicator::~Communicator() = default;

std::unique_ptr<Communicator> Communicator::split(int color, int key) {
  auto& s = *shared_;
  // Learn every rank's (color, key) to compute group membership and the
  // new rank order deterministically on all members.
  const auto colors = allgather_i64(color);
  const auto keys = allgather_i64(key);
  std::vector<std::pair<std::int64_t, int>> members;  // (key, old rank)
  for (int r = 0; r < s.nranks; ++r) {
    if (colors[static_cast<std::size_t>(r)] == color) {
      members.emplace_back(keys[static_cast<std::size_t>(r)], r);
    }
  }
  std::sort(members.begin(), members.end());
  const auto new_rank = static_cast<int>(
      std::lower_bound(members.begin(), members.end(),
                       std::pair{static_cast<std::int64_t>(key), rank_}) -
      members.begin());
  const int leader = members.front().second;

  // The group's leader builds its state up front and publishes it in its
  // slot; the members copy it out inside one uncharged rendezvous.
  std::shared_ptr<detail::SharedState> group;
  if (leader == rank_) {
    group = std::make_shared<detail::SharedState>(
        static_cast<int>(members.size()), s.net_latency, s.net_bandwidth);
    // The child inherits the job's checker; map its ranks back to
    // job-global ranks so diagnostics name the real culprits.
    group->checker = s.checker;
    for (std::size_t i = 0; i < members.size(); ++i) {
      group->check_ranks[i] =
          s.check_ranks[static_cast<std::size_t>(members[i].second)];
    }
    const std::scoped_lock lock(s.children_mutex);
    s.children.push_back(group);
  }
  rendezvous(
      {.op = CollectiveOp::kSplit}, [&](Slot& mine) { mine.group = &group; },
      [&] {
        // The leader's `group` is read by the members: it must not write it.
        if (leader != rank_) group = *s.slots[leader].group;
      },
      Uncharged{});
  return std::unique_ptr<Communicator>(
      new Communicator(std::move(group), new_rank, clock_));
}

int Communicator::size() const noexcept { return shared_->nranks; }

void Communicator::barrier() {
  rendezvous({.op = CollectiveOp::kBarrier}, [](Slot&) {}, [] {},
             kLatencyOnly);
}

double Communicator::clock_sync() {
  barrier();
  return clock_->now();
}

void Communicator::alltoallv(std::span<const std::byte> send,
                             std::span<const std::uint64_t> send_counts,
                             std::span<const std::uint64_t> send_displs,
                             std::span<std::byte> recv,
                             std::span<const std::uint64_t> recv_counts,
                             std::span<const std::uint64_t> recv_displs) {
  auto& s = *shared_;
  check_vector_sizes(s, send_counts.size(), send_displs.size(), "alltoallv");
  check_vector_sizes(s, recv_counts.size(), recv_displs.size(), "alltoallv");
  for (int i = 0; i < s.nranks; ++i) {
    check_region("alltoallv", "send", i, send_displs[i], send_counts[i],
                 send.size());
    check_region("alltoallv", "recv", i, recv_displs[i], recv_counts[i],
                 recv.size());
  }
  const std::uint64_t sent = std::accumulate(
      send_counts.begin(), send_counts.end(), std::uint64_t{0});
  std::uint64_t received = 0;
  rendezvous(
      {.op = CollectiveOp::kAlltoallv,
       .width = 1,
       .send_counts = send_counts.data(),
       .recv_counts = recv_counts.data()},
      [&](Slot& mine) {
        mine.send = send.data();
        mine.counts = send_counts.data();
        mine.displs = send_displs.data();
      },
      [&] {
        // Pull model: copy my block out of every sender's buffer.
        for (int src = 0; src < s.nranks; ++src) {
          const Slot& theirs = s.slots[src];
          const std::uint64_t len = theirs.counts[rank_];
          if (len != recv_counts[src]) {
            throw mutil::CommError(
                "simmpi: alltoallv recv count mismatch (sender advertised " +
                std::to_string(len) + ", receiver expected " +
                std::to_string(recv_counts[src]) + ")");
          }
          if (len != 0) {
            std::memcpy(recv.data() + recv_displs[src],
                        theirs.send + theirs.displs[rank_], len);
          }
          received += len;
        }
      },
      [&] {
        return static_cast<double>(std::max(sent, received)) /
               s.net_bandwidth;
      });
  stats_.bytes_sent += sent;
  stats_.bytes_received += received;
}

std::vector<std::uint64_t> Communicator::alltoall_u64(
    std::span<const std::uint64_t> values) {
  auto& s = *shared_;
  if (values.size() != static_cast<std::size_t>(s.nranks)) {
    throw mutil::CommError("simmpi: alltoall_u64 needs one value per rank");
  }
  std::vector<std::uint64_t> result(static_cast<std::size_t>(s.nranks));
  rendezvous(
      {.op = CollectiveOp::kAlltoallU64, .width = 8},
      [&](Slot& mine) { mine.counts = values.data(); },
      [&] {
        for (int src = 0; src < s.nranks; ++src) {
          result[static_cast<std::size_t>(src)] = s.slots[src].counts[rank_];
        }
      },
      kLatencyOnly);
  return result;
}

template <class T>
T Communicator::allreduce(T value, Op op) {
  auto& s = *shared_;
  T acc{};
  rendezvous(
      {.op = WordOps<T>::kAllreduce,
       .width = 8,
       .extra = static_cast<std::uint32_t>(op)},
      [&](Slot& mine) { mine.word = std::bit_cast<std::uint64_t>(value); },
      [&] {
        acc = std::bit_cast<T>(s.slots[0].word);
        for (int i = 1; i < s.nranks; ++i) {
          acc = reduce_op(acc, std::bit_cast<T>(s.slots[i].word), op);
        }
      },
      kLatencyOnly);
  return acc;
}

template <class T>
std::vector<T> Communicator::allgather(T value) {
  auto& s = *shared_;
  std::vector<T> result(static_cast<std::size_t>(s.nranks));
  rendezvous(
      {.op = WordOps<T>::kAllgather, .width = 8},
      [&](Slot& mine) { mine.word = std::bit_cast<std::uint64_t>(value); },
      [&] {
        for (int i = 0; i < s.nranks; ++i) {
          result[static_cast<std::size_t>(i)] =
              std::bit_cast<T>(s.slots[i].word);
        }
      },
      kLatencyOnly);
  return result;
}

std::int64_t Communicator::allreduce_i64(std::int64_t value, Op op) {
  return allreduce(value, op);
}

std::uint64_t Communicator::allreduce_u64(std::uint64_t value, Op op) {
  return allreduce(value, op);
}

double Communicator::allreduce_f64(double value, Op op) {
  return allreduce(value, op);
}

bool Communicator::allreduce_lor(bool value) {
  return allreduce_u64(value ? 1 : 0, Op::kLor) != 0;
}

bool Communicator::allreduce_land(bool value) {
  return allreduce_u64(value ? 1 : 0, Op::kLand) != 0;
}

std::vector<std::int64_t> Communicator::allgather_i64(std::int64_t value) {
  return allgather(value);
}

std::vector<std::uint64_t> Communicator::allgather_u64(std::uint64_t value) {
  return allgather(value);
}

void Communicator::bcast(std::span<std::byte> data, int root) {
  auto& s = *shared_;
  if (root < 0 || root >= s.nranks) {
    throw mutil::CommError("simmpi: bcast: bad root rank");
  }
  rendezvous(
      {.op = CollectiveOp::kBcast, .width = 1, .root = root,
       .bytes = data.size()},
      [&](Slot& mine) {
        mine.send = data.data();
        mine.bytes = data.size();
      },
      [&] {
        const Slot& src = s.slots[root];
        if (src.bytes != data.size()) {
          throw mutil::CommError("simmpi: bcast: buffer size mismatch");
        }
        if (rank_ != root && !data.empty()) {
          std::memcpy(data.data(), src.send, data.size());
        }
      },
      [&] { return static_cast<double>(data.size()) / s.net_bandwidth; });
}

std::uint64_t Communicator::bcast_u64(std::uint64_t value, int root) {
  auto& s = *shared_;
  if (root < 0 || root >= s.nranks) {
    throw mutil::CommError("simmpi: bcast_u64: bad root rank");
  }
  std::uint64_t result = 0;
  rendezvous(
      {.op = CollectiveOp::kBcastU64, .width = 8, .root = root},
      [&](Slot& mine) { mine.word = value; },
      [&] { result = s.slots[root].word; }, kLatencyOnly);
  return result;
}

GatherResult Communicator::gatherv(int root,
                                   std::span<const std::byte> payload) {
  auto& s = *shared_;
  if (root < 0 || root >= s.nranks) {
    throw mutil::CommError("simmpi: gatherv: bad root rank");
  }
  GatherResult result;
  std::uint64_t moved = payload.size();  // the root moves everything
  rendezvous(
      {.op = CollectiveOp::kGatherv, .width = 1, .root = root},
      [&](Slot& mine) {
        mine.send = payload.data();
        mine.bytes = payload.size();
      },
      [&] {
        if (rank_ != root) return;
        for (const Slot& theirs : s.slots) {
          result.counts.push_back(theirs.bytes);
          result.data.insert(result.data.end(), theirs.send,
                             theirs.send + theirs.bytes);
        }
        moved = result.data.size();
      },
      [&] { return static_cast<double>(moved) / s.net_bandwidth; });
  (rank_ == root ? stats_.bytes_received : stats_.bytes_sent) += moved;
  return result;
}

GatherResult Communicator::allgatherv(std::span<const std::byte> payload) {
  // Composition keeps the rendezvous protocol (and the fingerprint
  // verification) unchanged: gather everything at rank 0, then
  // broadcast the counts and the concatenated payload. Costs roughly
  // 2x the payload volume of a tree allgatherv — acceptable for the
  // control-plane blobs this call exists for.
  GatherResult result = gatherv(0, payload);
  const std::uint64_t total =
      bcast_u64(static_cast<std::uint64_t>(result.data.size()), 0);
  if (rank_ != 0) {
    result.counts.assign(static_cast<std::size_t>(size()), 0);
    result.data.resize(total);
  }
  bcast(std::as_writable_bytes(std::span<std::uint64_t>(result.counts)), 0);
  bcast(std::span<std::byte>(result.data), 0);
  return result;
}

// --- non-blocking collectives ---------------------------------------------

Request Communicator::ialltoallv(std::span<const std::byte> send,
                                 std::span<const std::uint64_t> send_counts,
                                 std::span<const std::uint64_t> send_displs,
                                 std::span<std::byte> recv) {
  auto& s = *shared_;
  check_vector_sizes(s, send_counts.size(), send_displs.size(),
                     "ialltoallv");
  for (int i = 0; i < s.nranks; ++i) {
    check_region("ialltoallv", "send", i, send_displs[i], send_counts[i],
                 send.size());
  }
  const std::uint64_t sent = std::accumulate(
      send_counts.begin(), send_counts.end(), std::uint64_t{0});
  const std::uint64_t key = nb_initiate(
      {.op = CollectiveOp::kIalltoallv, .width = 1},
      [&](check::RaceDetector& race) {
        // Freeze both buffers so any touch before wait() — including by
        // this rank itself — is caught.
        const int grank = check_global_rank();
        race.nb_initiate(send.data(), grank, /*op_writes=*/false,
                         "ialltoallv", clock_->now(), current_phase());
        race.nb_initiate(recv.data(), grank, /*op_writes=*/true,
                         "ialltoallv", clock_->now(), current_phase());
      },
      [&](NbOp&, NbOp::Part& part) {
        part.send = send.data();
        part.recv = recv.data();
        part.recv_cap = recv.size();
        part.counts.assign(send_counts.begin(), send_counts.end());
        part.displs.assign(send_displs.begin(), send_displs.end());
        part.sent = sent;
      });
  return Request(this, key, /*alltoallv=*/true, send.data(), recv.data());
}

Request Communicator::iallreduce_u64(std::uint64_t value, Op op_kind) {
  const std::uint64_t key = nb_initiate(
      {.op = CollectiveOp::kIallreduceU64,
       .width = 8,
       .extra = static_cast<std::uint32_t>(op_kind)},
      [](check::RaceDetector&) {},
      [&](NbOp& op, NbOp::Part& part) {
        op.red_op = static_cast<std::uint32_t>(op_kind);
        part.u64 = value;
      });
  return Request(this, key, /*alltoallv=*/false, nullptr, nullptr);
}
bool Communicator::nb_test(std::uint64_t key) {
  auto& s = *shared_;
  const std::scoped_lock lock(s.mutex);
  if (s.aborted) s.throw_aborted_locked();
  const auto it = s.nb_ops.find(key);
  return it == s.nb_ops.end() || it->second.complete;
}

void Communicator::nb_wait(Request& request) {
  auto& s = *shared_;
  double t_init = 0.0;
  double t_all = 0.0;
  {
    const check::BlockGuard guard(
        s.checker, check_global_rank(),
        check::BlockedState::Kind::kCollective,
        request.alltoallv_ ? "ialltoallv.wait" : "iallreduce_u64.wait", -1,
        request.key_, clock_->now());
    std::unique_lock lock(s.mutex);
    const auto it = s.nb_ops.find(request.key_);
    if (it == s.nb_ops.end()) {
      if (s.aborted) s.throw_aborted_locked();
      throw mutil::CommError(
          "simmpi: wait on an unknown non-blocking request");
    }
    NbOp& op = it->second;
    s.cv.wait(lock, [&] { return op.complete || s.aborted; });
    if (!op.complete) s.throw_aborted_locked();
    const NbOp::Part& part = op.parts[static_cast<std::size_t>(rank_)];
    t_init = part.clock;
    t_all = op.t_all;
    if (request.alltoallv_) {
      request.recv_counts_ = op.recv_counts[static_cast<std::size_t>(rank_)];
      request.sent_ = part.sent;
      request.received_ = part.received;
    } else {
      request.value_ = op.reduced;
    }
    if (++op.waited == s.nranks) s.nb_ops.erase(it);
  }

  // Cost model: the op completes collective_latency + transfer after
  // the *latest* initiation. Seconds this rank slept until then are
  // blocked wait; seconds the op was in flight while the rank computed
  // are overlap (hidden communication). An initiate-then-wait with no
  // compute in between lands exactly on the blocking collective's time.
  double cost = s.collective_latency();
  if (request.alltoallv_) {
    cost += static_cast<double>(std::max(request.sent_, request.received_)) /
            s.net_bandwidth;
  }
  const double done_at = t_all + cost;
  const double now = clock_->now();
  note_wait(now, done_at);
  if (stats::Registry* reg = stats::current()) {
    reg->record_overlap(std::max(0.0, std::min(now, done_at) - t_init));
  }
  clock_->set(std::max(now, done_at));

  if (s.checker != nullptr) {
    if (check::RaceDetector* race = s.checker->race()) {
      const int grank = check_global_rank();
      // Join every initiator's published clock: the happens-before edge
      // lands at completion, not initiation.
      race->handoff_acquire(grank, nb_race_key(s, request.key_));
      for (const void* base : {request.send_base_, request.recv_base_}) {
        if (base != nullptr) {
          race->nb_complete(base, grank, clock_->now(), current_phase());
        }
      }
    }
  }
  stats_.bytes_sent += request.sent_;
  stats_.bytes_received += request.received_;
}

bool Request::test() {
  if (comm_ == nullptr || waited_) return true;
  return comm_->nb_test(key_);
}

void Request::wait() {
  if (comm_ == nullptr || waited_) return;
  comm_->nb_wait(*this);
  waited_ = true;
}

void Communicator::send(int dest, int tag,
                        std::span<const std::byte> payload) {
  auto& s = *shared_;
  if (dest < 0 || dest >= s.nranks) {
    throw mutil::CommError("simmpi: send: bad destination rank");
  }
  const double transfer =
      s.net_latency + static_cast<double>(payload.size()) / s.net_bandwidth;
  detail::Mailbox::Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.arrival = clock_->now() + transfer;
  msg.payload.assign(payload.begin(), payload.end());
  if (s.checker != nullptr) {
    if (check::RaceDetector* race = s.checker->race()) {
      // The send -> recv happens-before edge: snapshot the sender's
      // vector clock into the message for the receiver to join.
      msg.race_clock = race->send_edge(check_global_rank());
    }
  }

  auto& box = *s.mailboxes[static_cast<std::size_t>(dest)];
  {
    const std::scoped_lock lock(box.mutex);
    box.messages.push_back(std::move(msg));
  }
  box.cv.notify_all();
  clock_->advance(transfer);
  stats_.bytes_sent += payload.size();
}

std::vector<std::byte> Communicator::recv(int source, int tag) {
  auto& s = *shared_;
  if (source < 0 || source >= s.nranks) {
    throw mutil::CommError("simmpi: recv: bad source rank");
  }
  const check::BlockGuard guard(
      s.checker, check_global_rank(), check::BlockedState::Kind::kRecv,
      "recv", s.check_ranks[static_cast<std::size_t>(source)], 0,
      clock_->now());
  auto& box = *s.mailboxes[static_cast<std::size_t>(rank_)];
  std::unique_lock lock(box.mutex);
  for (;;) {
    s.throw_if_aborted();
    const auto it =
        std::find_if(box.messages.begin(), box.messages.end(),
                     [&](const detail::Mailbox::Message& m) {
                       return m.source == source && m.tag == tag;
                     });
    if (it != box.messages.end()) {
      detail::Mailbox::Message msg = std::move(*it);
      box.messages.erase(it);
      lock.unlock();
      if (s.checker != nullptr && !msg.race_clock.empty()) {
        if (check::RaceDetector* race = s.checker->race()) {
          race->recv_edge(check_global_rank(), msg.race_clock);
        }
      }
      const double before = clock_->now();
      clock_->sync_to(msg.arrival);
      // A message that had not yet arrived made the receiver wait.
      if (msg.arrival > before) note_wait(before, msg.arrival);
      stats_.bytes_received += msg.payload.size();
      return std::move(msg.payload);
    }
    box.cv.wait(lock);
  }
}

}  // namespace simmpi
