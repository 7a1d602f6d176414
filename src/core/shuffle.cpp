#include "mimir/shuffle.hpp"

#include <algorithm>
#include <numeric>

#include "balance/balancer.hpp"
#include "check/race.hpp"
#include "inject/fault.hpp"
#include "memtrack/tracker.hpp"
#include "mutil/hash.hpp"
#include "stats/registry.hpp"

namespace mimir {

Shuffle::Shuffle(simmpi::Context& ctx, std::uint64_t comm_buffer,
                 KVHint hint, KVContainer& dest, PartitionFn partitioner,
                 bool overlap, balance::Balancer* balancer)
    : ctx_(ctx),
      codec_(hint),
      dest_(dest),
      partitioner_(std::move(partitioner)),
      overlap_(overlap),
      balancer_(balancer),
      part_cap_(comm_buffer / static_cast<std::uint64_t>(ctx.size())),
      part_displs_(static_cast<std::size_t>(ctx.size()), 0) {
  if (part_cap_ == 0) {
    throw mutil::ConfigError(
        "Shuffle: communication buffer smaller than one byte per rank");
  }
  // Allocate (and charge) exactly p * part_cap_ bytes per buffer: when
  // comm_buffer does not divide evenly by the rank count, the remainder
  // would sit past the last partition — charged but unusable. Rounding
  // the allocation down keeps charged == usable.
  const std::uint64_t usable =
      part_cap_ * static_cast<std::uint64_t>(ctx.size());
  const memtrack::TagScope tag("shuffle");
  send_[0] = memtrack::TrackedBuffer(ctx.tracker, usable);
  recv_ = memtrack::TrackedBuffer(ctx.tracker, usable);
  if (overlap_) {
    send_[1] = memtrack::TrackedBuffer(ctx.tracker, usable);
  }
  part_used_[0].assign(static_cast<std::size_t>(ctx.size()), 0);
  part_used_[1].assign(static_cast<std::size_t>(ctx.size()), 0);
  for (std::size_t i = 0; i < part_displs_.size(); ++i) {
    part_displs_[i] = static_cast<std::uint64_t>(i) * part_cap_;
  }
}

void Shuffle::emit(std::string_view key, std::string_view value) {
  if (finalized_) {
    throw mutil::UsageError("Shuffle: emit after finalize");
  }
  const std::size_t bytes = codec_.encoded_size(key, value);
  if (bytes > part_cap_) {
    throw mutil::UsageError(
        "Shuffle: a single KV (" + std::to_string(bytes) +
        " bytes) exceeds the send partition capacity (" +
        std::to_string(part_cap_) + " bytes); increase the comm buffer");
  }
  // Validate the partitioner's result while it is still signed: casting
  // a negative return to size_t first would report a huge bogus rank
  // and hide the real bug (a partitioner returning -1).
  // One key hash per KV, shared by the fallback routing, the sketch and
  // the plan lookup.
  const std::uint64_t hash =
      !partitioner_ || balancer_ != nullptr ? mutil::hash_bytes(key) : 0;
  int dest = 0;
  if (partitioner_) {
    dest = partitioner_(key, ctx_.size());
    if (dest < 0 || dest >= ctx_.size()) {
      throw mutil::UsageError(
          "Shuffle: partitioner returned rank " + std::to_string(dest) +
          ", violating the partitioner contract (must return a rank in "
          "[0, " +
          std::to_string(ctx_.size()) + "))");
    }
  } else {
    dest = static_cast<int>(hash % static_cast<std::uint64_t>(ctx_.size()));
  }
  if (balancer_ != nullptr) {
    if (!balancer_->planned()) {
      // Pre-plan: feed the key-frequency sketch. Routing is unchanged,
      // so the first-round payload is identical with balance on or off.
      balancer_->sample(key, hash, static_cast<std::uint64_t>(bytes), dest);
    } else {
      dest = balancer_->route(key, hash, dest, ctx_.rank());
      if (dest < 0 || dest >= ctx_.size()) {
        throw mutil::UsageError(
            "Shuffle: balance plan routed to rank " + std::to_string(dest) +
            ", outside [0, " + std::to_string(ctx_.size()) + ")");
      }
    }
  }
  const auto dest_rank = static_cast<std::size_t>(dest);
  if (part_used_[cur_][dest_rank] + bytes > part_cap_) {
    if (overlap_) {
      // The active buffer is full. Free the other buffer (wait for the
      // previous round if it is still in flight), ship the full one,
      // and keep mapping into the freed buffer — round k's exchange now
      // hides under round k+1's map compute.
      if (in_flight_) (void)complete_round();
      start_round(false);
      cur_ ^= 1;
    } else {
      // Suspend the map and run the implicit aggregate phase.
      (void)exchange_round(false);
    }
  }
  // Under mimir-race, the emit write is noted against the send buffer:
  // writing into a buffer an in-flight ialltoallv still owns is exactly
  // the write-after-initiate hazard the detector freezes regions for.
  check::race_note_access(send_[cur_].data(), /*write=*/true);
  codec_.encode(send_[cur_].data() + part_displs_[dest_rank] +
                    part_used_[cur_][dest_rank],
                key, value);
  part_used_[cur_][dest_rank] += bytes;
  ++kvs_emitted_;
  bytes_emitted_ += bytes;
  // Framework handling cost of the emitted KV (hash + encode).
  ctx_.clock().advance(static_cast<double>(bytes) / ctx_.machine.kv_rate);
}

bool Shuffle::exchange_round(bool this_rank_done) {
  ++rounds_;
  // Each exchange round is one aggregate phase: the map is suspended,
  // send partitions are drained through alltoallv, and the received KVs
  // land in the destination container.
  const stats::PhaseScope phase("aggregate");
  inject::phase_point("aggregate");
  // The first round doubles as the balance plan exchange: every rank
  // reaches its first round's collectives in the same order (whichever
  // rank's partition filled first merely arrives at the rendezvous
  // earlier in simulated time), so prepending the allgatherv here keeps
  // the global collective sequence aligned.
  if (balancer_ != nullptr && !balancer_->planned()) {
    balancer_->exchange_and_plan(ctx_);
  }
  std::vector<std::uint64_t>& used = part_used_[cur_];
  if (stats::Registry* reg = stats::current()) {
    reg->instant("exchange_round");
    reg->add("shuffle.rounds", 1);
    for (std::size_t dst = 0; dst < used.size(); ++dst) {
      reg->record_traffic(static_cast<int>(dst), used[dst]);
      reg->add("shuffle.bytes_sent", used[dst]);
    }
  }
  const auto recv_counts = ctx_.comm.alltoall_u64(used);

  std::vector<std::uint64_t> recv_displs(recv_counts.size(), 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < recv_counts.size(); ++i) {
    recv_displs[i] = total;
    total += recv_counts[i];
  }
  // Receive volume is bounded by the send-buffer size by construction.
  ctx_.comm.alltoallv(send_[cur_].span(), used, part_displs_,
                      recv_.span(), recv_counts, recv_displs);

  // Move received KVs into the destination container; pages grow (and
  // are charged) as needed.
  dest_.append_encoded(recv_.span().subspan(0, total));
  ctx_.clock().advance(static_cast<double>(total) / ctx_.machine.kv_rate);

  std::fill(used.begin(), used.end(), 0);
  return ctx_.comm.allreduce_lor(!this_rank_done);
}

void Shuffle::start_round(bool this_rank_done) {
  ++rounds_;
  const stats::PhaseScope phase("aggregate");
  inject::phase_point("aggregate");
  // Plan exchange before the first overlapped round, mirroring the
  // blocking path (see exchange_round).
  if (balancer_ != nullptr && !balancer_->planned()) {
    balancer_->exchange_and_plan(ctx_);
  }
  std::vector<std::uint64_t>& used = part_used_[cur_];
  if (stats::Registry* reg = stats::current()) {
    reg->instant("exchange_round");
    reg->add("shuffle.rounds", 1);
    for (std::size_t dst = 0; dst < used.size(); ++dst) {
      reg->record_traffic(static_cast<int>(dst), used[dst]);
      reg->add("shuffle.bytes_sent", used[dst]);
    }
  }
  // The non-blocking alltoallv discovers receive counts at completion
  // and packs the payload contiguously in source-rank order — the same
  // order the blocking path's cumulative displacements produce, which
  // is what keeps the destination container bit-identical across modes.
  // The continue vote rides the same round as a second request.
  data_req_ = ctx_.comm.ialltoallv(send_[cur_].span(), used, part_displs_,
                                   recv_.span());
  vote_req_ = ctx_.comm.iallreduce_u64(this_rank_done ? 0 : 1,
                                       simmpi::Op::kLor);
  flight_ = cur_;
  in_flight_ = true;
  inject::phase_point("aggregate.initiate");
}

bool Shuffle::complete_round() {
  const stats::PhaseScope phase("aggregate");
  inject::phase_point("aggregate.wait");
  data_req_.wait();
  vote_req_.wait();
  const std::uint64_t total = data_req_.bytes_received();
  dest_.append_encoded(recv_.span().subspan(0, total));
  ctx_.clock().advance(static_cast<double>(total) / ctx_.machine.kv_rate);
  std::fill(part_used_[flight_].begin(), part_used_[flight_].end(), 0);
  in_flight_ = false;
  return vote_req_.value() != 0;
}

void Shuffle::finalize() {
  if (finalized_) {
    throw mutil::UsageError("Shuffle: finalize called twice");
  }
  finalized_ = true;
  if (overlap_) {
    // Settle any round still hiding under the map before draining: its
    // vote is stale (cast mid-map) but its payload must land first.
    if (in_flight_) (void)complete_round();
    // Drain rounds flush our leftover data, then keep participating
    // with empty partitions until every rank reports done. Each round
    // is initiated and immediately completed — there is no map compute
    // left to hide communication under.
    bool more = true;
    while (more) {
      start_round(true);
      more = complete_round();
    }
  } else {
    // First round flushes our leftover data; afterwards we participate
    // with empty partitions until every rank reports done.
    while (exchange_round(true)) {
    }
  }
}

}  // namespace mimir
