#include "balance/balancer.hpp"

#include <utility>

#include "inject/fault.hpp"
#include "stats/registry.hpp"

namespace balance {

Balancer::Balancer(Options opts, int nranks)
    : opts_(opts),
      nranks_(nranks),
      sketch_(opts.sketch_capacity, opts.reservoir_capacity, nranks),
      sketch_region_("balance.sketch", &sketch_, sizeof(sketch_)),
      plan_region_("balance.plan", &plan_, sizeof(plan_)) {}

void Balancer::sample(std::string_view key, std::uint64_t hash,
                      std::uint64_t bytes, int dest) {
  sketch_region_.note_write();
  sketch_.offer(key, hash, bytes, dest);
}

void Balancer::exchange_and_plan(simmpi::Context& ctx) {
  if (planned_) return;
  inject::phase_point("balance.plan");
  sketch_region_.note_read();
  const std::vector<std::byte> blob = sketch_.serialize();
  const simmpi::GatherResult all = ctx.comm.allgatherv(blob);

  // Merge in rank order: every rank folds the same blobs in the same
  // order, so the merged sketch — and the plan below — is identical
  // everywhere without a second agreement step.
  KeyFreqSketch merged;
  std::size_t offset = 0;
  for (std::size_t r = 0; r < all.counts.size(); ++r) {
    const auto n = static_cast<std::size_t>(all.counts[r]);
    const std::span<const std::byte> part(all.data.data() + offset, n);
    offset += n;
    if (r == 0) {
      merged = KeyFreqSketch::deserialize(part);
    } else {
      merged.merge(KeyFreqSketch::deserialize(part));
    }
  }

  plan_region_.note_write();
  plan_ = build_plan(merged, nranks_, opts_);
  planned_ = true;

  if (stats::Registry* reg = stats::current()) {
    reg->instant("balance.plan");
    reg->add("balance.sampled_kvs", sketch_.offered_kvs());
    reg->add("balance.sampled_bytes", sketch_.total_bytes());
    reg->add("balance.sketch_bytes", blob.size());
    reg->add("balance.plan_keys", plan_.size());
    reg->add("balance.split_keys", plan_.split_keys());
    reg->add("balance.heavy_keys", merged.heavy_size());
    reg->add("balance.tail_distinct_est", merged.distinct_estimate());
  }
  if (on_plan) on_plan(plan_);
}

int Balancer::route(std::string_view key, std::uint64_t hash, int fallback,
                    int sender) const {
  plan_region_.note_read();
  return plan_.route(key, hash, fallback, sender);
}

}  // namespace balance
