// Per-rank balance driver: sample -> exchange -> plan -> route.
//
// One Balancer lives on each rank of a job (owned by mimir::Job, handed
// to the Shuffle). The protocol piggybacks on the shuffle's own round
// structure:
//
//   1. While no plan exists, Shuffle::emit feeds every KV to sample()
//      — the first partition-buffer fill is the sampling window.
//   2. At the top of the first exchange round (blocking or overlapped:
//      rounds are collective, so all ranks arrive here together) the
//      Shuffle calls exchange_and_plan(): local sketches are
//      allgatherv'd, merged in rank order, and build_plan runs on the
//      identical merged view — every rank installs the identical plan
//      with no second communication step.
//   3. Subsequent emits go through route(): heavy keys follow the plan,
//      the tail keeps the hash/partitioner fallback.
//
// mimir-race integration: the sketch and the installed plan are
// registered SharedRegions; sample() and the plan install are writes,
// route() is a read. The allgatherv rendezvous between the last write
// of phase 1 and the install of phase 2 is the happens-before edge that
// keeps the discipline race-free — exactly what the race tests assert.
//
// Fault injection: exchange_and_plan opens the `balance.plan` phase
// point, so FaultPlans can crash a rank mid-plan-exchange
// (rank_crash:R@balance.plan) and recovery tests can prove the job
// restarts cleanly.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "balance/plan.hpp"
#include "balance/sketch.hpp"
#include "check/race.hpp"
#include "simmpi/runtime.hpp"

namespace balance {

class Balancer {
 public:
  Balancer(Options opts, int nranks);

  Balancer(const Balancer&) = delete;
  Balancer& operator=(const Balancer&) = delete;

  const Options& options() const noexcept { return opts_; }
  int nranks() const noexcept { return nranks_; }

  /// Record one emitted KV during the sampling window (`dest` is the
  /// fallback destination the KV was routed to; `hash` is
  /// mutil::hash_bytes(key), computed once per KV by the caller).
  void sample(std::string_view key, std::uint64_t hash, std::uint64_t bytes,
              int dest);

  bool planned() const noexcept { return planned_; }

  /// Collective: serialize the local sketch, allgatherv, merge in rank
  /// order, build and install the plan (identical on every rank).
  /// Idempotent after the first call.
  void exchange_and_plan(simmpi::Context& ctx);

  /// Post-plan destination for `key` with `hash` ==
  /// mutil::hash_bytes(key) (fallback for tail keys). Valid only after
  /// exchange_and_plan.
  int route(std::string_view key, std::uint64_t hash, int fallback,
            int sender) const;

  bool is_planned_key(std::string_view key) const {
    return plan_.planned(key);
  }

  const Plan& plan() const noexcept { return plan_; }
  const KeyFreqSketch& sketch() const noexcept { return sketch_; }

  /// Observer slot fired on every rank right after the plan install
  /// (tests, diagnostics). Runs on the rank thread; a shared capture
  /// here is exactly the hazard lint_capture.py scans sinks for.
  std::function<void(const Plan&)> on_plan;

 private:
  Options opts_;
  int nranks_;
  KeyFreqSketch sketch_;
  Plan plan_;
  bool planned_ = false;
  check::SharedRegion sketch_region_;
  check::SharedRegion plan_region_;
};

}  // namespace balance
