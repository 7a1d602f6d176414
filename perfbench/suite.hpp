// The benchmark's workloads. Each one generates its input from a seed
// (the timed set-up), runs identical jobs on it, keeps each job's
// output, and checks those outputs against an independent reference
// computed after the timed loop.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pfs/filesystem.hpp"
#include "simtime/machine.hpp"
#include "spans.hpp"
#include "stats/trace.hpp"

namespace perfbench {

constexpr int kRanks = 4;
constexpr int kRanksPerNode = 2;

/// comet_sim with two ranks per simulated node.
simtime::MachineProfile bench_machine();

/// Figures one job yields whether traced or not. Every field except
/// node_peak must be identical across a run's jobs.
struct JobFacts {
  double sim_s = 0;                ///< largest final rank clock
  std::uint64_t rank_peak = 0;     ///< largest per-rank tracked peak
  std::uint64_t node_peak = 0;     ///< drifts (see README): not compared
  std::uint64_t shuffle_bytes = 0;
  pfs::IoStats io;
};

/// A traced job's context: the span tracer, the stats collector bound
/// to the job, the job id the spans carry, and layer figures only the
/// workload can see (sched plan counts).
struct TraceCtx {
  Tracer& tracer;
  stats::Collector& collector;
  int job = 0;
  std::map<std::string, double> extra;
};

/// Input sizes; `full` is the benchmark, `small` the self-test.
enum class Scale { kFull, kSmall };

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate the input from `seed`, replacing any previous input.
  virtual void setup(std::uint64_t seed) = 0;
  /// One line naming the input's make-up.
  virtual std::string describe() const = 0;
  /// Run one job on the input and keep its output; traced when `trace`
  /// is non-null. Throws what the program throws.
  virtual JobFacts run(TraceCtx* trace) = 0;
  /// Number of outputs kept so far.
  virtual std::size_t outputs() const = 0;
  /// Check output `i` against the independent reference (computed on
  /// first use). Empty = correct, else the reason.
  virtual std::string check(std::size_t i) = 0;
  /// Perturb a copy of output `i` in each way the check must catch and
  /// return one (description, check result) pair per perturbation.
  virtual std::vector<std::pair<std::string, std::string>> perturbed(
      std::size_t i) = 0;
};

/// Names: "wc-wiki", "pagerank-skew", "octree-ooc". Null if unknown.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        Scale scale);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
