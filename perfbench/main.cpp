// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//   perfbench --self-test
//
// One process, 4 rank threads, comet_sim with 2 ranks per simulated
// node. A run:
//   1. set-up: generates the workload's input from the seed several
//      times (only the generator is timed);
//   2. one untimed warm-up job;
//   3. the timed closed loop: identical jobs back to back for
//      --seconds (at least kMinJobs); job_host_ms is their median;
//   4. host_rss_mb: the process's peak resident set after kMinJobs
//      timed jobs; after the loop the set-up is timed as many times
//      again, and setup_s is the median over both phases, so it samples
//      the host before and after the loop;
//   5. the traced pass, outside every end-to-end figure: kTracedJobs
//      jobs with spans and a stats::Collector, giving the per-layer
//      metrics;
//   6. untimed checks: every job's output (warm-up, timed and traced)
//      against an independent reference, and every job's deterministic
//      figures against the warm-up job's;
//   7. a collective probe for the simmpi per-layer figures.
// The last stdout line is one JSON object: correct, attempted, failed
// and the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "simmpi/runtime.hpp"
#include "spans.hpp"
#include "stats/trace.hpp"
#include "suite.hpp"

namespace perfbench {
namespace {

constexpr int kMinJobs = 10;
constexpr int kTracedJobs = 5;
constexpr int kMinSetups = 5;          ///< per set-up phase (two per run)
constexpr double kSetupSeconds = 1.0;  ///< keep repeating a phase this long
constexpr int kMaxSetups = 100;
constexpr double kMB = 1e6;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMB;  // KiB on Linux
}

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default "exclusive" method); a single value is its own quartiles.
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  if (n == 0) return {};
  if (n == 1) return {v[0], v[0], v[0]};
  auto at = [&](int j) {  // exclusive method, m = n + 1
    const double pos = static_cast<double>(j) * static_cast<double>(n + 1) / 4;
    auto k = static_cast<std::size_t>(std::floor(pos));
    const double frac = pos - static_cast<double>(k);
    k = std::clamp<std::size_t>(k, 1, n - 1);
    return v[k - 1] + (v[k] - v[k - 1]) * frac;
  };
  const double median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  return {at(1), median, at(3)};
}
double median_of(const std::vector<double>& v) { return quartiles(v).median; }

/// Name of the first deterministic figure that differs, or empty.
std::string differs(const JobFacts& want, const JobFacts& got) {
  if (got.sim_s != want.sim_s) return "sim_s";
  if (got.rank_peak != want.rank_peak) return "rank_peak";
  if (got.shuffle_bytes != want.shuffle_bytes) return "shuffle_bytes";
  if (got.io.bytes_read != want.io.bytes_read) return "pfs.bytes_read";
  if (got.io.bytes_written != want.io.bytes_written) {
    return "pfs.bytes_written";
  }
  if (got.io.read_ops != want.io.read_ops) return "pfs.read_ops";
  if (got.io.write_ops != want.io.write_ops) return "pfs.write_ops";
  return {};
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// The per-layer names the traced pass prints for every workload (zero
/// where the layer does not run on that workload).
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"apps.map_cb_ms", "ms"},         {"apps.reduce_cb_ms", "ms"},
      {"core.map_ms", "ms"},            {"core.emit_ms", "ms"},
      {"core.exchange_ms", "ms"},       {"core.reduce_ms", "ms"},
      {"core.emitted_kvs", "count"},    {"core.combined_kvs", "count"},
      {"core.intermediate_mb", "MB"},   {"core.unique_keys", "count"},
      {"core.exchange_rounds", "count"}, {"core.shuffle_mb", "MB"},
      {"core.map_sim_s", "sim_s"},      {"core.aggregate_sim_s", "sim_s"},
      {"core.convert_sim_s", "sim_s"},  {"core.reduce_sim_s", "sim_s"},
      {"core.partial_reduce_sim_s", "sim_s"},
      {"simmpi.allreduce_us", "us"},    {"simmpi.alltoallv_us", "us"},
      {"simmpi.spawn_join_ms", "ms"},   {"simmpi.rank_cpu_ms", "ms"},
      {"simmpi.wait_sim_s", "sim_s"},   {"simmpi.overlap_sim_s", "sim_s"},
      {"balance.recv_imbalance", "ratio"}, {"balance.split_keys", "count"},
      {"pfs.read_mb", "MB"},            {"pfs.write_mb", "MB"},
      {"pfs.read_ops", "count"},        {"pfs.write_ops", "count"},
      {"pfs.io_sim_s", "sim_s"},        {"pfs.io_wait_sim_s", "sim_s"},
      {"pfs.io_hidden_sim_s", "sim_s"}, {"memtrack.pages_peak_mb", "MB"},
      {"memtrack.shuffle_peak_mb", "MB"}, {"memtrack.convert_peak_mb", "MB"},
      {"memtrack.combine_table_peak_mb", "MB"},
      {"memtrack.node_peak_mb", "MB"},  {"sched.jobs", "count"},
      {"sched.waves", "count"},         {"sched.admitted", "count"},
      {"stats.traced_job_host_ms", "ms"}};
  return names;
}

using Figures = std::map<std::string, double>;

double max_over(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Layer figures of traced job `job` from its spans and collector.
Figures layer_figures(const Tracer& tracer,
                      const std::vector<std::vector<std::int64_t>>& self,
                      int job, const stats::Collector& collector,
                      const JobFacts& facts) {
  Figures f;
  // Host time per rank from the spans, then the mean over ranks.
  std::vector<Figures> per_rank(kRanks);
  double longest_rank = 0, main_ms = 0;
  const auto& lanes = tracer.lanes();
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    for (std::size_t i = 0; i < lanes[l].size(); ++i) {
      const Span& s = lanes[l][i];
      if (s.job != job) continue;
      const double ms = static_cast<double>(s.length()) / 1e6;
      const double self_ms = static_cast<double>(self[l][i]) / 1e6;
      const double inner_ms = static_cast<double>(s.inner) / 1e6;
      const std::string name = s.name;
      if (l == Tracer::kMain) {
        main_ms += ms;
        continue;
      }
      Figures& r = per_rank[l - 1];
      if (name == "rank.fn") longest_rank = std::max(longest_rank, ms);
      if (name == "core.map") r["core.map_ms"] += ms;
      if (name == "apps.map_cb") {
        r["apps.map_cb_ms"] += self_ms;
        r["core.emit_ms"] += inner_ms;
      }
      if (name == "core.exchange") r["core.exchange_ms"] += ms;
      if (name == "core.reduce") {
        r["core.reduce_ms"] += self_ms;
        r["apps.reduce_cb_ms"] += inner_ms;
      }
    }
  }
  for (const Figures& r : per_rank) {
    for (const auto& [k, v] : r) f[k] += v / kRanks;
  }
  f["simmpi.spawn_join_ms"] = main_ms - longest_rank;

  const stats::Summary s = collector.summary();
  auto counter = [&](const char* name) -> double {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto phase = [&](const char* name) -> double {
    const auto it = s.phase_seconds.find(name);
    return it == s.phase_seconds.end() ? 0.0 : it->second;
  };
  auto component = [&](const char* tag) -> double {
    const auto it = s.memory_components.find(tag);
    return it == s.memory_components.end()
               ? 0.0
               : static_cast<double>(it->second.peak) / kMB;
  };
  f["core.emitted_kvs"] = counter("map.emitted_kvs");
  f["core.combined_kvs"] = counter("map.combined_kvs");
  f["core.intermediate_mb"] = counter("map.intermediate_bytes") / kMB;
  f["core.unique_keys"] = counter("reduce.unique_keys");
  double rounds = 0, io_sim = 0;
  for (int r = 0; r < collector.ranks(); ++r) {
    const stats::Registry& reg = collector.rank(r);
    rounds = std::max(rounds,
                      static_cast<double>(reg.counter("shuffle.rounds")));
    const auto it = reg.timers().find("pfs.io_seconds");
    if (it != reg.timers().end()) io_sim = std::max(io_sim, it->second);
  }
  f["core.exchange_rounds"] = rounds;
  f["core.shuffle_mb"] = counter("shuffle.bytes_sent") / kMB;
  f["core.map_sim_s"] = phase("map");
  f["core.aggregate_sim_s"] = phase("aggregate");
  f["core.convert_sim_s"] = phase("convert");
  f["core.reduce_sim_s"] = phase("reduce");
  f["core.partial_reduce_sim_s"] = phase("partial_reduce");
  f["simmpi.wait_sim_s"] = max_over(s.wait_per_rank);
  f["simmpi.overlap_sim_s"] = max_over(s.overlap_per_rank);
  f["balance.recv_imbalance"] = s.recv_imbalance;
  f["balance.split_keys"] = counter("balance.split_keys");
  f["pfs.read_mb"] = static_cast<double>(facts.io.bytes_read) / kMB;
  f["pfs.write_mb"] = static_cast<double>(facts.io.bytes_written) / kMB;
  f["pfs.read_ops"] = static_cast<double>(facts.io.read_ops);
  f["pfs.write_ops"] = static_cast<double>(facts.io.write_ops);
  f["pfs.io_sim_s"] = io_sim;
  f["pfs.io_wait_sim_s"] = max_over(s.io_wait_per_rank);
  f["pfs.io_hidden_sim_s"] = max_over(s.io_hidden_per_rank);
  f["memtrack.pages_peak_mb"] = component("pages");
  f["memtrack.shuffle_peak_mb"] = component("shuffle");
  f["memtrack.convert_peak_mb"] = component("convert");
  f["memtrack.combine_table_peak_mb"] = component("combine_table");
  return f;
}

/// Host microseconds per call of allreduce_u64 and of alltoallv with
/// `msg` bytes per destination, timed on rank 0 of a 4-rank probe run
/// between barriers; the median of three probe runs.
std::pair<double, double> probe_collectives(std::uint64_t msg) {
  constexpr int kAllreduce = 2000;
  constexpr int kAlltoallv = 300;
  const simtime::MachineProfile machine = bench_machine();
  pfs::FileSystem fs(machine, kRanks);
  std::vector<double> ar, a2a;
  for (int rep = 0; rep < 3; ++rep) {
    double ar_us = 0, a2a_us = 0;
    simmpi::run(kRanks, machine, fs, [&](simmpi::Context& ctx) {
      const auto n = static_cast<std::size_t>(ctx.size());
      std::vector<std::byte> send(msg * n, std::byte{1});
      std::vector<std::byte> recv(msg * n);
      std::vector<std::uint64_t> counts(n, msg), displs(n);
      for (std::size_t d = 0; d < n; ++d) displs[d] = d * msg;
      ctx.comm.barrier();
      auto t0 = Clock::now();
      for (int i = 0; i < kAllreduce; ++i) {
        ctx.comm.allreduce_u64(static_cast<std::uint64_t>(i),
                               simmpi::Op::kSum);
      }
      ctx.comm.barrier();
      const double t_ar = seconds_since(t0);
      t0 = Clock::now();
      for (int i = 0; i < kAlltoallv; ++i) {
        ctx.comm.alltoallv(send, counts, displs, recv, counts, displs);
      }
      ctx.comm.barrier();
      const double t_a2a = seconds_since(t0);
      if (ctx.rank() == 0) {
        ar_us = t_ar * 1e6 / kAllreduce;
        a2a_us = t_a2a * 1e6 / kAlltoallv;
      }
    });
    ar.push_back(ar_us);
    a2a.push_back(a2a_us);
  }
  return {median_of(ar), median_of(a2a)};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_build/perfbench/out";
  bool self_test = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else {
      return false;
    }
  }
  return a.self_test || !a.workload.empty();
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run_benchmark(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload, Scale::kFull);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // 1. Set-up, repeated; only the input generator is timed.
  std::vector<double> setups;
  const auto time_setups = [&] {
    const auto phase_start = Clock::now();
    for (int n = 0; n < kMaxSetups && (n < kMinSetups ||
                                       seconds_since(phase_start) <
                                           kSetupSeconds);
         ++n) {
      const auto t0 = Clock::now();
      w->setup(args.seed);
      setups.push_back(seconds_since(t0));
    }
  };
  time_setups();
  std::printf("workload %s: %s\n", args.workload.c_str(),
              w->describe().c_str());

  // 2. Untimed warm-up job; its deterministic figures are the run's
  //    reference for the determinism check.
  std::vector<JobFacts> facts;
  facts.push_back(w->run(nullptr));

  // 3. Timed closed loop of identical jobs.
  std::vector<double> host_ms;
  double rss_mb = 0;
  const auto loop_start = Clock::now();
  while (static_cast<int>(host_ms.size()) < kMinJobs ||
         seconds_since(loop_start) < args.seconds) {
    const auto t0 = Clock::now();
    const JobFacts f = w->run(nullptr);
    host_ms.push_back(seconds_since(t0) * 1e3);
    facts.push_back(f);
    // 4. The simulator's own footprint, read after a fixed number of
    //    jobs: the outputs kept for the checks grow with the job count,
    //    which depends on the host's speed.
    if (static_cast<int>(host_ms.size()) == kMinJobs) rss_mb = peak_rss_mb();
  }

  // The second set-up phase regenerates the same input from the seed.
  time_setups();

  // 5. Traced pass.
  Tracer tracer(kRanks);
  std::vector<Figures> traced;
  std::vector<double> traced_ms, cpu_ms;
  for (int j = 0; j < kTracedJobs; ++j) {
    stats::Collector collector;
    TraceCtx ctx{tracer, collector, j, {}};
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    const JobFacts f = w->run(&ctx);
    traced_ms.push_back(seconds_since(t0) * 1e3);
    cpu_ms.push_back((process_cpu_seconds() - cpu0) * 1e3);
    facts.push_back(f);
    Figures fig = layer_figures(tracer, tracer.self_times(), j, collector, f);
    for (const auto& [k, v] : ctx.extra) fig[k] = v;
    traced.push_back(std::move(fig));
  }

  // 6. Checks: outputs against the reference, figures against warm-up.
  bool correct = true;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < w->outputs(); ++i) {
    const std::string why = w->check(i);
    if (!why.empty()) {
      if (correct) std::printf("CHECK FAILED job %zu: %s\n", i, why.c_str());
      correct = false;
    }
    const std::string metric = differs(facts.front(), facts[i]);
    if (!metric.empty()) {
      std::printf("NONDETERMINISTIC job %zu: %s differs from the warm-up "
                  "job\n", i, metric.c_str());
    }
    if (!why.empty() || !metric.empty()) ++failed;
  }
  const std::uint64_t attempted = facts.size();

  std::vector<double> node_mb;
  for (const JobFacts& f : facts) {
    node_mb.push_back(static_cast<double>(f.node_peak) / kMB);
  }
  const Quartiles node_q = quartiles(node_mb);

  // 7. Collective probe at the traced jobs' mean bytes per destination
  //    and exchange round (every rank runs the same number of rounds).
  const Figures& last = traced.back();
  const double rounds = last.at("core.exchange_rounds");
  const auto msg = static_cast<std::uint64_t>(std::max(
      64.0, rounds > 0 ? last.at("core.shuffle_mb") * kMB /
                             (rounds * kRanks * kRanks)
                       : 1024.0));
  const auto [allreduce_us, alltoallv_us] = probe_collectives(msg);

  // Per-layer figures: median over the traced jobs.
  Figures layers;
  for (const auto& [name, unit] : layer_metrics()) {
    std::vector<double> vals;
    for (const Figures& f : traced) {
      const auto it = f.find(name);
      vals.push_back(it == f.end() ? 0.0 : it->second);
    }
    layers[name] = median_of(vals);
  }
  layers["simmpi.allreduce_us"] = allreduce_us;
  layers["simmpi.alltoallv_us"] = alltoallv_us;
  layers["simmpi.rank_cpu_ms"] = median_of(cpu_ms);
  layers["memtrack.node_peak_mb"] = node_q.median;
  layers["stats.traced_job_host_ms"] = median_of(traced_ms);

  const JobFacts& first = facts.front();
  const Quartiles host_q = quartiles(host_ms);
  const Quartiles setup_q = quartiles(setups);
  std::vector<Metric> e2e = {
      {"job_host_ms", "ms", host_q.median},
      {"sim_s", "sim_s", first.sim_s},
      {"rank_peak_mb", "MB", static_cast<double>(first.rank_peak) / kMB},
      {"host_rss_mb", "MB", rss_mb},
      {"setup_s", "s", setup_q.median}};

  std::printf("jobs: %zu timed, 1 warm-up, %d traced; %llu failed; "
              "outputs %s\n",
              host_ms.size(), kTracedJobs,
              static_cast<unsigned long long>(failed),
              correct ? "match the reference" : "WRONG");
  std::printf("  %-14s %14s %-5s\n", "metric", "value", "unit");
  for (const Metric& m : e2e) {
    std::printf("  %-14s %14.6f %-5s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.name == "job_host_ms") {
      std::printf("  (n=%zu, q1 %.3f, q3 %.3f)", host_ms.size(), host_q.q1,
                  host_q.q3);
    } else if (m.name == "setup_s") {
      std::printf("  (n=%zu, q1 %.4f, q3 %.4f)", setups.size(), setup_q.q1,
                  setup_q.q3);
    }
    std::printf("\n");
  }
  std::printf("  node peak (not compared, drifts): median %.3f MB, range "
              "%.3f-%.3f MB over %zu jobs\n",
              node_q.median, *std::min_element(node_mb.begin(), node_mb.end()),
              *std::max_element(node_mb.begin(), node_mb.end()),
              node_mb.size());
  std::printf("  traced pass: %.3f ms per job vs %.3f untraced (%+.1f%% "
              "tracing overhead); probe message %llu B\n",
              layers["stats.traced_job_host_ms"], host_q.median,
              (layers["stats.traced_job_host_ms"] / host_q.median - 1) * 100,
              static_cast<unsigned long long>(msg));

  // Per-layer table and trace, written when the run ends.
  std::printf("per-layer (median over %d traced jobs):\n", kTracedJobs);
  for (const auto& [name, unit] : layer_metrics()) {
    std::printf("  %-32s %16.6f %s\n", name.c_str(), layers[name],
                unit.c_str());
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  const std::string stem =
      args.out + "/" + args.workload + "-seed" + std::to_string(args.seed);
  {
    std::ofstream(stem + ".trace.json") << tracer.perfetto_json(
        "perfbench " + args.workload);
    std::ofstream table(stem + ".spans.txt");
    table << "span                       calls      total_ms       self_ms\n";
    for (const auto& [name, row] : tracer.table()) {
      char line[160];
      std::snprintf(line, sizeof line, "%-24s %8llu %13.3f %13.3f\n",
                    name.c_str(), static_cast<unsigned long long>(row.calls),
                    row.total_ms, row.self_ms);
      table << line;
    }
  }
  std::printf("trace: %s.trace.json, span table: %s.spans.txt\n",
              stem.c_str(), stem.c_str());

  std::vector<Metric> out;
  if (args.trace) {
    for (const auto& [name, unit] : layer_metrics()) {
      out.push_back({name, unit, layers[name]});
    }
  } else {
    out = e2e;
  }
  print_result(correct, attempted, failed, out);
  return 0;
}

/// Each workload at small scale: one plain and one traced job must
/// pass the checks and agree; every perturbation must be rejected.
int self_test() {
  int bad = 0;
  for (const std::string& name : workload_names()) {
    std::unique_ptr<Workload> w = make_workload(name, Scale::kSmall);
    w->setup(1);
    const JobFacts plain = w->run(nullptr);
    Tracer tracer(kRanks);
    stats::Collector collector;
    TraceCtx ctx{tracer, collector, 0, {}};
    const JobFacts traced = w->run(&ctx);
    for (std::size_t i = 0; i < w->outputs(); ++i) {
      const std::string why = w->check(i);
      std::printf("%-14s job %zu %s %s\n", name.c_str(), i,
                  why.empty() ? "passes" : "FAILS:", why.c_str());
      if (!why.empty()) ++bad;
    }
    const std::string metric = differs(plain, traced);
    std::printf("%-14s traced job %s\n", name.c_str(),
                metric.empty() ? "matches the plain job"
                               : ("differs in " + metric).c_str());
    if (!metric.empty()) ++bad;
    for (const auto& [what, verdict] : w->perturbed(0)) {
      std::printf("%-14s perturbed (%s): %s\n", name.c_str(), what.c_str(),
                  verdict.empty() ? "NOT REJECTED" : verdict.c_str());
      if (verdict.empty()) ++bad;
    }
    JobFacts off = plain;
    off.sim_s = std::nextafter(off.sim_s, 1e300);
    const std::string caught = differs(plain, off);
    std::printf("%-14s perturbed (sim_s one ulp later): %s\n", name.c_str(),
                caught.empty() ? "NOT REJECTED"
                               : ("differs in " + caught).c_str());
    if (caught.empty()) ++bad;
  }
  std::printf("self-test: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <wc-wiki|pagerank-skew|"
                 "octree-ooc> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <dir>]\n       perfbench --self-test\n");
    return 2;
  }
  try {
    return args.self_test ? perfbench::self_test()
                          : perfbench::run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
