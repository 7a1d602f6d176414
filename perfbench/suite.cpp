#include "suite.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "apps/octree.hpp"
#include "apps/pagerank.hpp"
#include "apps/wordcount.hpp"
#include "mimir/job.hpp"
#include "mutil/hash.hpp"
#include "reference.hpp"
#include "sched/scheduler.hpp"
#include "simmpi/runtime.hpp"
#include "stats/registry.hpp"
#include "workloads.hpp"  // bench/workloads.hpp: bench::power_law_edges

namespace perfbench {

simtime::MachineProfile bench_machine() {
  simtime::MachineProfile m = simtime::MachineProfile::comet_sim();
  m.ranks_per_node = kRanksPerNode;
  return m;
}

namespace {

std::uint64_t max_of(const std::vector<std::uint64_t>& v) {
  return *std::max_element(v.begin(), v.end());
}

JobFacts facts_of(const simmpi::JobStats& stats,
                  const std::vector<std::uint64_t>& rank_peaks) {
  JobFacts f;
  f.sim_s = stats.sim_time;
  f.rank_peak = max_of(rank_peaks);
  f.node_peak = stats.node_peak;
  f.shuffle_bytes = stats.shuffle_bytes;
  f.io = stats.io;
  return f;
}

/// Emitter wrapper for the traced pass: an emit that advanced the
/// rank's shuffle.rounds counter ran an exchange round and becomes a
/// core.exchange child span; every other emit (encode + partition
/// buffering) is folded into the callback span as core.emit.
class TimedEmitter final : public mimir::Emitter {
 public:
  TimedEmitter(mimir::Emitter& inner, Tracer& tracer, int lane, int parent,
               int job, const stats::Registry* registry)
      : inner_(inner), tracer_(tracer), lane_(lane), parent_(parent),
        job_(job), registry_(registry) {}

  using mimir::Emitter::emit;
  void emit(std::string_view key, std::string_view value) override {
    const std::uint64_t rounds = registry_->counter("shuffle.rounds");
    const std::int64_t t0 = tracer_.now();
    inner_.emit(key, value);
    const std::int64_t t1 = tracer_.now();
    if (registry_->counter("shuffle.rounds") != rounds) {
      tracer_.record(lane_, "core.exchange", parent_, job_, t0, t1);
    } else {
      tracer_.fold(lane_, parent_, "core.emit", t1 - t0);
    }
  }

 private:
  mimir::Emitter& inner_;
  Tracer& tracer_;
  int lane_;
  int parent_;
  int job_;
  const stats::Registry* registry_;
};

// --- wc-wiki ---------------------------------------------------------------

class WcWiki final : public Workload {
 public:
  explicit WcWiki(Scale scale) {
    gen_.total_bytes = scale == Scale::kFull ? 16ull << 20 : 1ull << 20;
    gen_.num_files = kRanks;
    gen_.zipf_exponent = 1.05;
  }

  void setup(std::uint64_t seed) override {
    fs_.reset();
    fs_ = std::make_unique<pfs::FileSystem>(machine_, kRanks);
    gen_.seed = seed;
    files_ = apps::wc::generate_wikipedia(*fs_, "wc", gen_);
    reference_.reset();
  }

  std::string describe() const override {
    std::ostringstream out;
    out << gen_.total_bytes << " B of Zipf(" << gen_.zipf_exponent
        << ") text in " << gen_.num_files << " pfs files, seed " << gen_.seed
        << "; default path (no hint/pr/cps/overlap/balance), read-ahead on";
    return out.str();
  }

  JobFacts run(TraceCtx* trace) override {
    std::vector<std::uint64_t> peaks(kRanks, 0);
    WcAnswer answer;
    simmpi::JobStats stats;
    if (trace == nullptr) {
      apps::wc::RunOptions opts;
      opts.files = files_;
      opts.prefetch = true;
      stats = simmpi::run(kRanks, machine_, *fs_, [&](simmpi::Context& ctx) {
        const apps::wc::Result r = apps::wc::run_mimir(ctx, opts);
        peaks[static_cast<std::size_t>(ctx.rank())] = ctx.tracker.peak();
        if (ctx.rank() == 0) {
          answer = {r.total_words, r.unique_words, r.checksum};
        }
      });
    } else {
      stats = run_traced(*trace, peaks, answer);
    }
    outputs_.push_back(answer);
    return facts_of(stats, peaks);
  }

  std::size_t outputs() const override { return outputs_.size(); }

  std::string check(std::size_t i) override {
    if (!reference_) reference_ = wc_reference(*fs_, files_);
    return wc_check(*reference_, outputs_[i]);
  }

  std::vector<std::pair<std::string, std::string>> perturbed(
      std::size_t i) override {
    std::vector<std::pair<std::string, std::string>> out;
    WcAnswer a = outputs_[i];
    ++a.total_words;
    out.emplace_back("one word counted twice", probe(a));
    a = outputs_[i];
    --a.unique_words;
    out.emplace_back("one distinct word lost", probe(a));
    a = outputs_[i];
    a.count_digest += mutil::hash_bytes("the") - mutil::hash_bytes("thy");
    out.emplace_back("one count moved to another word", probe(a));
    return out;
  }

 private:
  std::string probe(const WcAnswer& a) {
    outputs_.push_back(a);
    std::string verdict = check(outputs_.size() - 1);
    outputs_.pop_back();
    return verdict;
  }

  /// apps::wc::run_mimir's job, driven through mimir::Job with timed
  /// callbacks and emitter; the digest is computed the same way.
  simmpi::JobStats run_traced(TraceCtx& t, std::vector<std::uint64_t>& peaks,
                              WcAnswer& answer) {
    Tracer& tr = t.tracer;
    const int id = t.job;
    const SpanScope run_span(&tr, Tracer::kMain, "simmpi.run", -1, id);
    return simmpi::run(
        kRanks, machine_, *fs_,
        [&](simmpi::Context& ctx) {
          const int lane = Tracer::rank_lane(ctx.rank());
          const SpanScope fn(&tr, lane, "rank.fn", -1, id);
          const stats::Registry* registry = stats::current();
          mimir::JobConfig cfg;
          cfg.prefetch = true;
          mimir::Job job(ctx, cfg);
          {
            const SpanScope map(&tr, lane, "core.map", fn.index(), id);
            job.map_text_files(
                files_, [&](std::string_view chunk, mimir::Emitter& out) {
                  const SpanScope cb(&tr, lane, "apps.map_cb", map.index(),
                                     id);
                  TimedEmitter timed(out, tr, lane, cb.index(), id,
                                     registry);
                  apps::wc::map_words(chunk, timed);
                });
          }
          {
            const SpanScope red(&tr, lane, "core.reduce", fn.index(), id);
            job.reduce([&](std::string_view key, mimir::ValueReader& values,
                           mimir::Emitter& out) {
              const std::int64_t t0 = tr.now();
              apps::wc::reduce_counts(key, values, out);
              tr.fold(lane, red.index(), "apps.reduce_cb", tr.now() - t0);
            });
          }
          WcAnswer local;
          job.output().scan([&](const mimir::KVView& kv) {
            const std::uint64_t count = mimir::as_u64(kv.value);
            local.total_words += count;
            ++local.unique_words;
            local.count_digest += mutil::hash_bytes(kv.key) * count;
          });
          WcAnswer global;
          global.total_words =
              ctx.comm.allreduce_u64(local.total_words, simmpi::Op::kSum);
          global.unique_words =
              ctx.comm.allreduce_u64(local.unique_words, simmpi::Op::kSum);
          global.count_digest =
              ctx.comm.allreduce_u64(local.count_digest, simmpi::Op::kSum);
          peaks[static_cast<std::size_t>(ctx.rank())] = ctx.tracker.peak();
          if (ctx.rank() == 0) answer = global;
        },
        &t.collector);
  }

  simtime::MachineProfile machine_ = bench_machine();
  apps::wc::GenOptions gen_;
  std::unique_ptr<pfs::FileSystem> fs_;
  std::vector<std::string> files_;
  std::vector<WcAnswer> outputs_;
  std::optional<WcAnswer> reference_;
};

// --- pagerank-skew ----------------------------------------------------------

class PagerankSkew final : public Workload {
 public:
  explicit PagerankSkew(Scale scale) {
    opts_.scale = scale == Scale::kFull ? 12 : 8;
    opts_.edge_factor = 16;
    opts_.iterations = scale == Scale::kFull ? 30 : 5;
    opts_.hint = true;
    opts_.cps = true;
    opts_.overlap = true;
    opts_.balance = true;
  }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    opts_.edges = bench::power_law_edges(opts_.num_vertices(),
                                         opts_.num_vertices() *
                                             static_cast<std::uint64_t>(
                                                 opts_.edge_factor),
                                         kSkew, seed);
    reference_.reset();
  }

  std::string describe() const override {
    std::ostringstream out;
    out << opts_.num_vertices() << " vertices, " << opts_.num_edges()
        << " edges, power-law skew " << kSkew << ", seed " << seed_ << "; "
        << opts_.iterations << " iterations + top-" << kTopK
        << " on sched; hint, cps, overlap, balance on";
    return out.str();
  }

  JobFacts run(TraceCtx* trace) override {
    apps::pr::SchedRun sr = apps::pr::make_sched(opts_, kRanks, kTopK);
    auto contribs = std::make_shared<
        std::vector<std::vector<std::pair<std::uint64_t, double>>>>(kRanks);
    Tracer* tr = trace != nullptr ? &trace->tracer : nullptr;
    const int id = trace != nullptr ? trace->job : -1;
    std::vector<int> fn_span(kRanks, -1);

    // Rebuild the graph node by node so the top-k node's kv_map also
    // records each final contribution it receives (the output check
    // needs them), and so the traced pass can time the app hooks.
    sched::Graph graph;
    for (int n = 0; n < sr.graph.size(); ++n) {
      sched::JobNode node = sr.graph.node(n);
      if (node.kv_map) {
        node.kv_map = [inner = node.kv_map, contribs](
                          sched::NodeCtx& nctx, std::string_view key,
                          std::string_view value, mimir::Emitter& out) {
          (*contribs)[static_cast<std::size_t>(nctx.world_rank)]
              .emplace_back(mimir::as_u64(key), mimir::as_f64(value));
          inner(nctx, key, value, out);
        };
      }
      if (tr != nullptr) {
        if (node.producer) {
          // The producer is the node's map callback: timed like wc's,
          // with its emits split into core.emit and core.exchange.
          node.producer = [inner = node.producer, tr, id, &fn_span](
                              sched::NodeCtx& nctx, mimir::Emitter& out) {
            const int r = nctx.world_rank;
            const int lane = Tracer::rank_lane(r);
            const SpanScope s(tr, lane, "apps.map_cb",
                              fn_span[static_cast<std::size_t>(r)], id);
            TimedEmitter timed(out, *tr, lane, s.index(), id,
                               stats::current());
            inner(nctx, timed);
          };
        }
        if (node.consume) {
          node.consume = [inner = node.consume, tr, id, &fn_span](
                             sched::NodeCtx& nctx, mimir::KVContainer& out) {
            const int r = nctx.world_rank;
            const SpanScope s(tr, Tracer::rank_lane(r), "apps.consume",
                              fn_span[static_cast<std::size_t>(r)], id);
            inner(nctx, out);
          };
        }
      }
      graph.add(std::move(node));
    }
    for (int n = 0; n < sr.graph.size(); ++n) {
      const auto& inputs = sr.graph.inputs(n);
      for (const int p : inputs) graph.add_edge(p, n);
      for (const int p : sr.graph.predecessors(n)) {
        if (std::find(inputs.begin(), inputs.end(), p) == inputs.end()) {
          graph.add_order(p, n);
        }
      }
    }

    std::vector<std::uint64_t> peaks(kRanks, 0);
    sched::GraphOptions options = sr.options;
    options.make_state = [inner = sr.options.make_state, tr, id,
                          &fn_span](simmpi::Context& ctx) {
      if (tr != nullptr) {
        fn_span[static_cast<std::size_t>(ctx.rank())] = tr->begin(
            Tracer::rank_lane(ctx.rank()), "rank.fn", -1, id);
      }
      return inner(ctx);
    };
    options.epilogue = [inner = sr.options.epilogue, tr, &fn_span,
                        &peaks](sched::NodeCtx& nctx) {
      inner(nctx);
      const auto r = static_cast<std::size_t>(nctx.world_rank);
      peaks[r] = nctx.exec.tracker.peak();
      if (tr != nullptr) tr->end(Tracer::rank_lane(nctx.world_rank),
                                 fn_span[r]);
    };

    sched::GraphOutcome outcome;
    {
      const SpanScope s(tr, Tracer::kMain, "sched.run_graph", -1, id);
      outcome = sched::run_graph(kRanks, machine_, fs_, graph, options,
                                 trace != nullptr ? &trace->collector
                                                  : nullptr);
    }
    if (trace != nullptr) {
      trace->extra["sched.jobs"] = outcome.jobs();
      trace->extra["sched.waves"] = outcome.waves();
      trace->extra["sched.admitted"] = outcome.admitted();
    }

    PrOutput output;
    output.result = sr.results->front();
    for (const auto& top : *sr.tops) {
      output.top.insert(output.top.end(), top.begin(), top.end());
    }
    for (const auto& part : *contribs) {
      output.contributions.insert(output.contributions.end(), part.begin(),
                                  part.end());
    }
    outputs_.push_back(std::move(output));
    return facts_of(outcome.stats, peaks);
  }

  std::size_t outputs() const override { return outputs_.size(); }

  std::string check(std::size_t i) override {
    if (!reference_) {
      reference_ = pr_reference(*opts_.edges, opts_.num_vertices(),
                                opts_.iterations, opts_.damping);
    }
    return pr_check(*reference_, outputs_[i], opts_.num_vertices(),
                    opts_.damping, kTopK);
  }

  std::vector<std::pair<std::string, std::string>> perturbed(
      std::size_t i) override {
    std::vector<std::pair<std::string, std::string>> out;
    PrOutput p = outputs_[i];
    p.contributions.back().second *= 1 + 1e-6;
    out.emplace_back("one contribution off by 1e-6", probe(p));
    p = outputs_[i];
    p.contributions.pop_back();
    out.emplace_back("one contribution lost", probe(p));
    p = outputs_[i];
    p.result.max_rank *= 1 + 1e-6;
    out.emplace_back("max rank off by 1e-6", probe(p));
    p = outputs_[i];
    p.result.total_rank += 1e-6;
    out.emplace_back("rank sum off by 1e-6", probe(p));
    p = outputs_[i];
    std::swap(p.top.front(), p.top.back());
    out.emplace_back("top list out of order", probe(p));
    return out;
  }

 private:
  static constexpr double kSkew = 1.1;
  static constexpr int kTopK = 10;

  std::string probe(PrOutput p) {
    outputs_.push_back(std::move(p));
    std::string verdict = check(outputs_.size() - 1);
    outputs_.pop_back();
    return verdict;
  }

  simtime::MachineProfile machine_ = bench_machine();
  pfs::FileSystem fs_{machine_, kRanks};
  apps::pr::RunOptions opts_;
  std::uint64_t seed_ = 0;
  std::vector<PrOutput> outputs_;
  std::optional<PrAnswer> reference_;
};

// --- octree-ooc -------------------------------------------------------------

class OctreeOoc final : public Workload {
 public:
  explicit OctreeOoc(Scale scale) {
    opts_.num_points = scale == Scale::kFull ? 1ull << 20 : 1ull << 14;
    opts_.sigma = 0.5;
    opts_.density = 0.01;
    opts_.max_depth = 8;
    opts_.hint = true;
    opts_.pr = true;
    opts_.prefetch = true;
    opts_.ooc_live_bytes = scale == Scale::kFull ? 256ull << 10 : 32ull << 10;
  }

  void setup(std::uint64_t seed) override {
    opts_.seed = seed;
    points_.clear();
    for (int r = 0; r < kRanks; ++r) {
      const auto part = apps::oc::generate_points(opts_.num_points, r,
                                                  kRanks, seed, opts_.sigma);
      points_.insert(points_.end(), part.begin(), part.end());
    }
    reference_.reset();
  }

  std::string describe() const override {
    std::ostringstream out;
    out << opts_.num_points << " normal points (sigma " << opts_.sigma
        << "), seed " << opts_.seed << ", density " << opts_.density
        << ", max depth " << opts_.max_depth << "; hint, pr, prefetch on, "
        << "ooc_live_bytes " << opts_.ooc_live_bytes;
    return out.str();
  }

  JobFacts run(TraceCtx* trace) override {
    std::vector<std::uint64_t> peaks(kRanks, 0);
    apps::oc::Result result;
    Tracer* tr = trace != nullptr ? &trace->tracer : nullptr;
    const int id = trace != nullptr ? trace->job : -1;
    simmpi::JobStats stats;
    {
      const SpanScope s(tr, Tracer::kMain, "simmpi.run", -1, id);
      stats = simmpi::run(
          kRanks, machine_, fs_,
          [&](simmpi::Context& ctx) {
            const SpanScope fn(tr, Tracer::rank_lane(ctx.rank()), "rank.fn",
                               -1, id);
            const apps::oc::Result r = apps::oc::run_mimir(ctx, opts_);
            peaks[static_cast<std::size_t>(ctx.rank())] = ctx.tracker.peak();
            if (ctx.rank() == 0) result = r;
          },
          trace != nullptr ? &trace->collector : nullptr);
    }
    outputs_.push_back(result);
    return facts_of(stats, peaks);
  }

  std::size_t outputs() const override { return outputs_.size(); }

  std::string check(std::size_t i) override {
    if (!reference_) {
      reference_ = oc_reference(points_, opts_.density, opts_.max_depth);
    }
    return oc_check(*reference_, outputs_[i], opts_.num_points,
                    opts_.density);
  }

  std::vector<std::pair<std::string, std::string>> perturbed(
      std::size_t i) override {
    std::vector<std::pair<std::string, std::string>> out;
    apps::oc::Result r = outputs_[i];
    ++r.levels;
    out.emplace_back("one level too deep", probe(r));
    r = outputs_[i];
    --r.dense_octants;
    out.emplace_back("one dense octant lost", probe(r));
    r = outputs_[i];
    --r.clustered_points;
    out.emplace_back("one clustered point lost", probe(r));
    r = outputs_[i];
    r.checksum ^= 1;
    out.emplace_back("a different dense octant", probe(r));
    return out;
  }

 private:
  std::string probe(const apps::oc::Result& r) {
    outputs_.push_back(r);
    std::string verdict = check(outputs_.size() - 1);
    outputs_.pop_back();
    return verdict;
  }

  simtime::MachineProfile machine_ = bench_machine();
  pfs::FileSystem fs_{machine_, kRanks};
  apps::oc::RunOptions opts_;
  std::vector<apps::oc::Point> points_;
  std::vector<apps::oc::Result> outputs_;
  std::optional<OcAnswer> reference_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"wc-wiki", "pagerank-skew",
                                                 "octree-ooc"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        Scale scale) {
  if (name == "wc-wiki") return std::make_unique<WcWiki>(scale);
  if (name == "pagerank-skew") return std::make_unique<PagerankSkew>(scale);
  if (name == "octree-ooc") return std::make_unique<OctreeOoc>(scale);
  return nullptr;
}

}  // namespace perfbench
