// Micro-benchmarks (google-benchmark) for the hot paths of the core
// library: KV encode/decode under each hint, container append/scan,
// combiner upserts, the convert pipeline, dataset generators, and the
// balance sampler and plan lookups that run per emitted KV.
#include <benchmark/benchmark.h>

#include "balance/plan.hpp"
#include "balance/sketch.hpp"
#include "mimir/mimir.hpp"
#include "mutil/hash.hpp"
#include "mutil/random.hpp"

namespace {

using mimir::KVCodec;
using mimir::KVHint;

void BM_CodecEncode(benchmark::State& state) {
  const KVCodec codec(state.range(0) == 0
                          ? KVHint::variable()
                          : KVHint::string_key_u64_value());
  const std::string key = "benchmark";
  const std::uint64_t value = 42;
  std::vector<std::byte> buf(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec.encode(buf.data(), key, mimir::as_view(value)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CodecEncode)->Arg(0)->Arg(1);

void BM_CodecDecodeStream(benchmark::State& state) {
  const KVCodec codec{KVHint::variable()};
  std::vector<std::byte> buf;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key" + std::to_string(i);
    const std::size_t old = buf.size();
    buf.resize(old + codec.encoded_size(key, "valuevalue"));
    codec.encode(buf.data() + old, key, "valuevalue");
  }
  for (auto _ : state) {
    std::size_t n = 0;
    codec.for_each(buf, [&](const mimir::KVView&) { ++n; });
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_CodecDecodeStream);

void BM_KvcAppend(benchmark::State& state) {
  memtrack::Tracker tracker;
  const std::string key = "some-word";
  const std::uint64_t one = 1;
  for (auto _ : state) {
    mimir::KVContainer kvc(tracker, 64 << 10);
    for (int i = 0; i < 1000; ++i) kvc.append(key, mimir::as_view(one));
    benchmark::DoNotOptimize(kvc.num_kvs());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_KvcAppend);

void BM_CombineUpsert(benchmark::State& state) {
  memtrack::Tracker tracker;
  const std::int64_t distinct = state.range(0);
  std::vector<std::string> keys;
  keys.reserve(static_cast<std::size_t>(distinct));
  for (std::int64_t i = 0; i < distinct; ++i) {
    keys.push_back("key" + std::to_string(i));
  }
  const auto combiner = [](std::string_view, std::string_view a,
                           std::string_view b, std::string& out) {
    const std::uint64_t total = mimir::as_u64(a) + mimir::as_u64(b);
    out.assign(mimir::as_view(total));
  };
  const std::uint64_t one = 1;
  std::size_t next = 0;
  mimir::CombineTable table(tracker, 64 << 10,
                            KVHint::string_key_u64_value(), combiner);
  for (auto _ : state) {
    table.upsert(keys[next], mimir::as_view(one));
    next = (next + 1) % keys.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CombineUpsert)->Arg(16)->Arg(4096)->Arg(1 << 16);

void BM_Convert(benchmark::State& state) {
  const std::int64_t kvs = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    auto machine = simtime::MachineProfile::test_profile();
    pfs::FileSystem fs(machine, 1);
    state.ResumeTiming();
    simmpi::run(1, machine, fs, [&](simmpi::Context& ctx) {
      mimir::KVContainer kvc(ctx.tracker, 64 << 10);
      for (std::int64_t i = 0; i < kvs; ++i) {
        kvc.append("key" + std::to_string(i % 97), "value");
      }
      auto kmvc = mimir::convert(ctx, kvc, 64 << 10);
      benchmark::DoNotOptimize(kmvc.num_kmvs());
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kvs);
}
BENCHMARK(BM_Convert)->Arg(1000)->Arg(10000);

void BM_ZipfSample(benchmark::State& state) {
  mutil::ZipfSampler zipf(1 << 20, 1.05);
  mutil::Xoshiro256 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfSample);

void BM_HashBytes(benchmark::State& state) {
  const std::string key(static_cast<std::size_t>(state.range(0)), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(mutil::hash_bytes(key));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashBytes)->Arg(8)->Arg(64);

/// Zipf-distributed keys over 2^16 distinct ids: a few hot keys over a
/// long tail, so most offers miss the heavy table and evict.
std::vector<std::string> tail_heavy_keys(std::size_t n) {
  mutil::ZipfSampler zipf(1 << 16, 1.05);
  mutil::Xoshiro256 rng(7);
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back("v" + std::to_string(zipf.sample(rng)));
  }
  return keys;
}

void BM_SketchOffer(benchmark::State& state) {
  const std::vector<std::string> keys = tail_heavy_keys(1 << 14);
  balance::KeyFreqSketch sketch(64, 256, 8);
  std::size_t next = 0;
  for (auto _ : state) {
    const std::string& key = keys[next];
    sketch.offer(key, 8 + key.size(), static_cast<int>(next & 7));
    next = (next + 1) & (keys.size() - 1);
  }
  benchmark::DoNotOptimize(sketch.total_bytes());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SketchOffer);

void BM_PlanRoute(benchmark::State& state) {
  constexpr int kRanks = 8;
  const std::vector<std::string> keys = tail_heavy_keys(1 << 14);
  balance::KeyFreqSketch sketch(64, 256, kRanks);
  for (const std::string& key : keys) {
    sketch.offer(key, 8 + key.size(),
                 static_cast<int>(mutil::hash_bytes(key) % kRanks));
  }
  balance::Options opts;
  opts.enabled = true;
  const balance::Plan plan = balance::build_plan(sketch, kRanks, opts);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan.route(keys[next], 0, static_cast<int>(next % kRanks)));
    next = (next + 1) & (keys.size() - 1);
  }
  state.counters["plan_keys"] = static_cast<double>(plan.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PlanRoute);

}  // namespace

BENCHMARK_MAIN();
