#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <numeric>
#include <vector>

#include "check/checker.hpp"
#include "mutil/error.hpp"
#include "simmpi/runtime.hpp"
#include "stats/registry.hpp"
#include "stats/trace.hpp"

namespace {

using simmpi::Context;
using simmpi::Op;

// Parameterized over rank counts, including non-powers of two.
class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, BarrierSynchronizesClocks) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    // Each rank starts with a different local time; barrier must bring
    // everyone to at least the max.
    ctx.clock().advance(ctx.rank() * 1.0);
    ctx.comm.barrier();
    EXPECT_GE(ctx.clock().now(), ctx.size() - 1.0);
  });
}

TEST_P(CollectiveTest, AllreduceSumMaxMin) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const int r = ctx.rank();
    const int n = ctx.size();
    EXPECT_EQ(ctx.comm.allreduce_i64(r, Op::kSum),
              static_cast<std::int64_t>(n) * (n - 1) / 2);
    EXPECT_EQ(ctx.comm.allreduce_i64(r, Op::kMax), n - 1);
    EXPECT_EQ(ctx.comm.allreduce_i64(r - 5, Op::kMin), -5);
    EXPECT_DOUBLE_EQ(ctx.comm.allreduce_f64(0.5, Op::kSum), 0.5 * n);
    EXPECT_EQ(ctx.comm.allreduce_u64(r + 1, Op::kMax),
              static_cast<std::uint64_t>(n));
  });
}

TEST_P(CollectiveTest, AllreduceLogicalOps) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const bool only_last = ctx.rank() == ctx.size() - 1;
    EXPECT_TRUE(ctx.comm.allreduce_lor(only_last));
    EXPECT_FALSE(ctx.comm.allreduce_lor(false));
    EXPECT_FALSE(ctx.comm.allreduce_land(only_last) && ctx.size() > 1);
    EXPECT_TRUE(ctx.comm.allreduce_land(true));
  });
}

TEST_P(CollectiveTest, AllgatherCollectsInRankOrder) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const auto values = ctx.comm.allgather_i64(ctx.rank() * 10);
    ASSERT_EQ(values.size(), static_cast<std::size_t>(ctx.size()));
    for (int i = 0; i < ctx.size(); ++i) {
      EXPECT_EQ(values[static_cast<std::size_t>(i)], i * 10);
    }
  });
}

TEST_P(CollectiveTest, BcastDistributesRootValue) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const int root = ctx.size() - 1;
    EXPECT_EQ(ctx.comm.bcast_u64(ctx.rank() == root ? 777u : 0u, root),
              777u);
    std::vector<std::byte> buf(16);
    if (ctx.rank() == root) {
      std::memset(buf.data(), 0x5a, buf.size());
    }
    ctx.comm.bcast(buf, root);
    for (const auto b : buf) {
      EXPECT_EQ(static_cast<unsigned char>(b), 0x5a);
    }
  });
}

TEST_P(CollectiveTest, AlltoallU64Transposes) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const int r = ctx.rank();
    const int n = ctx.size();
    // values[d] = r * 100 + d; after exchange, result[s] = s * 100 + r.
    std::vector<std::uint64_t> values(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      values[static_cast<std::size_t>(d)] =
          static_cast<std::uint64_t>(r * 100 + d);
    }
    const auto result = ctx.comm.alltoall_u64(values);
    ASSERT_EQ(result.size(), static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(result[static_cast<std::size_t>(s)],
                static_cast<std::uint64_t>(s * 100 + r));
    }
  });
}

TEST_P(CollectiveTest, AlltoallvMovesVariableBlocks) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const int r = ctx.rank();
    const int n = ctx.size();
    // Rank r sends (d + 1) copies of byte value r to rank d.
    std::vector<std::uint64_t> send_counts(static_cast<std::size_t>(n));
    std::vector<std::uint64_t> send_displs(static_cast<std::size_t>(n));
    std::uint64_t total = 0;
    for (int d = 0; d < n; ++d) {
      send_displs[static_cast<std::size_t>(d)] = total;
      send_counts[static_cast<std::size_t>(d)] =
          static_cast<std::uint64_t>(d + 1);
      total += static_cast<std::uint64_t>(d + 1);
    }
    std::vector<std::byte> send(total, static_cast<std::byte>(r));

    const auto recv_counts = ctx.comm.alltoall_u64(send_counts);
    std::vector<std::uint64_t> recv_displs(static_cast<std::size_t>(n));
    std::uint64_t recv_total = 0;
    for (int s = 0; s < n; ++s) {
      recv_displs[static_cast<std::size_t>(s)] = recv_total;
      recv_total += recv_counts[static_cast<std::size_t>(s)];
    }
    // Everyone sends me (r + 1) bytes.
    EXPECT_EQ(recv_total, static_cast<std::uint64_t>(n) * (r + 1));
    std::vector<std::byte> recv(recv_total);
    ctx.comm.alltoallv(send, send_counts, send_displs, recv, recv_counts,
                       recv_displs);
    for (int s = 0; s < n; ++s) {
      for (std::uint64_t i = 0; i < recv_counts[static_cast<std::size_t>(s)];
           ++i) {
        EXPECT_EQ(static_cast<int>(
                      recv[recv_displs[static_cast<std::size_t>(s)] + i]),
                  s);
      }
    }
    EXPECT_GE(ctx.comm.stats().bytes_sent, total);
  });
}

TEST_P(CollectiveTest, GathervConcatenatesAtRoot) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    const std::string mine(static_cast<std::size_t>(ctx.rank() + 1),
                           static_cast<char>('a' + ctx.rank() % 26));
    const auto result = ctx.comm.gatherv(
        0, std::span<const std::byte>(
               reinterpret_cast<const std::byte*>(mine.data()), mine.size()));
    if (ctx.rank() == 0) {
      ASSERT_EQ(result.counts.size(), static_cast<std::size_t>(ctx.size()));
      std::uint64_t offset = 0;
      for (int s = 0; s < ctx.size(); ++s) {
        EXPECT_EQ(result.counts[static_cast<std::size_t>(s)],
                  static_cast<std::uint64_t>(s + 1));
        for (std::uint64_t i = 0; i < result.counts[static_cast<std::size_t>(s)]; ++i) {
          EXPECT_EQ(static_cast<char>(result.data[offset + i]),
                    static_cast<char>('a' + s % 26));
        }
        offset += result.counts[static_cast<std::size_t>(s)];
      }
    } else {
      EXPECT_TRUE(result.data.empty());
    }
  });
}

TEST_P(CollectiveTest, RepeatedCollectivesStaySound) {
  const int p = GetParam();
  simmpi::run_test(p, [](Context& ctx) {
    // Stress generation handling: many back-to-back collectives.
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(ctx.comm.allreduce_i64(1, Op::kSum), ctx.size());
      ctx.comm.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 7, 16));

TEST(CollectiveErrors, AlltoallvChecksBounds) {
  EXPECT_THROW(
      simmpi::run_test(2,
                       [](Context& ctx) {
                         std::vector<std::byte> send(4), recv(4);
                         std::vector<std::uint64_t> counts{8, 8};  // > size
                         std::vector<std::uint64_t> displs{0, 0};
                         ctx.comm.alltoallv(send, counts, displs, recv,
                                            counts, displs);
                       }),
      mutil::CommError);
}

// A displacement near UINT64_MAX must not let displ + count wrap past
// the bounds check: the copy would then touch the byte before the
// buffer. Each wrap is a local-bounds error, diagnosed and thrown.
void expect_wrap_rejected(const char* code,
                          const std::function<void(Context&)>& call) {
  check::Report report;
  check::JobChecker checker(report);
  EXPECT_THROW(simmpi::run_test(1, call, nullptr, &checker),
               mutil::CommError);
  EXPECT_EQ(report.count(code), 1u);
}

TEST(CollectiveErrors, AlltoallvSendRegionWrapIsRejected) {
  expect_wrap_rejected("alltoallv-local-bounds", [](Context& ctx) {
    std::vector<std::byte> send(4), recv(2);
    const std::vector<std::uint64_t> counts{2}, displs{0};
    const std::vector<std::uint64_t> wrapped{UINT64_MAX};
    ctx.comm.alltoallv(send, counts, wrapped, recv, counts, displs);
  });
}

TEST(CollectiveErrors, AlltoallvRecvRegionWrapIsRejected) {
  expect_wrap_rejected("alltoallv-local-bounds", [](Context& ctx) {
    std::vector<std::byte> send(2), recv(4);
    const std::vector<std::uint64_t> counts{2}, displs{0};
    const std::vector<std::uint64_t> wrapped{UINT64_MAX};
    ctx.comm.alltoallv(send, counts, displs, recv, counts, wrapped);
  });
}

TEST(CollectiveErrors, IalltoallvSendRegionWrapIsRejected) {
  expect_wrap_rejected("ialltoallv-local-bounds", [](Context& ctx) {
    std::vector<std::byte> send(4), recv(2);
    const std::vector<std::uint64_t> counts{2};
    const std::vector<std::uint64_t> wrapped{UINT64_MAX};
    ctx.comm.ialltoallv(send, counts, wrapped, recv).wait();
  });
}

TEST(CollectiveErrors, BadRootRejected) {
  EXPECT_THROW(simmpi::run_test(
                   2, [](Context& ctx) { ctx.comm.bcast_u64(1, 5); }),
               mutil::CommError);
}

TEST(CollectiveClocks, AlltoallvChargesBytesOverBandwidth) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.net_latency = 0.0;
  machine.net_bandwidth = 1000.0;  // 1000 B/s for easy math
  pfs::FileSystem fs(machine, 2);
  simmpi::run(2, machine, fs, [](Context& ctx) {
    std::vector<std::byte> send(2000), recv(2000);
    std::vector<std::uint64_t> counts{1000, 1000};
    std::vector<std::uint64_t> displs{0, 1000};
    ctx.comm.alltoallv(send, counts, displs, recv, counts, displs);
    // 2000 bytes at 1000 B/s = 2 simulated seconds.
    EXPECT_DOUBLE_EQ(ctx.clock().now(), 2.0);
  });
}

// --- per-collective clock and stats pins -----------------------------------
//
// Every blocking collective charges max(entry clocks) + latency * rounds
// (+ bytes / bandwidth for the payload collectives), records the time a
// rank sat in the rendezvous as wait, and bumps CommStats. Four ranks
// enter rank r at r * 0.5 s; latency 0.125 s over 2 rounds = 0.25 s per
// collective; bandwidth 1000 B/s.

constexpr int kPinRanks = 4;
constexpr double kPinLatency = 0.125;
constexpr double kPinBandwidth = 1000.0;
constexpr double kPinCollective = 2 * kPinLatency;
constexpr double kPinLastEntry = 0.5 * (kPinRanks - 1);

struct PinExpect {
  double clock = 0.0;
  double wait = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t collectives = 0;
};

struct PinCase {
  const char* name;
  std::function<void(Context&)> call;
  std::function<PinExpect(int rank)> expect;
};

/// Entry wait of rank r: the gap to the last rank's entry.
double entry_wait(int r) { return kPinLastEntry - 0.5 * r; }

/// A latency-only collective: everyone leaves at last entry + latency.
PinExpect latency_only(int r) {
  return {kPinLastEntry + kPinCollective, entry_wait(r), 0, 0, 1};
}

std::vector<std::byte> pin_payload(int r) {
  return std::vector<std::byte>(static_cast<std::size_t>(r + 1) * 100,
                                static_cast<std::byte>(r));
}

std::vector<PinCase> pin_cases() {
  std::vector<PinCase> cases;
  cases.push_back({"barrier", [](Context& ctx) { ctx.comm.barrier(); },
                   latency_only});
  cases.push_back(
      {"alltoallv",
       [](Context& ctx) {
         // Rank r sends (r + 1) * 10 bytes to every rank.
         const auto n = static_cast<std::size_t>(ctx.size());
         const std::uint64_t chunk =
             static_cast<std::uint64_t>(ctx.rank() + 1) * 10;
         std::vector<std::uint64_t> send_counts(n, chunk), send_displs(n);
         std::vector<std::uint64_t> recv_counts(n), recv_displs(n);
         std::uint64_t recv_total = 0;
         for (std::size_t i = 0; i < n; ++i) {
           send_displs[i] = chunk * i;
           recv_counts[i] = (i + 1) * 10;
           recv_displs[i] = recv_total;
           recv_total += recv_counts[i];
         }
         std::vector<std::byte> send(chunk * n), recv(recv_total);
         ctx.comm.alltoallv(send, send_counts, send_displs, recv,
                            recv_counts, recv_displs);
       },
       [](int r) {
         const std::uint64_t sent = 40 * static_cast<std::uint64_t>(r + 1);
         const std::uint64_t received = 100;  // 10 + 20 + 30 + 40
         return PinExpect{kPinLastEntry + kPinCollective +
                              static_cast<double>(std::max(sent, received)) /
                                  kPinBandwidth,
                          entry_wait(r), sent, received, 1};
       }});
  cases.push_back({"alltoall_u64",
                   [](Context& ctx) {
                     const std::vector<std::uint64_t> values(
                         static_cast<std::size_t>(ctx.size()), 7);
                     (void)ctx.comm.alltoall_u64(values);
                   },
                   latency_only});
  cases.push_back({"allreduce_i64",
                   [](Context& ctx) {
                     (void)ctx.comm.allreduce_i64(ctx.rank(), Op::kSum);
                   },
                   latency_only});
  cases.push_back({"allreduce_u64",
                   [](Context& ctx) {
                     (void)ctx.comm.allreduce_u64(1, Op::kMax);
                   },
                   latency_only});
  cases.push_back({"allreduce_f64",
                   [](Context& ctx) {
                     (void)ctx.comm.allreduce_f64(0.5, Op::kMin);
                   },
                   latency_only});
  cases.push_back({"allreduce_lor",
                   [](Context& ctx) {
                     (void)ctx.comm.allreduce_lor(ctx.rank() == 0);
                   },
                   latency_only});
  cases.push_back({"allreduce_land",
                   [](Context& ctx) {
                     (void)ctx.comm.allreduce_land(ctx.rank() == 0);
                   },
                   latency_only});
  cases.push_back({"allgather_i64",
                   [](Context& ctx) {
                     (void)ctx.comm.allgather_i64(-ctx.rank());
                   },
                   latency_only});
  cases.push_back({"allgather_u64",
                   [](Context& ctx) {
                     (void)ctx.comm.allgather_u64(
                         static_cast<std::uint64_t>(ctx.rank()));
                   },
                   latency_only});
  cases.push_back({"bcast",
                   [](Context& ctx) {
                     std::vector<std::byte> buf(200);
                     ctx.comm.bcast(buf, 1);
                   },
                   [](int r) {
                     // bcast charges the payload but counts no bytes.
                     return PinExpect{kPinLastEntry + kPinCollective +
                                          200 / kPinBandwidth,
                                      entry_wait(r), 0, 0, 1};
                   }});
  cases.push_back({"bcast_u64",
                   [](Context& ctx) { (void)ctx.comm.bcast_u64(9, 2); },
                   latency_only});
  cases.push_back(
      {"gatherv",
       [](Context& ctx) {
         (void)ctx.comm.gatherv(2, pin_payload(ctx.rank()));
       },
       [](int r) {
         // The root pays for everything it receives; the others for
         // what they send.
         const std::uint64_t mine = 100 * static_cast<std::uint64_t>(r + 1);
         const std::uint64_t total = 1000;
         const bool root = r == 2;
         return PinExpect{kPinLastEntry + kPinCollective +
                              static_cast<double>(root ? total : mine) /
                                  kPinBandwidth,
                          entry_wait(r), root ? 0 : mine, root ? total : 0,
                          1};
       }});
  cases.push_back(
      {"allgatherv",
       [](Context& ctx) {
         (void)ctx.comm.allgatherv(pin_payload(ctx.rank()));
       },
       [](int r) {
         // gatherv(0) + bcast_u64(total) + bcast(counts) + bcast(data).
         const std::uint64_t mine = 100 * static_cast<std::uint64_t>(r + 1);
         const std::uint64_t total = 1000;
         const double root_done =
             kPinLastEntry + kPinCollective + total / kPinBandwidth;
         const double gathered =
             r == 0 ? root_done
                    : kPinLastEntry + kPinCollective +
                          static_cast<double>(mine) / kPinBandwidth;
         const double sized = root_done + kPinCollective;
         const double counted =
             sized + kPinCollective + (8.0 * kPinRanks) / kPinBandwidth;
         return PinExpect{
             counted + kPinCollective + total / kPinBandwidth,
             entry_wait(r) + (root_done - gathered), r == 0 ? 0 : mine,
             r == 0 ? total : 0, 4};
       }});
  cases.push_back(
      {"split",
       [](Context& ctx) {
         auto sub = ctx.comm.split(ctx.rank() % 2, -ctx.rank());
         ASSERT_EQ(sub->size(), 2);
       },
       [](int r) {
         // Only the two membership allgathers touch the clock and the
         // stats; the group handoff itself is free.
         return PinExpect{kPinLastEntry + 2 * kPinCollective, entry_wait(r),
                          0, 0, 2};
       }});
  return cases;
}

TEST(CollectiveClocks, EveryCollectivePinsClockWaitAndStats) {
  auto machine = simtime::MachineProfile::test_profile();
  machine.net_latency = kPinLatency;
  machine.net_bandwidth = kPinBandwidth;
  for (const PinCase& pin : pin_cases()) {
    SCOPED_TRACE(pin.name);
    pfs::FileSystem fs(machine, kPinRanks);
    stats::Collector collector;
    std::vector<PinExpect> got(kPinRanks);
    simmpi::run(
        kPinRanks, machine, fs,
        [&](Context& ctx) {
          ctx.clock().advance(0.5 * ctx.rank());
          pin.call(ctx);
          PinExpect& out = got[static_cast<std::size_t>(ctx.rank())];
          out.clock = ctx.clock().now();
          out.wait = stats::current()->wait_total();
          out.sent = ctx.comm.stats().bytes_sent;
          out.received = ctx.comm.stats().bytes_received;
          out.collectives = ctx.comm.stats().collectives;
        },
        &collector);
    for (int r = 0; r < kPinRanks; ++r) {
      SCOPED_TRACE("rank " + std::to_string(r));
      const PinExpect want = pin.expect(r);
      const PinExpect& have = got[static_cast<std::size_t>(r)];
      EXPECT_DOUBLE_EQ(have.clock, want.clock);
      EXPECT_DOUBLE_EQ(have.wait, want.wait);
      EXPECT_EQ(have.sent, want.sent);
      EXPECT_EQ(have.received, want.received);
      EXPECT_EQ(have.collectives, want.collectives);
    }
  }
}

}  // namespace
