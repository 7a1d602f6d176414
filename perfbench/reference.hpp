// Independent reference computations and output checks.
//
// Each reference recomputes a workload's answer from the generated
// input with plain serial code written here, not with the program's
// own reference helpers, and each check compares one job's output with
// it. A check returns an empty string when the output is right and a
// one-line reason otherwise.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/octree.hpp"
#include "apps/pagerank.hpp"
#include "pfs/filesystem.hpp"

namespace perfbench {

// --- wc-wiki ---------------------------------------------------------------

struct WcAnswer {
  std::uint64_t total_words = 0;
  std::uint64_t unique_words = 0;
  /// Sum over words of hash_bytes(word) * count: order-independent and
  /// sensitive to every per-word count.
  std::uint64_t count_digest = 0;
};

/// Tokenise every file on ' ', '\n', '\t', '\r' into a hash map.
WcAnswer wc_reference(pfs::FileSystem& fs,
                      const std::vector<std::string>& files);
std::string wc_check(const WcAnswer& expected, const WcAnswer& got);

// --- pagerank-skew ----------------------------------------------------------

using Edges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

struct PrAnswer {
  std::vector<double> ranks;          ///< after the last iteration
  std::vector<double> contributions;  ///< received in the last iteration
};

/// Dense power iteration with uniform dangling-mass redistribution.
PrAnswer pr_reference(const Edges& edges, std::uint64_t nvertices,
                      int iterations, double damping);

/// What one pagerank job reports: its result, the final iteration's
/// contribution per vertex (vertices without in-edges are absent) and
/// the merged top-k list.
struct PrOutput {
  apps::pr::Result result;
  std::vector<std::pair<std::uint64_t, double>> contributions;
  std::vector<apps::pr::TopKEntry> top;
};

/// Relative tolerance for per-vertex values and for the rank sum.
constexpr double kPrTolerance = 1e-9;

std::string pr_check(const PrAnswer& expected, const PrOutput& got,
                     std::uint64_t nvertices, double damping, int top_k);

// --- octree-ooc -------------------------------------------------------------

struct OcAnswer {
  int levels = 0;
  std::uint64_t dense_octants = 0;
  std::uint64_t clustered_points = 0;
  /// Sum over levels d and dense octants c of mix64(morton(c) * 31 + d).
  std::uint64_t dense_digest = 0;
  /// Smallest population of any dense octant at any level.
  std::uint64_t min_dense_count = 0;
};

OcAnswer oc_reference(const std::vector<apps::oc::Point>& points,
                      double density, int max_depth);
std::string oc_check(const OcAnswer& expected, const apps::oc::Result& got,
                     std::uint64_t npoints, double density);

}  // namespace perfbench
