#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "mutil/hash.hpp"
#include "simtime/clock.hpp"

namespace perfbench {

namespace {

template <typename... Parts>
std::string say(const Parts&... parts) {
  std::ostringstream out;
  out.precision(17);
  (out << ... << parts);
  return out.str();
}

bool close(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max({std::abs(a), std::abs(b), 1e-300});
}

}  // namespace

// --- wc-wiki ---------------------------------------------------------------

WcAnswer wc_reference(pfs::FileSystem& fs,
                      const std::vector<std::string>& files) {
  std::unordered_map<std::string, std::uint64_t> counts;
  simtime::Clock clock;  // reading the input is not part of any job
  for (const std::string& file : files) {
    const std::vector<std::byte> bytes = fs.read_file(file, clock);
    const std::string_view text(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size());
    std::size_t i = 0;
    while (i < text.size()) {
      std::size_t j = i;
      while (j < text.size() && text[j] != ' ' && text[j] != '\n' &&
             text[j] != '\t' && text[j] != '\r') {
        ++j;
      }
      if (j > i) ++counts[std::string(text.substr(i, j - i))];
      i = j + 1;
    }
  }
  WcAnswer a;
  a.unique_words = counts.size();
  for (const auto& [word, count] : counts) {
    a.total_words += count;
    a.count_digest += mutil::hash_bytes(word) * count;
  }
  return a;
}

std::string wc_check(const WcAnswer& expected, const WcAnswer& got) {
  if (got.total_words != expected.total_words) {
    return say("wc: total words ", got.total_words, ", reference ",
               expected.total_words);
  }
  if (got.unique_words != expected.unique_words) {
    return say("wc: distinct words ", got.unique_words, ", reference ",
               expected.unique_words);
  }
  if (got.count_digest != expected.count_digest) {
    return say("wc: per-word count digest ", got.count_digest,
               ", reference ", expected.count_digest);
  }
  return {};
}

// --- pagerank-skew ----------------------------------------------------------

PrAnswer pr_reference(const Edges& edges, std::uint64_t nvertices,
                      int iterations, double damping) {
  const auto n = static_cast<std::size_t>(nvertices);
  std::vector<std::uint64_t> outdeg(n, 0);
  for (const auto& [u, v] : edges) ++outdeg[u];
  const double base = (1.0 - damping) / static_cast<double>(n);
  PrAnswer a;
  a.ranks.assign(n, 1.0 / static_cast<double>(n));
  a.contributions.assign(n, 0.0);
  for (int it = 0; it < iterations; ++it) {
    double dangling = 0;
    for (std::size_t u = 0; u < n; ++u) {
      if (outdeg[u] == 0) dangling += a.ranks[u];
    }
    std::fill(a.contributions.begin(), a.contributions.end(), 0.0);
    for (const auto& [u, v] : edges) {
      a.contributions[v] += a.ranks[u] / static_cast<double>(outdeg[u]);
    }
    for (std::size_t v = 0; v < n; ++v) {
      a.ranks[v] = base + damping * (a.contributions[v] +
                                     dangling / static_cast<double>(n));
    }
  }
  return a;
}

std::string pr_check(const PrAnswer& expected, const PrOutput& got,
                     std::uint64_t nvertices, double damping, int top_k) {
  const auto n = static_cast<std::size_t>(nvertices);
  std::vector<double> contrib(n, 0.0);
  std::vector<bool> seen(n, false);
  for (const auto& [v, c] : got.contributions) {
    if (v >= nvertices) return say("pr: contribution for vertex ", v);
    if (seen[v]) return say("pr: two contributions for vertex ", v);
    seen[v] = true;
    contrib[v] = c;
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (!close(contrib[v], expected.contributions[v], kPrTolerance)) {
      return say("pr: vertex ", v, " final contribution ", contrib[v],
                 ", reference ", expected.contributions[v]);
    }
  }

  // Final ranks: r(v) = base + d * (contribution(v) + dangling / n). The
  // dangling share is recovered from the reported top vertex, then
  // every vertex's rank is compared with the reference.
  const double base = (1.0 - damping) / static_cast<double>(n);
  if (got.result.max_vertex >= nvertices) {
    return say("pr: max vertex ", got.result.max_vertex);
  }
  const double dangling_share =
      (got.result.max_rank - base) / damping - contrib[got.result.max_vertex];
  double sum = 0;
  double expected_sum = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const double rank = base + damping * (contrib[v] + dangling_share);
    if (!close(rank, expected.ranks[v], kPrTolerance)) {
      return say("pr: vertex ", v, " rank ", rank, ", reference ",
                 expected.ranks[v]);
    }
    sum += rank;
    expected_sum += expected.ranks[v];
  }
  const double max_expected =
      *std::max_element(expected.ranks.begin(), expected.ranks.end());
  if (!close(got.result.max_rank, max_expected, kPrTolerance)) {
    return say("pr: max rank ", got.result.max_rank, ", reference ",
               max_expected);
  }
  for (const double s : {sum, got.result.total_rank, expected_sum}) {
    if (!close(s, 1.0, kPrTolerance)) return say("pr: ranks sum to ", s);
  }

  // Top-k: the k largest final contributions, ties by smaller vertex.
  std::vector<apps::pr::TopKEntry> want;
  for (const auto& [v, c] : got.contributions) want.push_back({c, v});
  std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    return a.contribution != b.contribution ? a.contribution > b.contribution
                                            : a.vertex < b.vertex;
  });
  if (want.size() > static_cast<std::size_t>(top_k)) {
    want.resize(static_cast<std::size_t>(top_k));
  }
  if (got.top != want) {
    return say("pr: top-", top_k, " list of ", got.top.size(),
               " entries differs from the largest final contributions");
  }
  return {};
}

// --- octree-ooc -------------------------------------------------------------

namespace {

/// Octant coordinate of `v` at `depth` levels, clamped into [0, 1).
std::uint64_t cell(float v, int depth) {
  const double c = std::clamp(static_cast<double>(v), 0.0, 0x1.fffffep-1);
  return static_cast<std::uint64_t>(c * static_cast<double>(1u << depth));
}

/// Bit-interleave (x, y, z) into a Morton code, x highest, bit by bit.
std::uint64_t morton(std::uint64_t x, std::uint64_t y, std::uint64_t z) {
  std::uint64_t code = 0;
  for (int b = 20; b >= 0; --b) {
    code = (code << 3) | (((x >> b) & 1) << 2) | (((y >> b) & 1) << 1) |
           ((z >> b) & 1);
  }
  return code;
}

}  // namespace

OcAnswer oc_reference(const std::vector<apps::oc::Point>& points,
                      double density, int max_depth) {
  const auto npoints = static_cast<std::uint64_t>(points.size());
  const std::uint64_t threshold = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(density * static_cast<double>(npoints)));
  OcAnswer a;
  std::vector<bool> alive(points.size(), true);
  for (int depth = 1; depth <= max_depth; ++depth) {
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    std::vector<std::uint64_t> code(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!alive[i]) continue;
      const auto& p = points[i];
      code[i] = morton(cell(p.x, depth), cell(p.y, depth), cell(p.z, depth));
      ++counts[code[i]];
    }
    std::uint64_t dense = 0, clustered = 0, digest = 0;
    std::uint64_t min_count = ~std::uint64_t{0};
    for (const auto& [c, count] : counts) {
      if (count < threshold) continue;
      ++dense;
      clustered += count;
      digest += mutil::mix64(c * 31 + static_cast<std::uint64_t>(depth));
      min_count = std::min(min_count, count);
    }
    if (dense == 0) break;
    a.levels = depth;
    a.dense_octants = dense;
    a.clustered_points = clustered;
    a.dense_digest += digest;
    a.min_dense_count = std::min(
        a.min_dense_count == 0 ? min_count : a.min_dense_count, min_count);
    // Points outside a dense octant are dropped from deeper levels.
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (alive[i] && counts[code[i]] < threshold) alive[i] = false;
    }
  }
  return a;
}

std::string oc_check(const OcAnswer& expected, const apps::oc::Result& got,
                     std::uint64_t npoints, double density) {
  // The app's threshold: density x N rounded down, and at least 1.
  const std::uint64_t floor_count = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(density * static_cast<double>(npoints)));
  if (expected.min_dense_count < floor_count) {
    return say("oc: reference octant of ", expected.min_dense_count,
               " points is below the density threshold ", floor_count);
  }
  if (got.levels != expected.levels) {
    return say("oc: levels ", got.levels, ", reference ", expected.levels);
  }
  if (got.dense_octants != expected.dense_octants) {
    return say("oc: dense octants ", got.dense_octants, ", reference ",
               expected.dense_octants);
  }
  if (got.clustered_points != expected.clustered_points) {
    return say("oc: clustered points ", got.clustered_points,
               ", reference ", expected.clustered_points);
  }
  if (got.clustered_points < got.dense_octants * floor_count) {
    return say("oc: ", got.dense_octants, " dense octants hold only ",
               got.clustered_points, " points");
  }
  if (got.checksum != expected.dense_digest) {
    return say("oc: dense-octant digest ", got.checksum, ", reference ",
               expected.dense_digest);
  }
  return {};
}

}  // namespace perfbench
