// In-memory host-time spans for the benchmark's traced pass.
//
// The benchmark records a span around each of its own calls into a
// layer's public functions (simmpi::run, sched::run_graph, Job::map_*,
// Job::reduce, the app callbacks, Emitter::emit). Spans live in one
// lane per thread (lane 0 is the main thread, lane 1 + r is rank r's
// thread), so rank threads append without locking. A span's parent is
// an index into its own lane; a rank's top-level span has no parent in
// its lane and belongs to the main thread's job span through its job id.
//
// Calls too frequent to record one by one (every emit, every reduce
// callback) are folded into the enclosing span as `inner` time: the
// parent's self time excludes it, and the fold keeps its own total.
//
// Nothing here touches a simulated clock or a memory tracker, so traced
// and untraced jobs give identical simulated results.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";   ///< static string: layer.operation
  std::int64_t start = 0;  ///< ns since the tracer's origin
  std::int64_t end = 0;
  int parent = -1;         ///< index in the same lane, -1 = top level
  int job = -1;
  /// Folded fine-grained child calls: their summed time and count,
  /// under the name `inner_name`.
  const char* inner_name = nullptr;
  std::int64_t inner = 0;
  std::uint64_t inner_calls = 0;

  std::int64_t length() const noexcept { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(int nranks);

  std::int64_t now() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  /// Lane of the main thread and of rank r's thread.
  static constexpr int kMain = 0;
  static int rank_lane(int rank) noexcept { return rank + 1; }

  /// Open a span on `lane`; returns its index. Only the lane's own
  /// thread may call begin/end/fold on it.
  int begin(int lane, const char* name, int parent, int job);
  void end(int lane, int index);
  /// Record a span whose interval the caller already measured.
  void record(int lane, const char* name, int parent, int job,
              std::int64_t start, std::int64_t end);
  /// Add one folded child call of `ns` nanoseconds to span `index`.
  void fold(int lane, int index, const char* inner_name, std::int64_t ns);

  const std::vector<std::vector<Span>>& lanes() const noexcept {
    return lanes_;
  }
  /// Self time of every span, indexed like lanes(): its length minus
  /// the union of its recorded children's intervals and minus its
  /// folded inner time.
  std::vector<std::vector<std::int64_t>> self_times() const;

  /// Perfetto-readable trace (Chrome JSON trace-event format).
  std::string perfetto_json(const std::string& process_name) const;

  /// Per-name totals over every lane: calls, total ms, self ms.
  struct Row {
    std::uint64_t calls = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> table() const;

 private:
  Clock::time_point origin_;
  std::vector<std::vector<Span>> lanes_;
  /// children_[lane][parent] = child indices (built on demand).
  std::vector<std::vector<std::vector<int>>> children() const;
};

/// RAII span; no-op when `tracer` is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, int lane, const char* name, int parent, int job)
      : tracer_(tracer), lane_(lane) {
    if (tracer_ != nullptr) index_ = tracer_->begin(lane, name, parent, job);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(lane_, index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int index() const noexcept { return index_; }

 private:
  Tracer* tracer_;
  int lane_;
  int index_ = -1;
};

}  // namespace perfbench
