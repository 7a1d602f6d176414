#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer(int nranks)
    : origin_(Clock::now()),
      lanes_(static_cast<std::size_t>(nranks) + 1) {}

int Tracer::begin(int lane, const char* name, int parent, int job) {
  auto& spans = lanes_[static_cast<std::size_t>(lane)];
  Span s;
  s.name = name;
  s.parent = parent;
  s.job = job;
  s.start = now();
  spans.push_back(s);
  return static_cast<int>(spans.size()) - 1;
}

void Tracer::end(int lane, int index) {
  lanes_[static_cast<std::size_t>(lane)][static_cast<std::size_t>(index)]
      .end = now();
}

void Tracer::record(int lane, const char* name, int parent, int job,
                    std::int64_t start, std::int64_t end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.job = job;
  s.start = start;
  s.end = end;
  lanes_[static_cast<std::size_t>(lane)].push_back(s);
}

void Tracer::fold(int lane, int index, const char* inner_name,
                  std::int64_t ns) {
  Span& s =
      lanes_[static_cast<std::size_t>(lane)][static_cast<std::size_t>(index)];
  s.inner_name = inner_name;
  s.inner += ns;
  ++s.inner_calls;
}

std::vector<std::vector<std::vector<int>>> Tracer::children() const {
  std::vector<std::vector<std::vector<int>>> out(lanes_.size());
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    out[l].resize(lanes_[l].size());
    for (std::size_t i = 0; i < lanes_[l].size(); ++i) {
      const int p = lanes_[l][i].parent;
      if (p >= 0) out[l][static_cast<std::size_t>(p)].push_back(
          static_cast<int>(i));
    }
  }
  return out;
}

namespace {

/// Length of the union of child intervals clipped to [lo, hi].
std::int64_t covered(const std::vector<Span>& spans,
                     const std::vector<int>& kids, std::int64_t lo,
                     std::int64_t hi) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  iv.reserve(kids.size());
  for (const int k : kids) {
    const Span& c = spans[static_cast<std::size_t>(k)];
    const std::int64_t a = std::max(lo, c.start);
    const std::int64_t b = std::min(hi, c.end);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_a = 0, cur_b = -1;
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) total += cur_b - cur_a;
  return total;
}

std::int64_t self_of(const std::vector<Span>& spans,
                     const std::vector<int>& kids, const Span& s) {
  return s.length() - covered(spans, kids, s.start, s.end) - s.inner;
}

void append_event(std::string& out, const char* name, int tid,
                  std::int64_t start, std::int64_t dur,
                  const std::string& args) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                out.empty() ? "" : ",\n", name, tid,
                static_cast<double>(start) / 1e3,
                static_cast<double>(dur) / 1e3);
  out += buf;
  out += args;
  out += "}}";
}

}  // namespace

std::vector<std::vector<std::int64_t>> Tracer::self_times() const {
  const auto kids = children();
  std::vector<std::vector<std::int64_t>> out(lanes_.size());
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    for (std::size_t i = 0; i < lanes_[l].size(); ++i) {
      out[l].push_back(self_of(lanes_[l], kids[l][i], lanes_[l][i]));
    }
  }
  return out;
}

std::string Tracer::perfetto_json(const std::string& process_name) const {
  std::string events;
  const auto kids = children();
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const int tid = static_cast<int>(l);
    for (std::size_t i = 0; i < lanes_[l].size(); ++i) {
      const Span& s = lanes_[l][i];
      char args[256];
      std::snprintf(args, sizeof args,
                    "\"job\":%d,\"parent\":%d,\"self_ms\":%.6f", s.job,
                    s.parent,
                    static_cast<double>(self_of(lanes_[l], kids[l][i], s)) /
                        1e6);
      std::string a = args;
      if (s.inner_name != nullptr) {
        std::snprintf(args, sizeof args,
                      ",\"folded\":\"%s\",\"folded_ms\":%.6f,"
                      "\"folded_calls\":%llu",
                      s.inner_name, static_cast<double>(s.inner) / 1e6,
                      static_cast<unsigned long long>(s.inner_calls));
        a += args;
      }
      append_event(events, s.name, tid, s.start, s.length(), a);
    }
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
         "{\"name\":\"" + process_name + "\"}}";
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(l) + ",\"args\":{\"name\":\"" +
           (l == 0 ? std::string("main")
                   : "rank " + std::to_string(l - 1)) +
           "\"}}";
  }
  if (!events.empty()) out += ",\n" + events;
  out += "\n]}\n";
  return out;
}

std::map<std::string, Tracer::Row> Tracer::table() const {
  std::map<std::string, Row> rows;
  const auto kids = children();
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    for (std::size_t i = 0; i < lanes_[l].size(); ++i) {
      const Span& s = lanes_[l][i];
      Row& row = rows[s.name];
      ++row.calls;
      row.total_ms += static_cast<double>(s.length()) / 1e6;
      row.self_ms +=
          static_cast<double>(self_of(lanes_[l], kids[l][i], s)) / 1e6;
      if (s.inner_name != nullptr) {
        Row& inner = rows[std::string(s.inner_name) + " (folded)"];
        inner.calls += s.inner_calls;
        inner.total_ms += static_cast<double>(s.inner) / 1e6;
        inner.self_ms += static_cast<double>(s.inner) / 1e6;
      }
    }
  }
  return rows;
}

}  // namespace perfbench
