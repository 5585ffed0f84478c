// Host-time spans recorded by the benchmark around the calls it makes into
// each layer.  Spans live in memory while the workload runs and are
// written out (Chrome trace JSON, viewable in ui.perfetto.dev) when it
// ends.  A span's self time is its duration minus the part of it that its
// child spans cover.
//
// All simulated ranks run as fibers on one OS thread, so the log needs no
// locking; the benchmark names each span's parent explicitly, because a
// fiber switch can interleave spans of different ranks.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic time in seconds.
inline double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The host time at which the first rank leaves a rendezvous of all ranks:
/// the instant every rank had arrived.  Later ranks resume only after
/// other fibers ran, so only the first exit marks the boundary.
struct FirstExit {
  double t = 0;
  bool seen = false;
  bool hit() {
    if (seen) return false;
    seen = true;
    t = host_now();
    return true;
  }
};

/// Identifier shared by every span of one training step on one rank.
inline std::uint64_t step_id(int rank, std::uint64_t step) {
  return (static_cast<std::uint64_t>(rank) << 32) | (step & 0xffffffffu);
}

struct SpanRecord {
  const char* name = "";  ///< "<layer>.<what>", static storage
  std::uint64_t id = 0;   ///< step_id() for step-scoped spans, else 0
  int parent = -1;        ///< index into the log, -1 for a root
  int rank = -1;          ///< simulated rank, -1 for host-level spans
  double t0 = 0;          ///< host seconds
  double t1 = 0;
};

class SpanLog {
 public:
  /// Opens a span at `t0` and returns its index.
  int open(const char* name, int parent, double t0, int rank = -1,
           std::uint64_t id = 0) {
    spans_.push_back(SpanRecord{name, id, parent, rank, t0, t0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span, double t1) {
    spans_[static_cast<std::size_t>(span)].t1 = t1;
  }
  /// Records a finished span in one call.
  int add(const char* name, int parent, double t0, double t1, int rank = -1,
          std::uint64_t id = 0) {
    const int s = open(name, parent, t0, rank, id);
    close(s, t1);
    return s;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Per-span self time: duration minus the union of its children's
  /// intervals (clipped to the span).
  std::vector<double> self_times() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
      }
    }
    std::vector<double> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0;
      double end = s.t0;
      for (const auto& [a, b] : iv) {
        const double lo = std::max(a, end);
        const double hi = std::min(b, s.t1);
        if (hi > lo) covered += hi - lo;
        end = std::max(end, std::min(b, s.t1));
      }
      out[i] = (s.t1 - s.t0) - covered;
    }
    return out;
  }

  /// Self time summed per layer (the span-name prefix before the first
  /// '.').
  std::map<std::string, double> self_by_layer() const {
    const std::vector<double> self = self_times();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::string name = spans_[i].name;
      out[name.substr(0, name.find('.'))] += self[i];
    }
    return out;
  }

  /// Chrome trace events ("X" phase, microseconds from the first span);
  /// host-level spans go to tid 0, rank r's spans to tid r + 1.
  std::string chrome_json() const {
    const double origin = spans_.empty() ? 0 : spans_.front().t0;
    std::string out = "{\"traceEvents\": [\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %d, "
                    "\"args\": {\"span\": %zu, \"parent\": %d, \"step_id\": "
                    "%llu}}",
                    i == 0 ? "" : ",\n", s.name,
                    static_cast<int>(std::string(s.name).find('.')), s.name,
                    (s.t0 - origin) * 1e6, (s.t1 - s.t0) * 1e6, s.rank + 1, i,
                    s.parent, static_cast<unsigned long long>(s.id));
      out += buf;
    }
    out += "\n]}\n";
    return out;
  }

 private:
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench
