// MetricsRegistry: named counters, gauges, and latency recorders with a
// stable registration order.
//
// DDStore's fetch stages used to hand-plumb a dozen counter fields through
// one struct; every new stage meant touching the struct, the reset logic,
// the epoch-delta diffing in the trainer, and every bench's JSON printer.
// The registry replaces that with one seam: a stage registers the metrics
// it owns by name, holds cheap references to them, and everything
// downstream (DDStoreStats views, EpochReport deltas, bench JSON) iterates
// the registry generically.
//
// Contracts the rest of the system relies on:
//  * References returned by counter()/gauge()/latency() stay valid for the
//    registry's lifetime (entries live in deques; registration never moves
//    them).
//  * Iteration order is registration order.  Ranks that construct the same
//    stages in the same order therefore have identical layouts, which lets
//    the trainer sum per-rank counter snapshots elementwise.
//  * reset() zeroes every entry except those registered with
//    preserve_on_reset (construction-time facts such as preload cost must
//    survive epoch-boundary resets).
//
// Not thread-safe: each simulated rank owns its own registry, exactly as
// each rank owns its own DDStore.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace dds {

/// One key=value dimension attached to a counter family, e.g.
/// {"tenant", "3"}.  A default-constructed (empty-key) label means "no
/// label": the family name is used verbatim, so call sites that thread an
/// optional label through pay nothing when it is unset.
struct MetricLabel {
  std::string key;
  std::string value;

  bool empty() const { return key.empty(); }
};

class MetricsRegistry {
 public:
  /// Monotonic event count.  Stages hold references and bump in place.
  class Counter {
   public:
    Counter& operator++() {
      ++value_;
      return *this;
    }
    Counter& operator+=(std::uint64_t delta) {
      value_ += delta;
      return *this;
    }
    std::uint64_t value() const { return value_; }

   private:
    friend class MetricsRegistry;
    std::uint64_t value_ = 0;
  };

  /// Last-written scalar (e.g. a construction-time duration).
  class Gauge {
   public:
    void set(double value) { value_ = value; }
    double value() const { return value_; }

   private:
    friend class MetricsRegistry;
    double value_ = 0.0;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or re-opens) the named counter.  Re-opening must agree on
  /// the preserve flag — two stages disagreeing about reset semantics for
  /// one metric is a bug, not a merge.
  Counter& counter(const std::string& name, bool preserve_on_reset = false) {
    const auto it = counter_index_.find(name);
    if (it != counter_index_.end()) {
      CounterEntry& entry = counters_[it->second];
      DDS_CHECK_MSG(entry.preserve_on_reset == preserve_on_reset,
                    "counter '" + name +
                        "' re-registered with a different preserve flag");
      return entry.counter;
    }
    counter_index_.emplace(name, counters_.size());
    counters_.push_back(CounterEntry{name, preserve_on_reset, Counter{}});
    counter_names_.push_back(name);
    return counters_.back().counter;
  }

  /// Canonical decorated name of a labeled family member:
  /// "bytes_fetched" + {tenant, 3} -> "bytes_fetched{tenant=3}".  An empty
  /// label returns the family name unchanged.
  static std::string labeled_name(const std::string& family,
                                  const MetricLabel& label) {
    if (label.empty()) return family;
    return family + "{" + label.key + "=" + label.value + "}";
  }

  /// Registers a counter in a labeled family.  With an empty label this is
  /// exactly counter(family) — zero-overhead passthrough, the decorated
  /// name is never materialized — so single-tenant call sites keep the
  /// default counter layout byte-for-byte.  Labeled members are ordinary
  /// registry entries: EpochReport deltas, elementwise cross-rank sums,
  /// and bench JSON all pick them up generically.
  Counter& counter(const std::string& family, const MetricLabel& label,
                   bool preserve_on_reset = false) {
    if (label.empty()) return counter(family, preserve_on_reset);
    return counter(labeled_name(family, label), preserve_on_reset);
  }

  /// All registered members of a family, in registration order, as
  /// (label, value) pairs; the unlabeled member (if any) appears with an
  /// empty label string, a labeled member as "key=value".  Used by
  /// per-tenant rollups; scans the name list, so keep it off hot paths.
  std::vector<std::pair<std::string, std::uint64_t>> family_values(
      const std::string& family) const {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    const std::string prefix = family + "{";
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      const std::string& name = counter_names_[i];
      if (name == family) {
        out.emplace_back("", counters_[i].counter.value());
      } else if (name.size() > prefix.size() + 1 &&
                 name.compare(0, prefix.size(), prefix) == 0 &&
                 name.back() == '}') {
        out.emplace_back(
            name.substr(prefix.size(), name.size() - prefix.size() - 1),
            counters_[i].counter.value());
      }
    }
    return out;
  }

  /// Sum over every member of a family (unlabeled + all labels).
  std::uint64_t family_total(const std::string& family) const {
    std::uint64_t total = 0;
    for (const auto& [label, value] : family_values(family)) total += value;
    return total;
  }

  Gauge& gauge(const std::string& name, bool preserve_on_reset = false) {
    const auto it = gauge_index_.find(name);
    if (it != gauge_index_.end()) {
      GaugeEntry& entry = gauges_[it->second];
      DDS_CHECK_MSG(entry.preserve_on_reset == preserve_on_reset,
                    "gauge '" + name +
                        "' re-registered with a different preserve flag");
      return entry.gauge;
    }
    gauge_index_.emplace(name, gauges_.size());
    gauges_.push_back(GaugeEntry{name, preserve_on_reset, Gauge{}});
    return gauges_.back().gauge;
  }

  LatencyRecorder& latency(const std::string& name) {
    const auto it = latency_index_.find(name);
    if (it != latency_index_.end()) return latencies_[it->second].recorder;
    latency_index_.emplace(name, latencies_.size());
    latencies_.push_back(LatencyEntry{name, LatencyRecorder{}});
    return latencies_.back().recorder;
  }

  // ---- read-side (views, epoch deltas, JSON serialization) --------------

  bool has_counter(const std::string& name) const {
    return counter_index_.find(name) != counter_index_.end();
  }

  /// Value of a registered counter; 0 when the name was never registered
  /// (e.g. the labeled counter of a tenant that was never admitted).
  std::uint64_t counter_value(const std::string& name) const {
    const auto it = counter_index_.find(name);
    if (it == counter_index_.end()) return 0;
    return counters_[it->second].counter.value();
  }

  double gauge_value(const std::string& name) const {
    const auto it = gauge_index_.find(name);
    return it == gauge_index_.end() ? 0.0 : gauges_[it->second].gauge.value();
  }

  const LatencyRecorder* find_latency(const std::string& name) const {
    const auto it = latency_index_.find(name);
    return it == latency_index_.end() ? nullptr
                                      : &latencies_[it->second].recorder;
  }

  /// Counter names in registration order (the layout every snapshot uses).
  const std::vector<std::string>& counter_names() const {
    return counter_names_;
  }

  /// Counter values in registration order; position i matches
  /// counter_names()[i].  Trainers diff two snapshots to get epoch deltas.
  std::vector<std::uint64_t> counter_values() const {
    std::vector<std::uint64_t> out;
    out.reserve(counters_.size());
    for (const auto& entry : counters_) out.push_back(entry.counter.value());
    return out;
  }

  std::size_t num_counters() const { return counters_.size(); }

  /// Zeroes every counter, gauge, and latency recorder except the entries
  /// registered with preserve_on_reset.
  void reset() {
    for (auto& entry : counters_) {
      if (!entry.preserve_on_reset) entry.counter.value_ = 0;
    }
    for (auto& entry : gauges_) {
      if (!entry.preserve_on_reset) entry.gauge.value_ = 0.0;
    }
    for (auto& entry : latencies_) entry.recorder = LatencyRecorder{};
  }

 private:
  struct CounterEntry {
    std::string name;
    bool preserve_on_reset;
    Counter counter;
  };
  struct GaugeEntry {
    std::string name;
    bool preserve_on_reset;
    Gauge gauge;
  };
  struct LatencyEntry {
    std::string name;
    LatencyRecorder recorder;
  };

  // Deques: registration must not invalidate references held by stages.
  std::deque<CounterEntry> counters_;
  std::deque<GaugeEntry> gauges_;
  std::deque<LatencyEntry> latencies_;
  std::vector<std::string> counter_names_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> gauge_index_;
  std::unordered_map<std::string, std::size_t> latency_index_;
};

}  // namespace dds
