// Metric reporting helpers for the end-to-end benchmark.
//
// Every number the benchmark prints goes through a Report: it checks the
// metric name, keeps the unit beside the value, and for a ratio keeps the
// numerator and denominator so the human-readable line shows the base.
// The last line of the output is one JSON object for tools to parse.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Metric and workload names: 1-64 characters from [A-Za-z0-9_.-],
/// starting with a letter or a digit.
inline bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  const char first = name.front();
  return first != '_' && first != '.' && first != '-';
}

/// Samples strictly above the p-th percentile of n samples: n minus the
/// ceil(p% of n) samples at or below it.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto at_or_below =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) -
                                         1e-9));
  return at_or_below >= n ? 0 : n - at_or_below;
}

/// The highest of the candidate percentiles that leaves at least ten
/// samples beyond it; 0 when not even the median does.
inline double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0.0;
}

/// Percentile in [0, 100] of `sorted` (ascending) by linear interpolation
/// between ranks, the same rule as dds::LatencyRecorder.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Median of an unsorted list.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 50.0);
}

/// All 17 significant digits, so the text reads back as exactly `v`.
inline std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `num / den`, or 0 when the base is empty.
inline double share(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// What the value is a share or a rate of ("1.23 s / 2.46 s"); printed
  /// beside it on the human-readable line.  Empty for plain measurements.
  std::string base;
};

class Report {
 public:
  /// Adds a measured value; `base` (optional) is printed beside it.
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& base = {}) {
    if (!valid_name(name)) {
      throw std::invalid_argument("bad metric name '" + name + "'");
    }
    for (const Metric& m : metrics_) {
      if (m.name == name) {
        throw std::invalid_argument("duplicate metric '" + name + "'");
      }
    }
    if (!std::isfinite(value)) {
      throw std::invalid_argument("metric '" + name + "' is not finite");
    }
    metrics_.push_back(Metric{name, value, unit, base});
  }

  /// Adds `num / den` (0 when `den` is 0) and records the base as
  /// "num num_unit / den den_unit".
  void add_ratio(const std::string& name, double num, double den,
                 const std::string& num_unit, const std::string& den_unit,
                 const std::string& unit = "ratio") {
    add(name, share(num, den), unit,
        exact(num) + " " + num_unit + " / " + exact(den) + " " + den_unit);
  }

  const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  /// One "name value unit [base]" line per metric.
  std::string lines() const {
    std::string out;
    for (const Metric& m : metrics_) {
      out += "  " + m.name + " = " + exact(m.value) + " " + m.unit;
      if (!m.base.empty()) out += "  [" + m.base + "]";
      out += "\n";
    }
    return out;
  }

  /// The result object: {"correct", "attempted", "failed", "metrics"}.
  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (i != 0) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + exact(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
