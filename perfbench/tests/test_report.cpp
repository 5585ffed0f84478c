// Self-tests of the benchmark's reporting helpers (report.hpp, spans.hpp).
// Plain C++ with a minimal check macro, so the benchmark needs no test
// framework to build.
#include <cstdio>
#include <string>
#include <vector>

#include "report.hpp"
#include "test_check.hpp"

using namespace perfbench;

namespace {

void tail_percentile_leaves_ten_samples_beyond() {
  CHECK(samples_beyond(1000, 99.0) == 10);
  CHECK(samples_beyond(999, 99.0) == 9);
  CHECK(samples_beyond(200, 95.0) == 10);
  CHECK(samples_beyond(10, 50.0) == 5);
  CHECK(tail_percentile(196'608) == 99.9);
  CHECK(tail_percentile(10'000) == 99.9);
  CHECK(tail_percentile(9'999) == 99.0);
  CHECK(tail_percentile(1'000) == 99.0);
  CHECK(tail_percentile(999) == 95.0);
  CHECK(tail_percentile(200) == 95.0);
  CHECK(tail_percentile(199) == 90.0);
  CHECK(tail_percentile(20) == 50.0);
  CHECK(tail_percentile(19) == 0.0);
  // Whatever the count, the chosen percentile has at least ten beyond it.
  for (std::size_t n = 20; n < 5000; n += 7) {
    CHECK(samples_beyond(n, tail_percentile(n)) >= 10);
  }
}

void percentiles_interpolate_like_the_latency_recorder() {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  CHECK(percentile_sorted(v, 50.0) == 3.0);
  CHECK(percentile_sorted(v, 0.0) == 1.0);
  CHECK(percentile_sorted(v, 100.0) == 5.0);
  CHECK(percentile_sorted(v, 25.0) == 2.0);
  CHECK(percentile_sorted({1, 2}, 50.0) == 1.5);
  CHECK(median({5, 1, 4, 2}) == 3.0);
}

void names_use_only_the_allowed_letters() {
  CHECK(valid_name("scale_1024"));
  CHECK(valid_name("fetch.call_wall_p50_us"));
  CHECK(valid_name("tiered_batch_64"));
  CHECK(valid_name("9lives-ok"));
  CHECK(!valid_name(""));
  CHECK(!valid_name(".hidden"));
  CHECK(!valid_name("_private"));
  CHECK(!valid_name("has space"));
  CHECK(!valid_name("slash/name"));
  CHECK(!valid_name("quote\""));
  CHECK(!valid_name(std::string(65, 'a')));
  CHECK(valid_name(std::string(64, 'a')));

  Report report;
  bool threw = false;
  try {
    report.add("bad name", 1.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  report.add("ok", 1.0, "s");
  try {
    report.add("ok", 2.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void every_ratio_is_printed_with_its_base() {
  Report report;
  report.add_ratio("fetch.wall_share", 1.5, 3.0, "s fetch", "s training");
  report.add_ratio("cache.hit_rate", 0.0, 0.0, "hits", "lookups");
  CHECK(report.find("fetch.wall_share")->value == 0.5);
  CHECK(report.find("cache.hit_rate")->value == 0.0);
  const std::string lines = report.lines();
  CHECK(lines.find("fetch.wall_share = 0.5 ratio  [1.5 s fetch / 3 s "
                   "training]") != std::string::npos);
  CHECK(lines.find("cache.hit_rate = 0 ratio  [0 hits / 0 lookups]") !=
        std::string::npos);
}

void result_json_has_exactly_the_four_keys() {
  Report report;
  report.add("latency_ms", 1.25, "ms");
  report.add("setup_s", 0.5, "s");
  CHECK(report.json(true, 1000, 0) ==
        "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
        "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
        "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  // Values keep every digit.
  CHECK(exact(0.1) == "0.10000000000000001");
}

}  // namespace

void run_report_tests() {
  tail_percentile_leaves_ten_samples_beyond();
  percentiles_interpolate_like_the_latency_recorder();
  names_use_only_the_allowed_letters();
  every_ratio_is_printed_with_its_base();
  result_json_has_exactly_the_four_keys();
}
