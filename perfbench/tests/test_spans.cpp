// Self-tests of span self-time accounting (spans.hpp), plus the test
// runner's main().
#include <cstdio>
#include <string>

#include "spans.hpp"
#include "test_check.hpp"

using namespace perfbench;

void run_report_tests();

namespace {

void self_time_subtracts_the_union_of_children() {
  SpanLog log;
  const int root = log.add("workload.instance", -1, 0.0, 10.0);
  const int epoch = log.add("train.epoch", root, 1.0, 9.0);
  log.add("fetch.call", epoch, 2.0, 3.0, 0, step_id(0, 0));
  log.add("fetch.call", epoch, 2.5, 4.0, 1, step_id(1, 0));  // overlaps
  log.add("fetch.call", epoch, 8.5, 9.5, 2, step_id(2, 1));  // clipped
  const auto self = log.self_times();
  CHECK(self[0] == 2.0);        // 10 - epoch's 8
  CHECK(self[1] == 8.0 - 2.5);  // [2, 4] and [8.5, 9] covered
  CHECK(self[2] == 1.0);
  const auto layers = log.self_by_layer();
  CHECK(layers.at("workload") == 2.0);
  CHECK(layers.at("train") == 5.5);
  CHECK(layers.at("fetch") == 1.0 + 1.5 + 1.0);
}

void step_ids_combine_rank_and_step() {
  CHECK(step_id(0, 0) == 0);
  CHECK(step_id(1, 0) != step_id(0, 1));
  CHECK(step_id(3, 7) == ((std::uint64_t{3} << 32) | 7));
}

void chrome_json_names_every_span() {
  SpanLog log;
  const int root = log.add("workload.instance", -1, 1.0, 2.0);
  log.add("fetch.call", root, 1.25, 1.5, 4, step_id(4, 2));
  const std::string json = log.chrome_json();
  CHECK(json.find("\"name\": \"fetch.call\", \"cat\": \"fetch\"") !=
        std::string::npos);
  CHECK(json.find("\"ts\": 250000.000, \"dur\": 250000.000") !=
        std::string::npos);
  CHECK(json.find("\"tid\": 5") != std::string::npos);
  CHECK(json.find("\"parent\": 0") != std::string::npos);
}

}  // namespace

int main() {
  run_report_tests();
  self_time_subtracts_the_union_of_children();
  step_ids_combine_rank_and_step();
  chrome_json_names_every_span();
  if (check_failures() != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", check_failures());
    return 1;
  }
  std::puts("perfbench self-tests passed");
  return 0;
}
