// Node-local NVMe burst-buffer tier.
//
// The paper's motivation (§1, §2.3): machines WITH large node-local NVMe
// can stage chunks locally, but "several HPC resources ... are not endowed
// with NVMe devices yet" — DDStore exists to serve those.  This tier
// implements the NVMe alternative so the trade-off can be measured
// (bench_ablation_storage): samples are written to the node's device on
// first use and served locally afterwards.  Like the page cache, it is a
// timing construct in nominal-byte space; the data plane reads the backing
// store untimed.
#pragma once

#include <memory>
#include <string>

#include "common/units.hpp"
#include "fs/pagecache.hpp"
#include "model/clock.hpp"

namespace dds::fs {

/// Per-node NVMe device parameters (defaults ~ a datacenter TLC drive).
struct NvmeParams {
  std::uint64_t capacity_bytes = 1600ULL * dds::GiB;
  double read_latency_s = 90e-6;
  double write_latency_s = 30e-6;
  double read_bandwidth_Bps = 5.5e9;
  double write_bandwidth_Bps = 2.1e9;

  /// Loud construction-time validation: a zero or negative bandwidth or
  /// latency silently yields infinite/NaN modeled times far from the bad
  /// parameter, so NvmeTier rejects such configs up front.
  void validate() const {
    const auto require = [](bool ok, const char* what) {
      if (!ok) {
        throw ConfigError(std::string("NvmeParams: ") + what +
                          " must be positive (zero/negative values produce "
                          "infinite or NaN modeled times)");
      }
    };
    require(capacity_bytes > 0, "capacity_bytes");
    require(read_latency_s > 0.0, "read_latency_s");
    require(write_latency_s > 0.0, "write_latency_s");
    require(read_bandwidth_Bps > 0.0, "read_bandwidth_Bps");
    require(write_bandwidth_Bps > 0.0, "write_bandwidth_Bps");
  }
};

class NvmeTier {
 public:
  NvmeTier(NvmeParams params, int nnodes)
      : params_(params) {
    DDS_CHECK(nnodes > 0);
    params_.validate();
    for (int n = 0; n < nnodes; ++n) {
      nodes_.push_back(std::make_unique<Node>(params.capacity_bytes));
    }
  }

  /// Attempts to serve `sample_id` from node `node`'s device.  On a hit,
  /// charges the read cost to `clock` and returns true.  On a miss returns
  /// false without charging — the caller fetches from the backing store
  /// and then calls admit().
  bool try_read(int node, std::uint64_t sample_id,
                std::uint64_t nominal_bytes, model::VirtualClock& clock) {
    Node& n = *nodes_.at(static_cast<std::size_t>(node));
    // Probe without inserting: PageCache::access inserts on miss, which is
    // exactly NVMe admit-on-first-touch — but the *write* must be charged
    // by admit().  We split the bookkeeping: access() here, and admit()
    // only charges time.
    if (n.resident.access(sample_id, 0, nominal_bytes)) {
      const double done = n.read_lane.acquire(
          clock.now() + params_.read_latency_s,
          static_cast<double>(nominal_bytes) / params_.read_bandwidth_Bps);
      clock.advance_to(done);
      return true;
    }
    return false;
  }

  /// Charges the write that stages a just-fetched sample onto the device.
  /// (Residency was already recorded by the try_read miss.)
  void admit(int node, std::uint64_t sample_id, std::uint64_t nominal_bytes,
             model::VirtualClock& clock) {
    (void)sample_id;
    Node& n = *nodes_.at(static_cast<std::size_t>(node));
    const double done = n.write_lane.acquire(
        clock.now() + params_.write_latency_s,
        static_cast<double>(nominal_bytes) / params_.write_bandwidth_Bps);
    clock.advance_to(done);
  }

  std::uint64_t hits(int node) const {
    return nodes_.at(static_cast<std::size_t>(node))->resident.hits();
  }
  std::uint64_t misses(int node) const {
    return nodes_.at(static_cast<std::size_t>(node))->resident.misses();
  }
  std::uint64_t used_bytes(int node) const {
    return nodes_.at(static_cast<std::size_t>(node))->resident.used_bytes();
  }
  const NvmeParams& params() const { return params_; }

  void reset() {
    for (auto& n : nodes_) {
      n->resident.clear();
      n->read_lane.reset();
      n->write_lane.reset();
    }
  }

 private:
  struct Node {
    explicit Node(std::uint64_t capacity) : resident(capacity) {}
    PageCache resident;  ///< LRU keyed by (sample id, block 0)
    model::BusyResource read_lane;
    model::BusyResource write_lane;
  };

  NvmeParams params_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace dds::fs
