// Interconnect timing model.
//
// Time-only companion of the simmpi data plane: simmpi moves real bytes
// between rank-owned buffers and asks this model what the operation cost in
// simulated seconds.  Transfers serialize at the *target node's* NIC port
// (a BusyResource), so a rank whose chunk is popular becomes a queueing hot
// spot — the failure mode DDStore's replication groups exist to relieve.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "model/clock.hpp"
#include "model/machine.hpp"

namespace dds::model {

class NetworkModel {
 public:
  NetworkModel(const MachineConfig& machine, int nranks);

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  /// Completion time of a one-sided get of `bytes` from `target`'s window,
  /// issued by `origin` at simulated time `start`.  Includes the fixed
  /// lock/get/unlock software overhead, wire latency, bandwidth, and
  /// queueing at the target node's NIC (or NVLink fabric if same-node).
  double rma_get_time(int origin, int target, std::uint64_t bytes,
                      double start);

  /// Completion time of a *vectored* one-sided get: `nsegments` disjoint
  /// ranges of `target`'s window, `bytes` in total, moved in one RMA
  /// transaction.  The fixed software overhead (alpha) is charged once for
  /// the whole transfer — this is the coalescing win — while each segment
  /// beyond the first adds only NetworkParams::rma_segment_overhead_s
  /// (IOV descriptor processing); the wire term sums the bytes (bytes/beta)
  /// and queues at the target NIC exactly like a single large get.
  double rma_getv_time(int origin, int target, std::uint64_t bytes,
                       std::size_t nsegments, double start);

  /// Completion time of a two-sided request/response fetch (the
  /// message-broker design alternative the paper evaluated and rejected,
  /// §3.1): a small request message to the target, a service delay until
  /// the target's broker polls its queue, and the data response.
  double two_sided_fetch_time(int origin, int target, std::uint64_t bytes,
                              double start, double poll_delay);

  /// Completion time of serving `bytes` from the caller's own chunk
  /// (no network involved; memcpy + loader bookkeeping).
  double local_get_time(std::uint64_t bytes, double start) const;

  /// Completion time of a two-sided message (used by simulated collectives).
  double message_time(int origin, int target, std::uint64_t bytes,
                      double start);

  /// Cost of a log-depth collective over `nranks` ranks moving `bytes`
  /// per rank (barrier: bytes = 0), beginning once all ranks arrived.
  double collective_time(int nranks, std::uint64_t bytes,
                         double max_start) const;

  /// Ring allreduce over `model_bytes` (gradient aggregation, NCCL-style).
  double allreduce_time(int nranks, std::uint64_t model_bytes,
                        double max_start) const;

  int nranks() const { return nranks_; }
  const MachineConfig& machine() const { return machine_; }

  /// Installs a service-scale source consulted per RMA transfer (fault
  /// injection's slowdown phases): transfers targeting `rank` at virtual
  /// time `now` take the returned factor times longer.  Pass nullptr to
  /// clear; with no source installed every rank serves at rated speed.
  void set_dynamic_scale(std::function<double(int rank, double now)> fn) {
    dynamic_scale_ = std::move(fn);
  }

  /// Clears all NIC busy state (between epochs/runs).  The service-scale
  /// source persists; clear it via set_dynamic_scale.
  void reset();

 private:
  bool same_node(int a, int b) const {
    return machine_.node_of_rank(a) == machine_.node_of_rank(b);
  }

  const MachineConfig machine_;
  int nranks_;
  int nnodes_;
  /// Service scale of `target` for a transfer issued at `start`.
  double scale_at(int target, double start) const {
    return dynamic_scale_ ? dynamic_scale_(target, start) : 1.0;
  }

  std::vector<BusyResource> nic_;     ///< per-node inter-node port
  std::vector<BusyResource> fabric_;  ///< per-node intra-node fabric
  std::function<double(int, double)> dynamic_scale_;  ///< slowdown phases
};

}  // namespace dds::model
