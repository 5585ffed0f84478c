#include "model/network.hpp"

#include <bit>
#include <cmath>

namespace dds::model {

NetworkModel::NetworkModel(const MachineConfig& machine, int nranks)
    : machine_(machine),
      nranks_(nranks),
      nnodes_(machine.nodes_for_ranks(nranks)),
      nic_(static_cast<std::size_t>(nnodes_)),
      fabric_(static_cast<std::size_t>(nnodes_)) {
  DDS_CHECK(nranks > 0);
}

double NetworkModel::rma_get_time(int origin, int target, std::uint64_t bytes,
                                  double start) {
  if (origin == target) return local_get_time(bytes, start);
  const auto& p = machine_.net;
  // A straggling target serves every remote read slower: both the per-op
  // software overhead (its CPU answers the rendezvous) and the transfer
  // itself (its NIC drains at degraded speed) stretch by the scale factor.
  const double scale = scale_at(target, start);
  if (same_node(origin, target)) {
    const double duration =
        scale * static_cast<double>(bytes) / p.intra_bandwidth_Bps;
    const double ready =
        start + scale * p.rma_intra_overhead_s + p.intra_latency_s;
    auto& res = fabric_[static_cast<std::size_t>(machine_.node_of_rank(target))];
    return res.acquire(ready, duration);
  }
  const double duration =
      scale * static_cast<double>(bytes) / p.inter_bandwidth_Bps;
  const double ready =
      start + scale * p.rma_remote_overhead_s + p.inter_latency_s;
  auto& res = nic_[static_cast<std::size_t>(machine_.node_of_rank(target))];
  return res.acquire(ready, duration);
}

double NetworkModel::rma_getv_time(int origin, int target,
                                   std::uint64_t bytes, std::size_t nsegments,
                                   double start) {
  DDS_CHECK(nsegments >= 1);
  const auto& p = machine_.net;
  const double seg_extra =
      static_cast<double>(nsegments - 1) * p.rma_segment_overhead_s;
  if (origin == target) {
    // One local software overhead for the whole gather, then memcpy of the
    // summed payload (plus the per-segment descriptor cost).
    return start + p.rma_local_overhead_s + seg_extra +
           static_cast<double>(bytes) / machine_.cpu.memcpy_bandwidth_Bps;
  }
  const double scale = scale_at(target, start);
  if (same_node(origin, target)) {
    const double duration =
        scale * static_cast<double>(bytes) / p.intra_bandwidth_Bps;
    const double ready =
        start + scale * (p.rma_intra_overhead_s + seg_extra) +
        p.intra_latency_s;
    auto& res = fabric_[static_cast<std::size_t>(machine_.node_of_rank(target))];
    return res.acquire(ready, duration);
  }
  const double duration =
      scale * static_cast<double>(bytes) / p.inter_bandwidth_Bps;
  const double ready =
      start + scale * (p.rma_remote_overhead_s + seg_extra) + p.inter_latency_s;
  auto& res = nic_[static_cast<std::size_t>(machine_.node_of_rank(target))];
  return res.acquire(ready, duration);
}

double NetworkModel::two_sided_fetch_time(int origin, int target,
                                          std::uint64_t bytes, double start,
                                          double poll_delay) {
  DDS_CHECK(poll_delay >= 0.0);
  if (origin == target) return local_get_time(bytes, start);
  // Request message (tiny), broker service delay at the target, response
  // carrying the payload.  Unlike one-sided RMA, the target's CPU is on
  // the critical path — which is precisely why the paper chose RMA.
  const auto& p = machine_.net;
  const double request_arrival =
      message_time(origin, target, 64, start + p.two_sided_overhead_s);
  const double served =
      request_arrival + p.two_sided_overhead_s + poll_delay;
  return message_time(target, origin, bytes, served) +
         p.two_sided_overhead_s;
}

double NetworkModel::local_get_time(std::uint64_t bytes, double start) const {
  const auto& p = machine_.net;
  // Local chunk reads never touch shared hardware; pure per-rank cost.
  return start + p.rma_local_overhead_s +
         static_cast<double>(bytes) / machine_.cpu.memcpy_bandwidth_Bps;
}

double NetworkModel::message_time(int origin, int target, std::uint64_t bytes,
                                  double start) {
  if (origin == target) return start;
  const auto& p = machine_.net;
  if (same_node(origin, target)) {
    const double duration =
        static_cast<double>(bytes) / p.intra_bandwidth_Bps;
    auto& res = fabric_[static_cast<std::size_t>(machine_.node_of_rank(target))];
    return res.acquire(start + p.intra_latency_s, duration);
  }
  const double duration = static_cast<double>(bytes) / p.inter_bandwidth_Bps;
  auto& res = nic_[static_cast<std::size_t>(machine_.node_of_rank(target))];
  return res.acquire(start + p.inter_latency_s, duration);
}

double NetworkModel::collective_time(int nranks, std::uint64_t bytes,
                                     double max_start) const {
  if (nranks <= 1) return max_start;
  const auto& p = machine_.net;
  const int stages = std::bit_width(static_cast<unsigned>(nranks - 1));
  const double per_stage =
      p.collective_per_stage_s + p.inter_latency_s +
      static_cast<double>(bytes) / p.inter_bandwidth_Bps;
  return max_start + static_cast<double>(stages) * per_stage;
}

double NetworkModel::allreduce_time(int nranks, std::uint64_t model_bytes,
                                    double max_start) const {
  if (nranks <= 1) return max_start;
  const auto& g = machine_.gpu;
  // Ring allreduce: 2*(N-1)/N of the payload crosses each link.
  const double volume = 2.0 * static_cast<double>(nranks - 1) /
                        static_cast<double>(nranks) *
                        static_cast<double>(model_bytes);
  const double stages = 2.0 * static_cast<double>(nranks - 1);
  return max_start + stages * g.allreduce_latency_s +
         volume / g.nccl_bandwidth_Bps;
}

void NetworkModel::reset() {
  for (auto& r : nic_) r.reset();
  for (auto& r : fabric_) r.reset();
}

}  // namespace dds::model
