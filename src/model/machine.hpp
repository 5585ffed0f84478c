// Machine configurations for the simulated clusters.
//
// The paper evaluates on two US-DOE systems; these presets carry the
// parameters the cost models need.  Compute/latency constants are calibrated
// so the simulated per-sample loading latencies land in the ranges the paper
// reports in Table 2 (PFF ~2-3 ms medians, CFF 0.2-10 ms, DDStore remote
// ~0.3-0.5 ms / local ~0.05 ms) — see DESIGN.md for the calibration notes.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace dds::model {

/// Interconnect parameters (per node unless stated otherwise).
struct NetworkParams {
  double inter_latency_s = 1.5e-6;   ///< one-way wire+stack latency
  double inter_bandwidth_Bps = 25e9; ///< per-node injection bandwidth
  double intra_latency_s = 0.3e-6;   ///< same-node (NVLink / shmem) latency
  double intra_bandwidth_Bps = 150e9;
  /// Fixed software cost of a remote one-sided read: win_lock + MPI_Get +
  /// win_unlock plus data-loader bookkeeping.  Dominates small transfers.
  double rma_remote_overhead_s = 380e-6;
  /// Same-node one-sided read (CMA/XPMEM path: no NIC, no rendezvous).
  double rma_intra_overhead_s = 40e-6;
  /// Incremental software cost per additional IOV segment of a vectored
  /// one-sided read (datatype/descriptor processing at the origin).  The
  /// base per-transfer overhead is charged once per coalesced get; each
  /// merged range beyond the first adds only this.
  double rma_segment_overhead_s = 3e-6;
  /// Per-message software overhead of the two-sided (broker) alternative:
  /// matching, envelope handling, and copy on each side.
  double two_sided_overhead_s = 60e-6;
  /// Software cost of serving a sample from the rank's own chunk (memcpy +
  /// bookkeeping); matches the paper's width=2 median of ~0.05 ms.
  double rma_local_overhead_s = 45e-6;
  /// Per-message cost of participating in a collective (log-depth factor).
  double collective_per_stage_s = 4e-6;
};

/// Parallel filesystem parameters (shared across the whole job).
///
/// Latency vs occupancy: `*_service_s` values are end-to-end latencies a
/// lone client observes; `*_occupancy_s` values are the serialized holding
/// times at the shared resource (metadata server, OST bandwidth).  Under
/// load the occupancy terms queue (closed-loop: each rank has one
/// outstanding request), so per-op latency degrades toward
/// N_clients * occupancy — which is what makes PFF/CFF flatten at scale
/// in Fig. 8 while DDStore keeps scaling.
struct FsParams {
  /// Metadata latency per namespace op (open/stat/create), unloaded.
  double mds_service_s = 0.9e-3;
  /// Serialized metadata-server holding time per op.
  double mds_occupancy_s = 20e-6;
  /// Client-side latency per read call (syscall + RPC), unloaded.
  double read_latency_s = 1.1e-3;
  /// Extra latency for a random (non-sequential) block read inside a large
  /// container: seek/locking cost on the object storage targets.
  double random_read_penalty_s = 2.4e-3;
  /// Aggregate job-visible read bandwidth of the filesystem (occupancy
  /// per block = block_bytes / this).
  double aggregate_bandwidth_Bps = 12e9;
  /// Containerized formats read whole blocks; a random sample read pulls
  /// at least this many (nominal) bytes through the FS (read amplification)
  /// and this is also the page-cache granularity.
  std::uint64_t block_bytes = 1 * dds::MiB;
  /// Effective per-node OS page-cache capacity available to the job
  /// (nominal bytes; far below node RAM because the training process,
  /// framework buffers, and replicated Python objects consume the rest).
  std::uint64_t page_cache_bytes_per_node = 24 * dds::GiB;
  /// Page-cache hit service time (memory copy + syscall).
  double cache_hit_s = 0.12e-3;
  /// Multiplicative log-normal jitter applied to FS latencies (a parallel
  /// FS is a shared facility; other jobs perturb it).  0 disables.
  double jitter_sigma = 0.25;
  /// Probability that an op hits a transient stall, and its magnitude.
  double stall_prob = 0.01;
  double stall_factor = 4.0;
  /// Write bandwidth used when staging datasets (not on the training path).
  double write_bandwidth_Bps = 20e9;
};

/// GPU compute-time parameters for the HydraGNN workload (6 PNA layers,
/// hidden dim 200, 3 FC layers): forward+backward cost per batch is
/// kernel_overhead + per_node * nodes + per_edge * edges (+ head cost that
/// scales with the output dimension).
struct GpuParams {
  double kernel_overhead_s = 4.0e-3;  ///< fixed per-step launch/sync cost
  double per_node_s = 5.5e-6;         ///< PNA message passing per graph node
  double per_edge_s = 0.4e-6;         ///< edge gather/scatter
  double per_output_s = 6.0e-9;       ///< per output neuron per graph (heads)
  /// Gradient all-reduce: ring allreduce over model_bytes.
  double allreduce_latency_s = 30e-6;
  double nccl_bandwidth_Bps = 20e9;
  /// Relative speed factor (1.0 = NVIDIA A100; V100 is ~0.5).
  double speed_factor = 1.0;
};

/// CPU-side data-pipeline parameters (batching/collation cost).
struct CpuParams {
  double batch_fixed_s = 1.2e-3;    ///< per-batch collation overhead
  double batch_per_node_s = 0.4e-6; ///< per graph node copied into the batch
  double memcpy_bandwidth_Bps = 12e9;
  /// Constant service cost of one hot-sample cache hit (hash lookup + LRU
  /// bookkeeping).  Kept below NetParams::rma_local_overhead_s so a hit is
  /// always cheaper than even a local RMA get; the hit also pays the
  /// nominal payload memcpy at memcpy_bandwidth_Bps.
  double cache_hit_service_s = 1.0e-6;
};

/// A full machine description: presets below mirror the paper's testbeds.
struct MachineConfig {
  std::string name;
  int gpus_per_node = 4;
  std::uint64_t node_memory_bytes = 256 * dds::GiB;
  std::uint64_t gpu_memory_bytes = 40 * dds::GiB;
  NetworkParams net;
  FsParams fs;
  GpuParams gpu;
  CpuParams cpu;

  int node_of_rank(int rank) const { return rank / gpus_per_node; }
  int nodes_for_ranks(int nranks) const {
    return (nranks + gpus_per_node - 1) / gpus_per_node;
  }
};

/// Summit (ORNL): 6x V100 16GB per node, dual POWER9, 512 GB, EDR IB,
/// Alpine (GPFS) filesystem.
MachineConfig summit();

/// Perlmutter (NERSC): 4x A100 40GB per node, EPYC 7763, 256 GB,
/// Slingshot interconnect, Lustre scratch.
MachineConfig perlmutter();

/// A small generic machine used by unit tests (fast constants, 4 GPUs/node).
MachineConfig test_machine();

}  // namespace dds::model
