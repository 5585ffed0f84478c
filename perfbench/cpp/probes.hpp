// Host-time probes of single kernels, run only in the traced run: each
// repeats one call on the workload's own inputs until enough time has
// passed to read a stable median.
#pragma once

#include <cstdint>

#include "workload.hpp"

namespace perfbench {

struct ProbeResult {
  double checksum_ns_per_kib = 0;   ///< checksum64 over staged sample bytes
  double decode_ns_per_sample = 0;  ///< GraphSample::deserialize
  double collate_ns_per_graph = 0;  ///< GraphBatch::collate, one local batch
  double allgather_us = 0;          ///< allgather_untimed over every rank
  double barrier_us = 0;            ///< barrier over every rank
  double forward_us = 0;            ///< HydraGnnModel::forward, one batch
  double backward_us = 0;           ///< HydraGnnModel::backward, one batch
  std::uint64_t sample_bytes = 0;   ///< bytes the checksum probe covers
  std::uint64_t samples = 0;        ///< samples the decode probe covers
};

ProbeResult run_probes(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench
