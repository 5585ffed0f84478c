#include "probes.hpp"

#include <algorithm>
#include <functional>

#include "common/checksum.hpp"
#include "datagen/dataset.hpp"
#include "graph/batch.hpp"
#include "report.hpp"
#include "simmpi/runtime.hpp"

namespace perfbench {

namespace {

using namespace dds;

/// Median over five rounds of the seconds one call of `fn` takes; each
/// round repeats `fn` for at least 20 ms.
double seconds_per_call(const std::function<void()>& fn) {
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t calls = 0;
    const double t0 = host_now();
    double t = t0;
    do {
      fn();
      ++calls;
      t = host_now();
    } while (t - t0 < 0.02);
    rounds.push_back((t - t0) / static_cast<double>(calls));
  }
  return median(rounds);
}

/// Keeps probe results observable so the calls cannot be optimized away.
volatile std::uint64_t g_sink = 0;

/// Host seconds per collective: every rank runs `reps` of `op` between
/// two rendezvous; the first exit of each rendezvous marks the boundary.
double collective_seconds(const WorkloadSpec& spec, std::uint64_t seed,
                          int reps,
                          const std::function<void(simmpi::Comm&)>& op) {
  simmpi::Runtime rt(spec.nranks, model::perlmutter(), seed,
                     /*deterministic=*/true, simmpi::Engine::Fibers);
  FirstExit begin, end;
  rt.run([&](simmpi::Comm& comm) {
    (void)comm.allgather_untimed(0);
    begin.hit();
    for (int i = 0; i < reps; ++i) op(comm);
    (void)comm.allgather_untimed(0);
    end.hit();
  });
  return (end.t - begin.t) / reps;
}

}  // namespace

ProbeResult run_probes(const WorkloadSpec& spec, std::uint64_t seed) {
  ProbeResult out;
  const auto dataset =
      datagen::make_dataset(spec.dataset, spec.num_samples, seed);
  const std::uint64_t n = std::min<std::uint64_t>(spec.num_samples, 2048);
  std::vector<ByteBuffer> bytes;
  bytes.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    bytes.push_back(dataset->make(i).to_bytes());
    out.sample_bytes += bytes.back().size();
  }
  out.samples = n;

  const double checksum_s = seconds_per_call([&] {
    std::uint64_t h = 0;
    for (const ByteBuffer& b : bytes) h ^= checksum64(ByteSpan(b));
    g_sink = h;
  });
  out.checksum_ns_per_kib =
      checksum_s * 1e9 / (static_cast<double>(out.sample_bytes) / 1024.0);

  std::vector<graph::GraphSample> decoded(n);
  const double decode_s = seconds_per_call([&] {
    for (std::uint64_t i = 0; i < n; ++i) {
      decoded[i] = graph::GraphSample::deserialize(ByteSpan(bytes[i]));
    }
  });
  out.decode_ns_per_sample = decode_s * 1e9 / static_cast<double>(n);

  const std::size_t batch =
      static_cast<std::size_t>(std::min<std::uint64_t>(spec.local_batch, n));
  const std::size_t batches = n / batch;
  const double collate_s = seconds_per_call([&] {
    for (std::size_t k = 0; k < batches; ++k) {
      const graph::GraphBatch b = graph::GraphBatch::collate(
          std::span<const graph::GraphSample>(decoded.data() + k * batch,
                                              batch));
      g_sink = b.num_nodes;
    }
  });
  out.collate_ns_per_graph =
      collate_s * 1e9 / static_cast<double>(batches * batch);

  gnn::GnnConfig cfg = spec.gnn;
  cfg.input_dim = decoded.front().node_feature_dim;
  cfg.output_dim = decoded.front().target_dim();
  gnn::HydraGnnModel model(cfg, seed);
  const graph::GraphBatch gb = graph::GraphBatch::collate(
      std::span<const graph::GraphSample>(decoded.data(), batch));
  gnn::Tensor target(gb.num_graphs, gb.target_dim);
  target.v = gb.y;
  std::vector<double> forward, backward;
  const double stop = host_now() + 0.2;
  while (forward.size() < 20 || host_now() < stop) {
    model.zero_grad();
    const double t0 = host_now();
    const gnn::Tensor pred = model.forward(gb);
    const double t1 = host_now();
    gnn::Tensor dpred;
    (void)gnn::mse_loss(pred, target, &dpred);
    const double t2 = host_now();
    model.backward(dpred, gb);
    backward.push_back(host_now() - t2);
    forward.push_back(t1 - t0);
  }
  out.forward_us = median(forward) * 1e6;
  out.backward_us = median(backward) * 1e6;

  const int reps = std::max(50, 100'000 / spec.nranks);
  out.allgather_us =
      collective_seconds(spec, seed, reps, [](simmpi::Comm& comm) {
        (void)comm.allgather_untimed(comm.rank());
      }) *
      1e6;
  out.barrier_us = collective_seconds(spec, seed, reps,
                                      [](simmpi::Comm& comm) {
                                        comm.barrier();
                                      }) *
                   1e6;
  return out;
}

}  // namespace perfbench
