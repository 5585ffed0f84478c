// Micro-benchmarks (google-benchmark): the hot primitives underneath
// every experiment — registry lookups, placement arithmetic, sample
// (de)serialization, payload checksums, batch collation, the sample cache
// and the batch fetch planner, spectrum smoothing, page-cache access, the
// contention primitive, and the real GNN's dense kernels.  These measure real wall time of this
// implementation (unlike the figure benches, which report simulated time).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/fetch/cache.hpp"
#include "core/fetch_plan.hpp"
#include "core/registry.hpp"
#include "datagen/molecule.hpp"
#include "fs/pagecache.hpp"
#include "gnn/pna.hpp"
#include "graph/batch.hpp"
#include "model/clock.hpp"

namespace {

using namespace dds;

void BM_RegistryLookup(benchmark::State& state) {
  const core::ChunkAssignment assignment(100'000, 64, core::Placement::Block);
  std::vector<std::uint32_t> lengths(100'000, 2000);
  std::vector<std::size_t> counts;
  for (int g = 0; g < 64; ++g) counts.push_back(assignment.chunk_size(g));
  const auto reg = core::DataRegistry::build(assignment, lengths, counts);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg->lookup(rng.uniform_u64(100'000)));
  }
}
BENCHMARK(BM_RegistryLookup);

void BM_ChunkOwnerOf(benchmark::State& state) {
  const core::ChunkAssignment assignment(10'500'000, 384,
                                         core::Placement::Block);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assignment.owner_of(rng.uniform_u64(10'500'000)));
  }
}
BENCHMARK(BM_ChunkOwnerOf);

void BM_SampleSerialize(benchmark::State& state) {
  Rng rng(3);
  const datagen::Molecule mol = datagen::generate_molecule(rng);
  const auto sample = datagen::molecule_to_sample(mol, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample.to_bytes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sample.serialized_size()));
}
BENCHMARK(BM_SampleSerialize);

void BM_SampleDeserialize(benchmark::State& state) {
  Rng rng(4);
  const datagen::Molecule mol = datagen::generate_molecule(rng);
  const ByteBuffer bytes = datagen::molecule_to_sample(mol, 0).to_bytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::GraphSample::deserialize(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_SampleDeserialize);

void BM_Checksum64(benchmark::State& state) {
  Rng rng(10);
  ByteBuffer bytes(static_cast<std::size_t>(state.range(0)));
  for (std::byte& b : bytes) b = static_cast<std::byte>(rng.next());
  for (auto _ : state) {
    std::uint64_t digest = checksum64(ByteSpan(bytes));
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 64 B, one AISD sample (~3 KiB), and 1 MiB.
BENCHMARK(BM_Checksum64)->Arg(64)->Arg(3072)->Arg(1 << 20);

void BM_CollateBatch(benchmark::State& state) {
  Rng rng(5);
  std::vector<graph::GraphSample> samples;
  for (int i = 0; i < state.range(0); ++i) {
    const datagen::Molecule mol = datagen::generate_molecule(rng);
    samples.push_back(
        datagen::molecule_to_sample(mol, static_cast<std::uint64_t>(i)));
    samples.back().y = {0.0f};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::GraphBatch::collate(samples));
  }
}
BENCHMARK(BM_CollateBatch)->Arg(32)->Arg(128);

void BM_SampleCacheChurn(benchmark::State& state) {
  // One rank of perfbench tiered_batch_64: its 1,024-sample shard in a
  // fresh order every pass (local shuffle), ~3 KB payloads, and a 2 MiB
  // cache that holds about two thirds of the shard, so misses evict.
  constexpr std::uint64_t kShard = 1024;
  Rng rng(22);
  std::vector<ByteBuffer> payloads(kShard);
  for (ByteBuffer& p : payloads) {
    p.assign(2560 + rng.uniform_u64(1024), std::byte{0x3c});
  }
  core::fetch::SampleCache cache(2 * 1024 * 1024);
  std::vector<std::uint64_t> order = rng.permutation(kShard);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == order.size()) {
      rng.shuffle(order);
      next = 0;
    }
    const std::uint64_t id = order[next++];
    if (!cache.lookup(id)) cache.insert(id, ByteSpan(payloads[id]));
  }
}
BENCHMARK(BM_SampleCacheChurn);

void BM_PlanBatchFetch(benchmark::State& state) {
  // A coalesced batch of 32 ids drawn across a 65,536-sample dataset
  // striped over 8 owners, with a cache predicate that claims every even
  // id: the plan dedupes, diverts the cached half and groups the rest.
  constexpr std::uint64_t kSamples = 65'536;
  constexpr int kWidth = 8;
  const core::ChunkAssignment assignment(kSamples, kWidth,
                                         core::Placement::Block);
  Rng rng(23);
  std::vector<std::uint32_t> lengths(kSamples);
  for (std::uint32_t& l : lengths) {
    l = 2560 + static_cast<std::uint32_t>(rng.uniform_u64(1024));
  }
  std::vector<std::size_t> counts;
  for (int g = 0; g < kWidth; ++g) counts.push_back(assignment.chunk_size(g));
  const auto reg = core::DataRegistry::build(assignment, lengths, counts);
  core::fetch::SampleCache cache(kSamples);
  const std::byte one{1};
  for (std::uint64_t id = 0; id < kSamples; id += 2) {
    cache.insert(id, ByteSpan(&one, 1));
  }
  const auto is_cached = [&cache](std::uint64_t id) {
    return cache.contains(id);
  };
  std::vector<std::uint64_t> ids(32 * 64);
  for (std::uint64_t& id : ids) id = rng.uniform_u64(kSamples);
  std::size_t batch = 0;
  for (auto _ : state) {
    const std::span<const std::uint64_t> request(ids.data() + 32 * batch, 32);
    benchmark::DoNotOptimize(plan_batch_fetch(*reg, request, is_cached));
    batch = (batch + 1) % 64;
  }
}
BENCHMARK(BM_PlanBatchFetch);

void BM_SmoothSpectrum(benchmark::State& state) {
  Rng rng(6);
  const datagen::Molecule mol = datagen::generate_molecule(rng);
  std::vector<float> pos, inten;
  datagen::uv_peaks(mol, rng, pos, inten);
  const auto bins = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(datagen::smooth_spectrum(pos, inten, bins));
  }
}
BENCHMARK(BM_SmoothSpectrum)->Arg(351)->Arg(37500);

void BM_PageCacheAccess(benchmark::State& state) {
  fs::PageCache cache(1 << 30);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.access(1, rng.uniform_u64(2048), 1 << 20));
  }
}
BENCHMARK(BM_PageCacheAccess);

void BM_BusyResourceAcquire(benchmark::State& state) {
  static model::BusyResource resource;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resource.acquire(0.0, 1e-9));
  }
}
BENCHMARK(BM_BusyResourceAcquire)->Threads(1)->Threads(4);

void BM_RngPermutation(benchmark::State& state) {
  Rng rng(8);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.permutation(n));
  }
}
BENCHMARK(BM_RngPermutation)->Arg(1 << 14)->Arg(1 << 18);

void BM_LatencyPercentile(benchmark::State& state) {
  Rng rng(9);
  LatencyRecorder rec;
  for (int i = 0; i < 100'000; ++i) rec.add(rng.exponential(1000.0));
  for (auto _ : state) {
    // Re-sorting dominates the first call; subsequent calls are cached.
    benchmark::DoNotOptimize(rec.percentile(99.0));
  }
}
BENCHMARK(BM_LatencyPercentile);

// The real GNN's kernels at perfbench gnn_train's shapes: a local batch of
// 8 molecules is ~392 nodes, the embedding maps 6 features to hidden 32,
// PNA's update layer maps 13·32 = 416 to 32, and 8×32→128 is a wide head.
gnn::Tensor random_tensor(std::size_t rows, std::size_t cols,
                          std::uint64_t seed) {
  Rng rng(seed);
  gnn::Tensor t(rows, cols);
  for (float& v : t.v) v = static_cast<float>(rng.normal());
  return t;
}

void linear_shapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"rows", "in", "out"});
  b->Args({392, 6, 32});
  b->Args({392, 32, 32});
  b->Args({392, 416, 32});
  b->Args({8, 32, 128});
}

void BM_LinearForward(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto in = static_cast<std::size_t>(state.range(1));
  const auto out = static_cast<std::size_t>(state.range(2));
  Rng rng(11);
  gnn::Linear layer(in, out, rng, "bench");
  const gnn::Tensor x = random_tensor(rows, in, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(x));
  }
}
BENCHMARK(BM_LinearForward)->Apply(linear_shapes);

void BM_LinearBackward(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto in = static_cast<std::size_t>(state.range(1));
  const auto out = static_cast<std::size_t>(state.range(2));
  Rng rng(13);
  gnn::Linear layer(in, out, rng, "bench");
  (void)layer.forward(random_tensor(rows, in, 14));
  // Half the upstream gradient is zero, as behind a ReLU.
  gnn::Tensor gout = random_tensor(rows, out, 15);
  for (float& g : gout.v) g = std::max(g, 0.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.backward(gout));
  }
}
BENCHMARK(BM_LinearBackward)->Apply(linear_shapes);

graph::GraphBatch molecule_batch(std::size_t graphs) {
  Rng rng(16);
  std::vector<graph::GraphSample> samples;
  for (std::size_t i = 0; i < graphs; ++i) {
    samples.push_back(
        datagen::molecule_to_sample(datagen::generate_molecule(rng), i));
    samples.back().y = {0.0f};
  }
  return graph::GraphBatch::collate(samples);
}

void BM_PNAConvForward(benchmark::State& state) {
  const auto hidden = static_cast<std::size_t>(state.range(0));
  const graph::GraphBatch batch = molecule_batch(8);
  Rng rng(17);
  gnn::PNAConv conv(hidden, rng, "bench");
  const gnn::Tensor h = random_tensor(batch.num_nodes, hidden, 18);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(h, batch));
  }
  state.counters["nodes"] = static_cast<double>(batch.num_nodes);
}
BENCHMARK(BM_PNAConvForward)->Arg(32);

void BM_PNAConvBackward(benchmark::State& state) {
  const auto hidden = static_cast<std::size_t>(state.range(0));
  const graph::GraphBatch batch = molecule_batch(8);
  Rng rng(19);
  gnn::PNAConv conv(hidden, rng, "bench");
  (void)conv.forward(random_tensor(batch.num_nodes, hidden, 20), batch);
  const gnn::Tensor gout = random_tensor(batch.num_nodes, hidden, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(gout, batch));
  }
  state.counters["nodes"] = static_cast<double>(batch.num_nodes);
}
BENCHMARK(BM_PNAConvBackward)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
