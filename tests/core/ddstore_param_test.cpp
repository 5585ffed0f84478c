// Property sweep: DDStore must return byte-identical samples for every
// combination of rank count, width, and placement.
#include <gtest/gtest.h>

#include <tuple>

#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "formats/cff.hpp"

namespace dds::core {
namespace {

using datagen::DatasetKind;
using model::test_machine;

using Config = std::tuple<int /*nranks*/, int /*width*/, Placement>;

class DDStoreSweep : public ::testing::TestWithParam<Config> {};

TEST_P(DDStoreSweep, EveryRankReadsEverySampleCorrectly) {
  const auto [nranks, width, placement] = GetParam();
  const auto machine = test_machine();
  constexpr std::uint64_t kSamples = 60;

  fs::ParallelFileSystem pfs(machine.fs, machine.nodes_for_ranks(nranks));
  const auto ds =
      datagen::make_dataset(DatasetKind::AisdExDiscrete, kSamples, 13);
  formats::CffWriter::stage(pfs, "cff", *ds, 3);
  const formats::CffReader reader(pfs, "cff",
                                  ds->spec().nominal_cff_sample_bytes());

  simmpi::Runtime rt(nranks, machine);
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(pfs, machine.node_of_rank(c.world_rank()), c.clock(),
                        c.rng());
    DDStoreConfig cfg;
    cfg.width = width;
    cfg.placement = placement;
    DDStore store(c, reader, client, cfg);

    EXPECT_EQ(store.num_samples(), kSamples);
    EXPECT_EQ(store.num_replicas(), nranks / (width == 0 ? nranks : width));

    // Stride chosen per-rank so the sweep exercises different access
    // interleavings while still covering everything across ranks.
    const std::uint64_t stride = 1 + static_cast<std::uint64_t>(c.rank()) % 3;
    for (std::uint64_t id = static_cast<std::uint64_t>(c.rank()) % stride;
         id < kSamples; id += stride) {
      EXPECT_EQ(store.get(id), ds->make(id)) << "sample " << id;
    }
    // Registry totals must account for every byte exactly once per group.
    std::uint64_t total = 0;
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      total += store.registry().lookup(id).length;
    }
    EXPECT_EQ(total, store.registry().total_bytes());
    store.fence();
  });
}

INSTANTIATE_TEST_SUITE_P(
    WidthsPlacementsModes, DDStoreSweep,
    ::testing::Values(
        Config{1, 0, Placement::Block},
        Config{2, 0, Placement::Block},
        Config{4, 2, Placement::Block},
        Config{4, 2, Placement::RoundRobin},
        Config{6, 3, Placement::Block},
        Config{6, 2, Placement::RoundRobin},
        Config{8, 8, Placement::Block},
        Config{8, 4, Placement::RoundRobin},
        Config{8, 2, Placement::Block},
        Config{12, 4, Placement::Block}),
    [](const ::testing::TestParamInfo<Config>& info) {
      // No structured bindings here: their bracketed name list confuses
      // macro argument splitting inside INSTANTIATE_TEST_SUITE_P.  Every
      // read is one-sided RMA; the "Rma" suffix keeps the instance names
      // stable.
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "w";
      name += std::to_string(std::get<1>(info.param));
      name += std::get<2>(info.param) == Placement::Block ? "Block" : "RR";
      name += "Rma";
      return name;
    });

}  // namespace
}  // namespace dds::core
