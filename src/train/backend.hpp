// Data-loading backends: one interface over the three data-management
// methodologies the paper compares (§4.3) — PFF, CFF (both file-based via
// SampleReader) and DDStore.  Trainers and benches talk to DataBackend so
// swapping the methodology is a one-line change, as in the paper's
// torch.utils.data.Dataset subclass integration (§3.2).
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "core/ddstore.hpp"
#include "formats/reader.hpp"
#include "fs/nvme.hpp"

namespace dds::train {

class DataBackend {
 public:
  virtual ~DataBackend() = default;

  /// Timed load + decode of one sample.
  virtual graph::GraphSample load(std::uint64_t id) = 0;

  /// Timed load + decode of a whole batch, in request order.  The default
  /// loops load() over *distinct* ids only — a sampler that repeats an id
  /// within a batch pays the storage path once and copies the decoded
  /// sample for later occurrences, matching the dedupe the DDStore fetch
  /// planner performs.  Backends with a batched fast path override this,
  /// which is how DDStoreConfig::batch_fetch engages coalesced transfers.
  virtual std::vector<graph::GraphSample> load_batch(
      std::span<const std::uint64_t> ids) {
    std::vector<graph::GraphSample> out;
    out.reserve(ids.size());
    std::unordered_map<std::uint64_t, std::size_t> first_at;
    first_at.reserve(ids.size());
    for (const auto id : ids) {
      const auto [it, fresh] = first_at.try_emplace(id, out.size());
      if (fresh) {
        out.push_back(load(id));
      } else {
        out.push_back(out[it->second]);
      }
    }
    return out;
  }

  virtual std::uint64_t num_samples() const = 0;
  virtual std::uint64_t nominal_sample_bytes() const = 0;
  virtual std::string name() const = 0;

  /// Hook called once per rank per epoch (e.g. container reopen costs).
  virtual void epoch_start() {}

  /// The backend's metrics registry, when it keeps one (nullptr
  /// otherwise).  Every shipped backend records each sample's load latency
  /// in its `sample_load_s` recorder, which SimulatedTrainer's
  /// gather_latencies reads.  SimulatedTrainer also snapshots the
  /// registry's counter vector at epoch boundaries and reports summed
  /// per-epoch deltas generically — a backend that registers a new counter
  /// shows up in every EpochReport and bench JSON without further plumbing.
  virtual const MetricsRegistry* metrics() const { return nullptr; }
};

/// File-based loading: every sample access goes to the (simulated)
/// parallel filesystem through a format reader.
class FileBackend final : public DataBackend {
 public:
  FileBackend(const formats::SampleReader& reader, fs::FsClient& client,
              std::string name)
      : reader_(&reader), client_(&client), name_(std::move(name)) {}

  graph::GraphSample load(std::uint64_t id) override {
    const double t0 = client_->clock().now();
    graph::GraphSample sample = reader_->read(id, *client_);
    latency_.add(client_->clock().now() - t0);
    return sample;
  }
  std::uint64_t num_samples() const override {
    return reader_->num_samples();
  }
  std::uint64_t nominal_sample_bytes() const override {
    return reader_->nominal_sample_bytes();
  }
  std::string name() const override { return name_; }
  const MetricsRegistry* metrics() const override { return &metrics_; }

 private:
  const formats::SampleReader* reader_;
  fs::FsClient* client_;
  std::string name_;
  MetricsRegistry metrics_;
  LatencyRecorder& latency_ = metrics_.latency("sample_load_s");
};

/// File-based loading staged through a node-local NVMe burst buffer: the
/// first touch of a sample reads the parallel FS and writes the device;
/// later epochs stream from local flash.  This is the hardware-assisted
/// alternative DDStore is designed to make unnecessary (paper §1/§2.3);
/// bench_ablation_storage measures the trade-off.
class NvmeStagedBackend final : public DataBackend {
 public:
  NvmeStagedBackend(const formats::SampleReader& reader, fs::FsClient& client,
                    fs::NvmeTier& tier, int node,
                    formats::DecodeCost decode = formats::DecodeCost::adios())
      : reader_(&reader), client_(&client), tier_(&tier), node_(node),
        decode_(decode) {}

  graph::GraphSample load(std::uint64_t id) override {
    const double t0 = client_->clock().now();
    ByteBuffer bytes;
    if (tier_->try_read(node_, id, reader_->nominal_sample_bytes(),
                        client_->clock())) {
      bytes = reader_->read_bytes_raw(id);  // data plane; NVMe time charged
    } else {
      bytes = reader_->read_bytes(id, *client_);  // timed backing-store read
      tier_->admit(node_, id, reader_->nominal_sample_bytes(),
                   client_->clock());
    }
    decode_.charge(client_->clock(), reader_->nominal_sample_bytes());
    graph::GraphSample sample = graph::GraphSample::deserialize(bytes);
    latency_.add(client_->clock().now() - t0);
    return sample;
  }
  std::uint64_t num_samples() const override {
    return reader_->num_samples();
  }
  std::uint64_t nominal_sample_bytes() const override {
    return reader_->nominal_sample_bytes();
  }
  std::string name() const override { return "NVMe+CFF"; }
  const MetricsRegistry* metrics() const override { return &metrics_; }

 private:
  const formats::SampleReader* reader_;
  fs::FsClient* client_;
  fs::NvmeTier* tier_;
  int node_;
  formats::DecodeCost decode_;
  MetricsRegistry metrics_;
  LatencyRecorder& latency_ = metrics_.latency("sample_load_s");
};

/// DDStore-backed loading: all accesses are in-memory RMA transactions.
class DDStoreBackend final : public DataBackend {
 public:
  explicit DDStoreBackend(core::DDStore& store) : store_(&store) {}

  graph::GraphSample load(std::uint64_t id) override {
    return store_->get(id);
  }
  std::vector<graph::GraphSample> load_batch(
      std::span<const std::uint64_t> ids) override {
    return store_->get_batch(ids);
  }
  std::uint64_t num_samples() const override { return store_->num_samples(); }
  std::uint64_t nominal_sample_bytes() const override {
    return store_->nominal_sample_bytes();
  }
  std::string name() const override { return "DDStore"; }

  const MetricsRegistry* metrics() const override {
    return &store_->metrics();
  }

  core::DDStore& store() { return *store_; }

 private:
  core::DDStore* store_;
};

}  // namespace dds::train
