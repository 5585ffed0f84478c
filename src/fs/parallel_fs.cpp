#include "fs/parallel_fs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "faults/injector.hpp"

namespace dds::fs {

namespace {

/// Loud construction-time validation: a zero or negative bandwidth or
/// latency silently turns every modeled time into +/-inf or NaN dozens of
/// calls later, far from the bad parameter.  Reject at the source instead.
void validate_fs_params(const model::FsParams& p) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw ConfigError(std::string("FsParams: ") + what +
                        " must be positive (zero/negative values produce "
                        "infinite or NaN modeled times)");
    }
  };
  require(p.mds_service_s > 0.0, "mds_service_s");
  require(p.mds_occupancy_s > 0.0, "mds_occupancy_s");
  require(p.read_latency_s > 0.0, "read_latency_s");
  require(p.random_read_penalty_s >= 0.0, "random_read_penalty_s (>= 0)");
  require(p.aggregate_bandwidth_Bps > 0.0, "aggregate_bandwidth_Bps");
  require(p.write_bandwidth_Bps > 0.0, "write_bandwidth_Bps");
  require(p.cache_hit_s > 0.0, "cache_hit_s");
  require(p.block_bytes > 0, "block_bytes");
}

}  // namespace

ParallelFileSystem::ParallelFileSystem(model::FsParams params, int nnodes)
    : params_(params), nnodes_(nnodes) {
  DDS_CHECK(nnodes > 0);
  validate_fs_params(params_);
  caches_.reserve(static_cast<std::size_t>(nnodes));
  for (int n = 0; n < nnodes; ++n) {
    caches_.push_back(
        std::make_unique<PageCache>(params_.page_cache_bytes_per_node));
  }
}

void ParallelFileSystem::write_file(const std::string& path, ByteSpan data,
                                    std::uint64_t nominal_size) {
  write_file(path, ByteBuffer(data.begin(), data.end()), nominal_size);
}

void ParallelFileSystem::write_file(const std::string& path, ByteBuffer&& data,
                                    std::uint64_t nominal_size) {
  const std::unique_lock lock(m_);
  auto& f = files_[path];
  if (f.id == 0) f.id = next_id_++;
  f.nominal_size = nominal_size == 0 ? data.size() : nominal_size;
  f.data = std::move(data);
  DDS_CHECK_MSG(f.nominal_size >= f.data.size(),
                "nominal size must be >= actual payload");
}

bool ParallelFileSystem::exists(const std::string& path) const {
  const std::shared_lock lock(m_);
  return files_.contains(path);
}

const ParallelFileSystem::FileObject& ParallelFileSystem::lookup(
    const std::string& path) const {
  const auto it = files_.find(path);
  if (it == files_.end()) {
    throw IoError("no such file: " + path);
  }
  return it->second;
}

std::uint64_t ParallelFileSystem::file_size(const std::string& path) const {
  const std::shared_lock lock(m_);
  return lookup(path).data.size();
}

std::uint64_t ParallelFileSystem::nominal_file_size(
    const std::string& path) const {
  const std::shared_lock lock(m_);
  return lookup(path).nominal_size;
}

void ParallelFileSystem::remove(const std::string& path) {
  const std::unique_lock lock(m_);
  if (files_.erase(path) == 0) throw IoError("no such file: " + path);
}

std::vector<std::string> ParallelFileSystem::list(
    const std::string& prefix) const {
  const std::shared_lock lock(m_);
  std::vector<std::string> out;
  for (const auto& [path, _] : files_) {
    if (path.starts_with(prefix)) out.push_back(path);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ParallelFileSystem::file_count() const {
  const std::shared_lock lock(m_);
  return files_.size();
}

std::uint64_t ParallelFileSystem::total_nominal_bytes() const {
  const std::shared_lock lock(m_);
  std::uint64_t total = 0;
  for (const auto& [_, f] : files_) total += f.nominal_size;
  return total;
}

ByteBuffer ParallelFileSystem::read_file_raw(const std::string& path) const {
  const std::shared_lock lock(m_);
  return lookup(path).data;
}

FileRef ParallelFileSystem::make_ref(const std::string& path) const {
  const std::shared_lock lock(m_);
  const auto& f = lookup(path);
  FileRef ref;
  ref.id = f.id;
  ref.actual_size = f.data.size();
  ref.nominal_size = f.nominal_size;
  ref.payload = &f.data;
  ref.scale = ref.actual_size == 0
                  ? 1.0
                  : static_cast<double>(ref.nominal_size) /
                        static_cast<double>(ref.actual_size);
  return ref;
}

void ParallelFileSystem::reset_time_state() {
  mds_.reset();
  bandwidth_.reset();
  for (auto& c : caches_) c->clear();
}

double ParallelFileSystem::stage_read_at(double ready,
                                         std::uint64_t nominal_bytes) {
  // Fine-grained object read: per-call RPC latency plus the random-access
  // seek cost, then the payload's share of the job-wide data path.  The
  // shared BusyResource is what makes concurrent staging from many ranks
  // contend exactly like every other timed FS read; acquire() never
  // touches a clock, so completions can be modeled at issue time.
  //
  // Deliberately jitter-free: staging must not consume any rank's RNG
  // stream, so arming tiering never perturbs fault/backoff sequences —
  // the same determinism discipline the hedge path follows.
  const double issue = ready + params_.read_latency_s +
                       params_.random_read_penalty_s;
  return bandwidth_.acquire(
      issue, static_cast<double>(nominal_bytes) / params_.aggregate_bandwidth_Bps);
}

// ---- FsClient --------------------------------------------------------------

double FsClient::jitter() {
  const auto& p = fs_->params_;
  double factor = 1.0;
  if (p.jitter_sigma > 0.0) {
    // Log-normal with mean 1.
    factor *= std::exp(p.jitter_sigma * rng_->normal() -
                       0.5 * p.jitter_sigma * p.jitter_sigma);
  }
  if (p.stall_prob > 0.0 && rng_->bernoulli(p.stall_prob)) {
    factor *= p.stall_factor;
  }
  return factor;
}

FileRef FsClient::open(const std::string& path) {
  FileRef ref;
  {
    const std::shared_lock lock(fs_->m_);
    const auto& f = fs_->lookup(path);
    ref.id = f.id;
    ref.actual_size = f.data.size();
    ref.nominal_size = f.nominal_size;
    ref.payload = &f.data;
  }
  const auto& p = fs_->params_;
  // Queue at the MDS, then pay the (jittered) end-to-end latency.
  const double served = fs_->mds_.acquire(clock_->now(), p.mds_occupancy_s);
  clock_->advance_to(served + p.mds_service_s * jitter());
  ++stats_.opens;

  ref.scale = ref.actual_size == 0
                  ? 1.0
                  : static_cast<double>(ref.nominal_size) /
                        static_cast<double>(ref.actual_size);
  return ref;
}

void FsClient::pread(const FileRef& file, MutableByteSpan dst,
                     std::uint64_t offset, bool sequential, bool cacheable) {
  if (!range_within(offset, dst.size(), file.actual_size)) {
    throw IoError("pread past end of file (offset " + std::to_string(offset) +
                  " + " + std::to_string(dst.size()) + " > " +
                  std::to_string(file.actual_size) + ")");
  }
  if (faults_ != nullptr && faults_->fs_read_fails(fault_rank_)) {
    // Transient server-side error (EIO/timeout): the RPC round-trip was
    // paid before the failure surfaced; no data lands.
    clock_->advance(fs_->params_.read_latency_s * jitter());
    throw IoError("injected transient read error on file id " +
                  std::to_string(file.id));
  }
  const auto& p = fs_->params_;

  // Map the actual byte range into nominal space to find touched blocks.
  const auto nom_begin = static_cast<std::uint64_t>(
      static_cast<double>(offset) * file.scale);
  const auto nom_end = std::min(
      file.nominal_size,
      static_cast<std::uint64_t>(
          static_cast<double>(offset + dst.size()) * file.scale) +
          1);
  const std::uint64_t first_block = nom_begin / p.block_bytes;
  const std::uint64_t last_block = nom_end == 0 ? 0 : (nom_end - 1) / p.block_bytes;

  auto& cache = *fs_->caches_[static_cast<std::size_t>(node_)];
  double t = clock_->now();
  bool paid_rpc_latency = false;  // full cache hits never leave the node
  for (std::uint64_t b = first_block; b <= last_block; ++b) {
    const std::uint64_t block_bytes =
        std::min<std::uint64_t>(p.block_bytes,
                                file.nominal_size - b * p.block_bytes);
    stats_.nominal_bytes_read += block_bytes;
    if (cacheable && cache.access(file.id, b, block_bytes)) {
      t += p.cache_hit_s;
      ++stats_.cache_hits;
    } else {
      if (!paid_rpc_latency) {
        t += p.read_latency_s * jitter();
        paid_rpc_latency = true;
      }
      double ready = t;
      if (!sequential) ready += p.random_read_penalty_s * jitter();
      const double duration =
          static_cast<double>(block_bytes) / p.aggregate_bandwidth_Bps;
      t = fs_->bandwidth_.acquire(ready, duration);
      ++stats_.cache_misses;
    }
  }
  clock_->advance_to(t);
  ++stats_.reads;

  // Real data plane: copy the actual bytes out of the object store.
  DDS_CHECK(file.payload != nullptr);
  std::memcpy(dst.data(), file.payload->data() + offset, dst.size());
}

ByteBuffer FsClient::read_file(const std::string& path) {
  const FileRef ref = open(path);
  ByteBuffer out(ref.actual_size);
  if (!out.empty()) {
    // Whole-file reads are the per-object (PFF) path: sequential, but the
    // millions of tiny files defeat the page cache (dentry thrash), so the
    // read is modelled as uncacheable.
    pread(ref, MutableByteSpan(out), 0, /*sequential=*/true,
          /*cacheable=*/false);
  }
  return out;
}

}  // namespace dds::fs
