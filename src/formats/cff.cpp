#include "formats/cff.hpp"

#include <algorithm>
#include <cstdio>

namespace dds::formats {

namespace {
constexpr std::uint32_t kMagic = 0x4646'4344;  // "DCFF"
constexpr std::uint16_t kVersion = 1;

/// Bytes of a subfile's header and index, before its first blob.
constexpr std::uint64_t header_and_index_bytes(std::uint64_t count) {
  return sizeof(kMagic) + sizeof(kVersion) + 2 * sizeof(std::uint64_t) +
         count * 2 * sizeof(std::uint64_t);
}
}  // namespace

std::string CffWriter::subfile_path(const std::string& prefix,
                                    std::uint32_t subfile) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "sub-%04u.bp", subfile);
  return prefix + "/" + buf;
}

ByteBuffer CffWriter::build_subfile(const datagen::SyntheticDataset& dataset,
                                    std::uint64_t first, std::uint64_t last) {
  const std::uint64_t count = last - first;
  // Generate the range first to learn the exact file size, then serialize
  // each sample straight into the file.
  std::vector<graph::GraphSample> samples;
  samples.reserve(count);
  for (std::uint64_t i = first; i < last; ++i) {
    samples.push_back(dataset.make(i));
  }
  const std::uint64_t header = header_and_index_bytes(count);
  std::uint64_t size = header;
  for (const auto& s : samples) size += s.serialized_size();

  ByteBuffer file;
  file.reserve(size);
  BinaryWriter w(file);
  w.write(kMagic);
  w.write(kVersion);
  w.write(count);
  w.write(first);
  std::uint64_t offset = header;
  for (const auto& s : samples) {
    const std::uint64_t length = s.serialized_size();
    w.write<std::uint64_t>(offset);
    w.write<std::uint64_t>(length);
    offset += length;
  }
  for (const auto& s : samples) s.serialize(file);
  DDS_CHECK(file.size() == size);
  return file;
}

void CffWriter::stage(fs::ParallelFileSystem& fs, const std::string& prefix,
                      const datagen::SyntheticDataset& dataset,
                      std::uint32_t nsubfiles) {
  DDS_CHECK(nsubfiles >= 1);
  const std::uint64_t n = dataset.size();
  DDS_CHECK_MSG(nsubfiles <= n, "more subfiles than samples");
  const std::uint64_t nominal_per_sample =
      dataset.spec().nominal_cff_sample_bytes();

  for (std::uint32_t sf = 0; sf < nsubfiles; ++sf) {
    const std::uint64_t first = n * sf / nsubfiles;
    const std::uint64_t last = n * (sf + 1) / nsubfiles;  // exclusive
    ByteBuffer file = build_subfile(dataset, first, last);
    const std::uint64_t nominal_size = std::max<std::uint64_t>(
        nominal_per_sample * (last - first) +
            header_and_index_bytes(last - first),
        file.size());
    fs.write_file(subfile_path(prefix, sf), std::move(file), nominal_size);
  }
}

void CffWriter::stage_parallel(simmpi::Comm& comm, fs::FsClient& client,
                               fs::ParallelFileSystem& fs,
                               const std::string& prefix,
                               const datagen::SyntheticDataset& dataset) {
  const std::uint64_t n = dataset.size();
  const auto nranks = static_cast<std::uint64_t>(comm.size());
  DDS_CHECK_MSG(nranks <= n, "more writer ranks than samples");
  const auto rank = static_cast<std::uint64_t>(comm.rank());
  const std::uint64_t first = n * rank / nranks;
  const std::uint64_t last = n * (rank + 1) / nranks;

  ByteBuffer file = build_subfile(dataset, first, last);
  const std::uint64_t nominal_size = std::max<std::uint64_t>(
      dataset.spec().nominal_cff_sample_bytes() * (last - first) +
          (last - first) * 2 * sizeof(std::uint64_t),
      file.size());
  fs.write_file(subfile_path(prefix, static_cast<std::uint32_t>(rank)),
                std::move(file), nominal_size);
  // Charge the write: nominal bytes through the FS write path.
  client.clock().advance(static_cast<double>(nominal_size) /
                         fs.params().write_bandwidth_Bps);
  // MPI_File_close-style barrier: the container is visible to everyone
  // once every writer has finished.
  comm.barrier();
}

CffReader::CffReader(fs::ParallelFileSystem& fs, std::string prefix,
                     std::uint64_t nominal_sample_bytes, DecodeCost decode)
    : prefix_(std::move(prefix)),
      nominal_sample_bytes_(nominal_sample_bytes),
      decode_(decode) {
  const auto paths = fs.list(prefix_ + "/");
  if (paths.empty()) {
    throw IoError("CffReader: no container subfiles under " + prefix_);
  }
  for (const auto& path : paths) {
    Subfile sf;
    sf.path = path;
    sf.ref = fs.make_ref(path);
    const ByteBuffer& raw = *sf.ref.payload;
    BinaryReader r{ByteSpan(raw)};
    const auto magic = r.read<std::uint32_t>();
    if (magic != kMagic) {
      throw DataError("CffReader: bad magic in " + path);
    }
    const auto version = r.read<std::uint16_t>();
    if (version != kVersion) {
      throw DataError("CffReader: unsupported version in " + path);
    }
    const auto count = r.read<std::uint64_t>();
    sf.first_index = r.read<std::uint64_t>();
    sf.offsets.reserve(count);
    sf.lengths.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      sf.offsets.push_back(r.read<std::uint64_t>());
      sf.lengths.push_back(r.read<std::uint64_t>());
    }
    sf.index_region_bytes = r.position();
    // Validate that blob ranges lie within the file.
    for (std::uint64_t i = 0; i < count; ++i) {
      if (!range_within(sf.offsets[i], sf.lengths[i], raw.size())) {
        throw DataError("CffReader: corrupt index in " + path);
      }
    }
    total_samples_ += count;
    subfiles_.push_back(std::move(sf));
  }
  std::sort(subfiles_.begin(), subfiles_.end(),
            [](const Subfile& a, const Subfile& b) {
              return a.first_index < b.first_index;
            });
  // Indices must tile [0, total) contiguously.
  std::uint64_t expect = 0;
  for (const auto& sf : subfiles_) {
    if (sf.first_index != expect) {
      throw DataError("CffReader: non-contiguous subfile ranges");
    }
    expect += sf.offsets.size();
  }
}

void CffReader::charge_startup(fs::FsClient& client) const {
  for (const auto& sf : subfiles_) {
    const auto ref = client.open(sf.path);  // pays MDS
    ByteBuffer scratch(sf.index_region_bytes);
    client.pread(ref, MutableByteSpan(scratch), 0, /*sequential=*/true);
  }
}

const CffReader::Subfile& CffReader::locate(std::uint64_t index,
                                            std::uint64_t* local) const {
  if (index >= total_samples_) {
    throw ConfigError("CffReader: sample index out of range");
  }
  // Binary search over first_index.
  auto it = std::upper_bound(
      subfiles_.begin(), subfiles_.end(), index,
      [](std::uint64_t v, const Subfile& sf) { return v < sf.first_index; });
  DDS_CHECK(it != subfiles_.begin());
  --it;
  *local = index - it->first_index;
  DDS_CHECK(*local < it->offsets.size());
  return *it;
}

ByteBuffer CffReader::read_bytes_raw(std::uint64_t index) const {
  std::uint64_t local = 0;
  const Subfile& sf = locate(index, &local);
  DDS_CHECK(sf.ref.payload != nullptr);
  const auto* base = sf.ref.payload->data() + sf.offsets[local];
  return ByteBuffer(base, base + sf.lengths[local]);
}

ByteBuffer CffReader::read_bytes(std::uint64_t index,
                                 fs::FsClient& client) const {
  std::uint64_t local = 0;
  const Subfile& sf = locate(index, &local);
  ByteBuffer out(sf.lengths[local]);
  client.pread(sf.ref, MutableByteSpan(out), sf.offsets[local],
               /*sequential=*/false);
  return out;
}

graph::GraphSample CffReader::read(std::uint64_t index,
                                   fs::FsClient& client) const {
  const ByteBuffer bytes = read_bytes(index, client);
  decode_.charge(client.clock(), nominal_sample_bytes_);
  return graph::GraphSample::deserialize(bytes);
}

}  // namespace dds::formats
