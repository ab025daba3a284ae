#include "sampling/sample_io.h"

#include <cstdint>
#include <fstream>

#include "data/serial.h"

namespace vas {

namespace {
constexpr uint64_t kSampleMagic = 0x5641530053414d50ULL;  // "VAS\0SAMP"
constexpr size_t kMaxMethodLen = 4096;
}  // namespace

Status WriteSampleSet(const SampleSet& sample, const std::string& path) {
  if (sample.has_density() && sample.density.size() != sample.ids.size()) {
    // Validate before opening: a rejected write must not have truncated
    // a previously valid file at `path`.
    return Status::FailedPrecondition(
        "density column length does not match ids");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  VAS_RETURN_IF_ERROR(WriteU64(out, kSampleMagic, path));
  VAS_RETURN_IF_ERROR(WriteLengthPrefixedString(out, sample.method, path));
  uint64_t n = sample.ids.size();
  VAS_RETURN_IF_ERROR(WriteU64(out, n, path));
  VAS_RETURN_IF_ERROR(WriteU64(out, sample.has_density() ? 1 : 0, path));
  static_assert(sizeof(size_t) == sizeof(uint64_t),
                "sample format assumes 64-bit size_t");
  VAS_RETURN_IF_ERROR(
      WriteRaw(out, sample.ids.data(), n * sizeof(uint64_t), path));
  if (sample.has_density()) {
    VAS_RETURN_IF_ERROR(
        WriteRaw(out, sample.density.data(), n * sizeof(uint64_t), path));
  }
  return Status::OK();
}

StatusOr<SampleSet> ReadSampleSet(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  auto magic = ReadU64(in, path);
  if (!magic.ok() || *magic != kSampleMagic) {
    return Status::InvalidArgument("not a VAS sample file: " + path);
  }
  SampleSet sample;
  auto method = ReadLengthPrefixedString(in, kMaxMethodLen, path);
  if (!method.ok()) {
    return Status::InvalidArgument("corrupt method field: " + path);
  }
  sample.method = std::move(*method);
  VAS_ASSIGN_OR_RETURN(uint64_t n, ReadU64(in, path));
  VAS_ASSIGN_OR_RETURN(uint64_t has_density, ReadU64(in, path));
  if (has_density > 1) {
    return Status::InvalidArgument("corrupt sample header: " + path);
  }
  // The id (and density) arrays must fit in the bytes actually left in
  // the file — a corrupt count must not drive a huge allocation.
  VAS_ASSIGN_OR_RETURN(size_t remaining, RemainingBytes(in, path));
  size_t max_elems = remaining / sizeof(uint64_t);
  if (n > max_elems || (has_density && 2 * n > max_elems)) {
    return Status::InvalidArgument("corrupt sample header: " + path);
  }
  sample.ids.resize(n);
  VAS_RETURN_IF_ERROR(
      ReadRaw(in, sample.ids.data(), n * sizeof(uint64_t), path));
  if (has_density) {
    sample.density.resize(n);
    VAS_RETURN_IF_ERROR(
        ReadRaw(in, sample.density.data(), n * sizeof(uint64_t), path));
  }
  return sample;
}

Status ValidateSampleAgainst(const SampleSet& sample, size_t dataset_size) {
  if (sample.has_density() && sample.density.size() != sample.ids.size()) {
    return Status::FailedPrecondition("density not parallel to ids");
  }
  for (size_t id : sample.ids) {
    if (id >= dataset_size) {
      return Status::OutOfRange(
          "sample id " + std::to_string(id) + " out of range for " +
          std::to_string(dataset_size) + "-row dataset");
    }
  }
  return Status::OK();
}

}  // namespace vas
