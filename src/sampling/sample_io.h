// SampleSet persistence. Samples are offline-built indexes (paper
// §II-D); like any index they must survive restarts. Binary format:
// magic, method string, id count, packed ids, density flag + counts.
#ifndef VAS_SAMPLING_SAMPLE_IO_H_
#define VAS_SAMPLING_SAMPLE_IO_H_

#include <string>

#include "sampling/sample_set.h"
#include "util/status.h"

namespace vas {

/// Writes one sample to `path`, overwriting.
Status WriteSampleSet(const SampleSet& sample, const std::string& path);

/// Reads a sample written by WriteSampleSet. Validates structure but
/// not id range (the dataset is not at hand); pair with
/// ValidateSampleAgainst() before use.
StatusOr<SampleSet> ReadSampleSet(const std::string& path);

/// Checks that every id is in range for a dataset of `dataset_size`
/// rows and density (if present) is parallel to ids.
Status ValidateSampleAgainst(const SampleSet& sample, size_t dataset_size);

}  // namespace vas

#endif  // VAS_SAMPLING_SAMPLE_IO_H_
