// Entry point of the plot/tile server, shared by the standalone
// vas_serve binary and the `vas_tool serve` alias, and the flag helpers
// both binaries build tables with.
#ifndef VAS_TOOLS_SERVE_MAIN_H_
#define VAS_TOOLS_SERVE_MAIN_H_

#include <string>
#include <vector>

#include "core/interchange.h"
#include "data/dataset.h"
#include "engine/sample_catalog.h"
#include "util/status.h"

namespace vas::tool {

/// Logs `status` as an error line; returns the exit code 1.
int Fail(const Status& status);

/// Loads a dataset: ".bin" in the library's binary format, anything
/// else as CSV.
StatusOr<Dataset> LoadInput(const std::string& path);

/// Maps a --method flag to a factory producing fresh sampler instances
/// (catalog rung builds run concurrently, one sampler each). `vopt`
/// configures the Interchange-based methods.
StatusOr<SamplerFactory> MakeSamplerFactory(
    const std::string& method, const InterchangeSampler::Options& vopt = {});

/// Parses a comma-separated --ladder flag into positive rung sizes.
StatusOr<std::vector<size_t>> ParseLadder(const std::string& flag);

/// Parses serve flags from argv (argv[0] is the program/subcommand
/// name), registers the requested tables, and serves until SIGINT or
/// SIGTERM. Returns the process exit code.
int ServeMain(int argc, char** argv);

}  // namespace vas::tool

#endif  // VAS_TOOLS_SERVE_MAIN_H_
