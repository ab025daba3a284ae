// Figure 10: runtime contribution of the Interchange optimizations.
//  (a) small sample (K = 100): in the paper plain Expand/Shrink beats
//      ES+Loc, whose index upkeep is not yet paid back ("No ES" shown
//      too).
//  (b) large sample (K = 5000): Expand/Shrink + locality wins; the paper
//      omits "No ES" at this size because it is hopeless (O(K²)/tuple).
// The shape check derives each ordering from the measured times and
// says whether it is the paper's. The hashed cell grid's upkeep is
// small, so ES+Loc can win at K = 100 as well.
#include "bench_common.h"

#include "util/stopwatch.h"

namespace vas::bench {
namespace {

using Optimization = InterchangeSampler::Optimization;

double TimeRun(const Dataset& d, size_t k, Optimization level,
               size_t passes) {
  InterchangeSampler::Options opt;
  opt.optimization = level;
  opt.max_passes = passes;
  Stopwatch watch;
  InterchangeSampler(opt).Run(d, k);
  return watch.ElapsedSeconds();
}

// Prints which of two measured settings was faster, and whether the
// paper has the same one faster.
void ReportOrdering(size_t k, const char* a, double a_seconds, const char* b,
                    double b_seconds, bool paper_a_faster) {
  const bool a_faster = a_seconds < b_seconds;
  std::printf("  K=%zu: %s %.1f ms, %s %.1f ms: %s is faster; the paper has "
              "%s faster (%s)\n",
              k, a, a_seconds * 1e3, b, b_seconds * 1e3, a_faster ? a : b,
              paper_a_faster ? a : b,
              a_faster == paper_a_faster ? "matches" : "differs");
}

int Run(int argc, char** argv) {
  FlagSet flags;
  flags.Define("n", "100000", "dataset size");
  flags.Define("k_small", "100", "small sample size (paper: 100)");
  flags.Define("k_large", "5000", "large sample size (paper: 5000)");
  flags.Define("passes", "1", "streaming passes to time");
  if (!ParseBenchFlags(flags, argc, argv,
                       "Figure 10: optimization ablation runtimes.")) {
    return 0;
  }
  size_t n = static_cast<size_t>(flags.GetInt("n"));
  size_t k_small = static_cast<size_t>(flags.GetInt("k_small"));
  size_t k_large = static_cast<size_t>(flags.GetInt("k_large"));
  size_t passes = static_cast<size_t>(flags.GetInt("passes"));
  if (flags.GetBool("quick")) {
    n = 30000;
    k_large = 2000;
  }

  Dataset d = MakeGeolifeLike(n);

  PrintHeader("Figure 10(a) — offline runtime, small sample (ms)");
  std::printf("dataset %s, K = %zu, %zu pass(es)\n",
              FormatWithCommas(static_cast<int64_t>(n)).c_str(), k_small,
              passes);
  double no_es = TimeRun(d, k_small, Optimization::kNoExpandShrink, passes);
  double es_small = TimeRun(d, k_small, Optimization::kExpandShrink,
                            passes);
  double loc_small =
      TimeRun(d, k_small, Optimization::kExpandShrinkLocality, passes);
  std::printf("%-10s %10.1f\n", "No ES", no_es * 1e3);
  std::printf("%-10s %10.1f\n", "ES", es_small * 1e3);
  std::printf("%-10s %10.1f\n", "ES+Loc", loc_small * 1e3);

  PrintHeader("Figure 10(b) — offline runtime, large sample (ms)");
  std::printf("dataset %s, K = %zu, %zu pass(es)  (No ES omitted, as in "
              "the paper)\n",
              FormatWithCommas(static_cast<int64_t>(n)).c_str(), k_large,
              passes);
  double es_large = TimeRun(d, k_large, Optimization::kExpandShrink,
                            passes);
  double loc_large =
      TimeRun(d, k_large, Optimization::kExpandShrinkLocality, passes);
  std::printf("%-10s %10.1f\n", "ES", es_large * 1e3);
  std::printf("%-10s %10.1f\n", "ES+Loc", loc_large * 1e3);

  std::printf("\nShape check, measured against the paper's orderings:\n");
  ReportOrdering(k_small, "ES", es_small, "No ES", no_es, true);
  ReportOrdering(k_small, "ES", es_small, "ES+Loc", loc_small, true);
  ReportOrdering(k_large, "ES+Loc", loc_large, "ES", es_large, true);
  return 0;
}

}  // namespace
}  // namespace vas::bench

int main(int argc, char** argv) { return vas::bench::Run(argc, argv); }
