// Host and build banner recorded with every result. Wall-clock numbers are
// only comparable between runs whose banners match.
#pragma once

#include <string>

namespace perfbench {

struct ThreadBudget {
  unsigned engine_workers = 0;
  unsigned ingest_producers = 0;
  unsigned background_allocator = 0;
  unsigned mempool_cleaner = 0;
};

/// The banner as JSON object members (no surrounding braces).
std::string BannerJson(const ThreadBudget& threads,
                       const std::string& source_digest);

/// Non-empty when the build is not `Release`: the warning to print.
std::string BuildTypeWarning();

/// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench
