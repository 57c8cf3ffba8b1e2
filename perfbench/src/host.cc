#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

// The first "model name" and "flags" lines of /proc/cpuinfo.
void ReadCpuInfo(std::string* model, std::string* flags) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line) && (model->empty() || flags->empty())) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (model->empty() && line.rfind("model name", 0) == 0) {
      *model = value;
    } else if (flags->empty() && line.rfind("flags", 0) == 0) {
      *flags = " " + value + " ";
    }
  }
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string BannerJson(const ThreadBudget& threads,
                       const std::string& source_digest) {
  std::string model;
  std::string flags;
  ReadCpuInfo(&model, &flags);
  const bool sha_ni = flags.find(" sha_ni ") != std::string::npos;
  const bool avx2 = flags.find(" avx2 ") != std::string::npos;
  std::ostringstream out;
  out << "\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"cpu_model\":" << JsonString(model.empty() ? "unknown" : model)
      << ",\"sha_ni\":" << (sha_ni ? "true" : "false")
      << ",\"avx2\":" << (avx2 ? "true" : "false")
      << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
      << ",\"commit\":" << JsonString(PERFBENCH_COMMIT)
      << ",\"source_digest\":" << JsonString(source_digest)
      << ",\"threads\":{\"engine_workers\":" << threads.engine_workers
      << ",\"ingest_producers\":" << threads.ingest_producers
      << ",\"background_allocator\":" << threads.background_allocator
      << ",\"mempool_cleaner\":" << threads.mempool_cleaner << "}";
  return out.str();
}

std::string BuildTypeWarning() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type == "Release") return "";
  return "WARNING: perfbench built as '" + type +
         "', not Release; wall-clock numbers are not comparable with a "
         "Release build";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

}  // namespace perfbench
