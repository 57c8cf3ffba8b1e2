#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

bool SpanLog::WriteChromeTrace(const std::string& path,
                               const std::string& metadata) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& span : spans_) origin = std::min(origin, span.start);
  // Small stable thread numbers, in order of first appearance.
  std::map<std::thread::id, int> tids;
  std::fprintf(file, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const int tid =
        tids.emplace(span.thread, static_cast<int>(tids.size()) + 1)
            .first->second;
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,"
                 "\"args\":{\"epoch\":%llu}}\n",
                 i == 0 ? "" : ",", span.call, span.layer,
                 SecondsBetween(origin, span.start) * 1e6,
                 SecondsBetween(span.start, span.end) * 1e6, span.phase, tid,
                 static_cast<unsigned long long>(span.epoch));
  }
  std::fprintf(file,
               "],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{%s}}\n",
               metadata.c_str());
  return std::fclose(file) == 0;
}

}  // namespace perfbench
