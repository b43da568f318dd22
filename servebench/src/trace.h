// The traced run: replays a workload's generated stream in-process with
// spans around each layer's public functions.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "loadgen.h"
#include "report.h"
#include "workload.h"

namespace servebench {

struct TraceOptions {
  size_t engine_threads = 2;
  size_t max_exact_points = 0;
  /// Where the spans are written at exit; empty keeps them in memory only.
  std::string out_path;
};

struct TraceResult {
  std::vector<Metric> metrics;
  size_t spans = 0;
};

TraceResult RunTrace(const WorkloadSpec& spec, const RunResult& run,
                     const TraceOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
