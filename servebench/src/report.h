// Turns a run's records into the benchmark's metrics and prints them.

#ifndef SERVEBENCH_REPORT_H_
#define SERVEBENCH_REPORT_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "loadgen.h"
#include "verify.h"
#include "workload.h"

namespace servebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> end_to_end;
  /// The per-layer metrics counted in the timed run (the traced replay
  /// adds the timed ones).
  std::vector<Metric> per_layer;
  /// Numbers for the context line: sample counts, the tail percentile
  /// used, failure breakdown.
  std::vector<std::pair<std::string, double>> context;
};

/// Nearest-rank quantile; +inf entries (failed commands) sort last.
double Quantile(std::vector<double> values, double q);

/// The highest percentile with at least ten samples beyond it, capped at
/// p99 (p50 below 20 samples).
double TailQuantile(size_t samples);

Report Summarize(const WorkloadSpec& spec, const RunResult& run,
                 const CheckResult& check);

struct Context {
  std::vector<std::pair<std::string, std::string>> values;
  std::vector<std::pair<std::string, double>> numbers;
};

/// {"context": {...}} on one line.
std::string ContextJson(const Context& context);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace servebench

#endif  // SERVEBENCH_REPORT_H_
