// servebench: the serving benchmark's main program.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--setups <k>] [--commit <id>] [--build-type <type>]
//              [--trace-out <path>]
//
// --trace 0 runs the timed phase with nothing traced and prints the
// end-to-end metrics; --trace 1 runs the same timed phase for its counts,
// then replays the workload's stream in-process with spans and prints the
// per-layer metrics. Either way the output check runs after the timed
// phase, a context line precedes the result, and the last stdout line is
// the result object. See servebench/README.md for the metric map.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "loadgen.h"
#include "report.h"
#include "trace.h"
#include "verify.h"
#include "workload.h"

namespace servebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int setups = 5;
  std::string commit = "unknown";
  std::string build_type = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--setups") {
      args->setups = std::atoi(value.c_str());
      if (args->setups < 1) return false;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--build-type") {
      args->build_type = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(" \t", colon + 1));
      }
    }
  }
  return "unknown";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <%s> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 "explore-cold|shared-adapt|shared-batch|graph-open");
    return 2;
  }
  const ServeConfig config = DefaultServeConfig();
  WorkloadSpec spec;
  if (!MakeWorkload(args.workload, args.seed, config.clients, &spec)) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  disc::Result<RunResult> run =
      RunLoad(spec, args.seed, config, args.seconds, args.setups);
  if (!run.ok()) {
    std::fprintf(stderr, "servebench: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const disc::ServerOptions options = BenchServerOptions(spec, config);
  const auto check_start = std::chrono::steady_clock::now();
  const CheckResult check =
      CheckOutputs(run->items, config.nproc, options.max_exact_points);
  const double check_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - check_start)
                             .count();
  if (check.mismatched_items > 0) {
    std::fprintf(stderr, "servebench: %zu replies differ from the replica; "
                         "first: %s\n",
                 check.mismatched_items, check.first_mismatch.c_str());
  }

  Report report = Summarize(spec, *run, check);
  Context context;
  context.values = {
      {"workload", args.workload},
      {"seed", std::to_string(args.seed)},
      {"commit", args.commit},
      {"build_type", args.build_type},
      {"compiler", std::string("gcc ") + __VERSION__},
      {"cpu_model", CpuModel()},
  };
  context.numbers = {
      {"nproc", static_cast<double>(config.nproc)},
      {"clients", static_cast<double>(config.clients)},
      {"workers", static_cast<double>(config.workers)},
      {"engine_threads", static_cast<double>(config.engine_threads)},
      {"seconds", args.seconds},
      {"setups", static_cast<double>(args.setups)},
      {"check_s", check_s},
  };
  std::string framings;
  for (Framing framing : spec.clients) {
    if (!framings.empty()) framings += ",";
    framings += FramingName(framing);
  }
  context.values.push_back({"framings", framings});

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = report.end_to_end;
  } else {
    metrics = report.per_layer;
    TraceOptions trace_options;
    trace_options.engine_threads = config.engine_threads;
    trace_options.max_exact_points = options.max_exact_points;
    trace_options.out_path = args.trace_out;
    const TraceResult trace = RunTrace(spec, *run, trace_options);
    metrics.insert(metrics.end(), trace.metrics.begin(), trace.metrics.end());
    context.numbers.push_back(
        {"trace_spans", static_cast<double>(trace.spans)});
  }
  for (const auto& [key, value] : report.context) {
    context.numbers.push_back({key, value});
  }
  std::printf("%s\n", ContextJson(context).c_str());
  std::printf("%s\n", ResultJson(report.correct, report.attempted,
                                 report.failed, metrics)
                          .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
