/// \file main.cpp
/// perfbench: runs one named workload for a fixed time and prints its
/// metrics. Usage:
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             --work-dir <dir>
///
/// Human-readable lines first (one per metric, with unit and sample
/// count), then an `ENV {...}` line, then the result object as the last
/// line: {"correct", "attempted", "failed", "metrics"}. Exit status 0
/// means the run completed; correctness is reported in the result.
/// `--trace 1` runs every traced pass, the named workload's first, so
/// each layer is timed where a workload drives it.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "obs/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Args;
using perfbench::Result;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <build_clueweb|query_mixed|"
               "cluster_doc4> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

std::string jstr(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  if (args.work_dir.empty() || args.seconds <= 0) return usage("missing --work-dir or --seconds");

  using Runner = void (*)(const Args&, Result&);
  const std::map<std::string, Runner> workloads = {
      {"build_clueweb", &perfbench::run_build_clueweb},
      {"query_mixed", &perfbench::run_query_mixed},
      {"cluster_doc4", &perfbench::run_cluster_doc4},
  };
  if (workloads.find(args.workload) == workloads.end()) return usage("unknown workload");
  auto passes = workloads;
  passes.emplace("live_mixed", &perfbench::trace_live_mixed);

  // An untraced run is the named workload alone. A traced run takes every
  // layer's figures from the pass that drives that layer: the named
  // workload's own pass first, then the other passes, an equal share of
  // --seconds each, so every traced run reports the whole layer map.
  std::vector<std::string> order = {args.workload};
  if (args.trace) {
    for (const auto& [name, runner] : passes) {
      if (name != args.workload) order.push_back(name);
    }
  }
  std::filesystem::create_directories(args.work_dir);
  Result result;
  for (const auto& name : order) {
    Args pass = args;
    pass.workload = name;
    pass.work_dir = args.work_dir + "/" + name;
    if (args.trace) pass.seconds = args.seconds / static_cast<double>(order.size());
    std::printf("%s seed=%llu trace=%d\n", name.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
    std::fflush(stdout);
    std::filesystem::create_directories(pass.work_dir);
    Result part;
    passes.at(name)(pass, part);
    std::filesystem::remove_all(pass.work_dir);

    result.correct = result.correct && part.correct;
    result.attempted += part.attempted;
    result.failed += part.failed;
    result.metrics.insert(result.metrics.end(), part.metrics.begin(), part.metrics.end());
    for (auto& [key, value] : part.env) {
      result.env.emplace_back(name == args.workload ? key : name + "." + key, value);
    }
    for (const auto& m : part.metrics) {
      std::printf("  %-36s %16.6f %-6s", m.name.c_str(), m.value, m.unit.c_str());
      if (m.samples > 0) std::printf("  n=%zu", m.samples);
      std::printf("%s\n", m.reported ? "" : "  (printed only)");
    }
  }
  std::filesystem::remove_all(args.work_dir);

  const double failed_ratio =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  std::printf("  %-36s %16.6f %-6s  (%llu of %llu operations)\n", "failed_ratio", failed_ratio,
              "ratio", static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::printf("  correct: %s\n", result.correct ? "yes" : "NO");

  std::string env = "{\"compiler\": " + jstr(std::string("gcc ") + __VERSION__) +
                    ", \"build_type\": " + jstr(PERFBENCH_BUILD_TYPE) +
                    ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                    ", \"workload\": " + jstr(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"seconds\": " + hetindex::obs::json_number(args.seconds) +
                    ", \"trace\": " + (args.trace ? "1" : "0");
  for (const auto& [key, value] : result.env) env += ", " + jstr(key) + ": " + value;
  env += ", \"samples\": {";
  bool first = true;
  for (const auto& m : result.metrics) {
    if (m.samples == 0) continue;
    env += (first ? "" : ", ") + jstr(m.name) + ": " + std::to_string(m.samples);
    first = false;
  }
  env += "}}";
  std::printf("ENV %s\n", env.c_str());

  std::string json = "{\"correct\": " + std::string(result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  first = true;
  for (const auto& m : result.metrics) {
    if (!m.reported) continue;
    json += (first ? "" : ", ") + jstr(m.name) +
            ": {\"value\": " + hetindex::obs::json_number(m.value) +
            ", \"unit\": " + jstr(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
