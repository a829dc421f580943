// allocbench: the allocator's benchmark binary. run.py builds it and is
// the entry point; the binary itself takes
//
//   allocbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--spans <path>]
//   allocbench --repro stay_branch
//   allocbench --fingerprint 1 --workload <name> --seed <n>
//
// and prints human-readable lines followed by one JSON result line holding
// every metric the run measured; run.py keeps the ones BENCHMARK.json asks
// for.
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

using namespace allocbench;

int usage(const std::string& why) {
  std::cerr << "allocbench: " << why << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string repro;
  bool fingerprint = false;
  bool have_seed = false;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (a + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++a];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else if (flag == "--repro") {
      repro = value;
    } else if (flag == "--fingerprint") {
      fingerprint = value == "1";
    } else {
      return usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str()))
      return usage("bad number for " + flag + ": " + value);
  }

  if (fingerprint) {
    if (!have_seed) return usage("--seed is required");
    const std::uint64_t h = input_fingerprint(config.workload, config.seed);
    if (h == 0) return usage("unknown workload '" + config.workload + "'");
    std::cout << std::hex << h << std::endl;
    return 0;
  }

  Result result;
  if (!repro.empty()) {
    if (repro != "stay_branch") return usage("unknown reproducer " + repro);
    reproduce_stay_branch(result);
    std::cout << result.json() << std::endl;
    return 0;
  }
  if (!have_seed) return usage("--seed is required");
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");
  if (!run_workload(config, result))
    return usage("unknown workload '" + config.workload + "'");
  std::cout << result.json() << std::endl;
  return 0;
}
