// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload kv_wire|kv_elastic|job_pipeline --seed N
//             --seconds S --trace 0|1 [--corrupt-check]
//
// kv_wire_shared and kv_elastic_race are the layouts that lose keys today
// (README.md, "Sizing hazards"); they are not part of BENCHMARK.json.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger.
// The last line of stdout is the JSON result; every other line starts with
// '#'. perfbench/run.py builds this binary and wraps it; see
// perfbench/README.md for the workloads and metric definitions.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/common.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "kv_wire|kv_elastic|job_pipeline --seed N --seconds S "
               "--trace 0|1 [--corrupt-check]\n"
               "(kv_wire_shared and kv_elastic_race reproduce the lost-key "
               "hazard, see perfbench/README.md)\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report numbers from a build without "
               "NDEBUG\n");
  return 3;
#endif
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-check") {
      args.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') {
        return Usage("--seed must be an unsigned integer");
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || args.seconds <= 0 || args.seconds > 600) {
        return Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      args.trace = value[0] == '1';
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  perfbench::Output out;
  perfbench::PrintHostRecord(args, &out);
  if (args.workload == "kv_wire" || args.workload == "kv_wire_shared") {
    return perfbench::RunKvWire(args, &out);
  }
  if (args.workload == "kv_elastic" || args.workload == "kv_elastic_race") {
    return perfbench::RunKvElastic(args, &out);
  }
  if (args.workload == "job_pipeline") {
    return perfbench::RunJobPipeline(args, &out);
  }
  return Usage("unknown workload");
}
