// usi_perfbench: the reference benchmark of USI serving. See
// perfbench/README.md for the workloads, the metrics and the traced run.
//
//   usi_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--scratch DIR]

#include <cstdio>

#include "harness.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  if (args.workload == "w2-hot-large") return perfbench::RunLarge(args, false);
  if (args.workload == "zipf-miss-mapped") {
    return perfbench::RunLarge(args, true);
  }
  if (args.workload == "churn-small") return perfbench::RunChurn(args);
  std::fprintf(stderr, "usi_perfbench: unknown workload %s\n",
               args.workload.c_str());
  return 2;
}
