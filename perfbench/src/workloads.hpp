#ifndef USI_PERFBENCH_WORKLOADS_HPP_
#define USI_PERFBENCH_WORKLOADS_HPP_

/// \file workloads.hpp
/// Entry points of the benchmark's workloads. Each prints the input record
/// and the result object and returns the process exit code.

#include "harness.hpp"

namespace perfbench {

/// w2-hot-large (\p mapped false) and zipf-miss-mapped (\p mapped true).
int RunLarge(const Args& args, bool mapped);

/// churn-small: small texts, one closed-loop reader, one open-loop appender.
int RunChurn(const Args& args);

}  // namespace perfbench

#endif  // USI_PERFBENCH_WORKLOADS_HPP_
