// The benchmark's workloads over the real engine (see README.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Multiplies every input size; the self-test runs at a tiny scale.
  double scale = 1.0;
  // Where the WAL file and the span trace are written.
  std::string out_dir;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Failed output checks, one line each.
  std::vector<std::string> check_failures;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
};

bool known_workload(const std::string& name);

// Runs one workload: measured repetitions for `seconds`, then the closing
// restart-and-query phase. Fills every metric and the output checks.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
