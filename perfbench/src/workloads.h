// The benchmark's workloads and the report they produce.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory for WAL files; emptied and reused by every repetition.
  std::string work_dir;
  // Where the traced run writes its span sample (TSV); empty = nowhere.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // observations behind the value
};

struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;  // client operations (an operation retries aborts)
  uint64_t failed = 0;     // operations that never committed
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> env;
  // Per-repetition figures behind the medians, one line per repetition.
  std::vector<std::string> reps;

  void Fail(std::string error) {
    correct = false;
    errors.push_back(std::move(error));
  }
  void Add(std::string name, double value, std::string unit,
           uint64_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
};

// Workload names, in the order BENCHMARK.json lists them.
std::vector<std::string> WorkloadNames();

// Runs one workload for about args.seconds and reports the end-to-end
// metrics (args.trace false) or the per-layer metrics (args.trace true).
Report RunBenchmark(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
