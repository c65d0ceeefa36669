// polybench: one workload, one seed, one JSON line.
//
//   polybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--spans-out <file>]
//
// Prints a single JSON object on stdout: correctness, operation counts,
// every metric with its unit and sample count, and the build settings.
// Exits 0 when every correctness check passed, 1 when one failed, 2 on
// bad arguments. perfbench/run.py builds this binary and wraps it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: polybench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--spans-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.work_dir = ".bench_build/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.seconds <= 0) {
    return Usage();
  }

  const perfbench::Report report = perfbench::RunBenchmark(args);

  std::string out = "{\"workload\": " + JsonString(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"trace\": " + std::to_string(args.trace ? 1 : 0);
  out += ", \"correct\": " + std::string(report.correct ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"errors\": [";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(report.errors[i]);
  }
  out += "], \"reps\": [";
  for (size_t i = 0; i < report.reps.size(); ++i) {
    out += (i ? ", " : "") + JsonString(report.reps[i]);
  }
  out += "], \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    out += (i ? ", " : "") + JsonString(m.name) +
           ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  out += "}, \"env\": {\"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : report.env) {
    out += ", " + JsonString(key) + ": " + JsonString(value);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return report.correct ? 0 : 1;
}
