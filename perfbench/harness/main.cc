// xqa_perfbench: runs one benchmark workload against the xqa library and
// prints its metrics as the last line of standard output.
//
//   xqa_perfbench --workload NAME --data DIR --work DIR --seconds S
//                 --trace 0|1 [--trace-out FILE]
//   xqa_perfbench --reference 1 --data DIR   (paper_groupby inputs)
//
// DIR holds the generator's output (perfbench/gen.py). The exit code is 0
// when every answer matched its reference, 1 when one did not, and 2 on a
// usage or set-up error (then no result line is printed).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.process_start = perfbench::Clock::now();
  bool reference = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--data") {
      config.data_dir = value;
    } else if (flag == "--work") {
      config.work_dir = value;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else if (flag == "--reference") {
      reference = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (config.data_dir.empty() || config.seconds <= 0) {
    std::fprintf(stderr, "usage: see the header of perfbench/harness/main.cc\n");
    return 2;
  }

  if (reference) return perfbench::RunPaperReference(config);

  perfbench::Report report;
  perfbench::Outcome outcome;
  try {
    if (config.workload == "paper_groupby") {
      outcome = perfbench::RunPaperGroupby(config, &report);
    } else if (config.workload == "collection_olap") {
      outcome = perfbench::RunCollectionOlap(config, &report);
    } else if (config.workload == "ingest_mixed") {
      outcome = perfbench::RunIngestMixed(config, &report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "benchmark aborted: %s\n", error.what());
    return 2;
  }
  std::printf("%s\n", report.Json(outcome.attempted, outcome.failed).c_str());
  std::fflush(stdout);
  return perfbench::AllChecksPassed() ? 0 : 1;
}
