// The benchmark's workloads. Each loads its generated inputs, warms up,
// runs its closed loop for the configured time, checks every answer against
// references computed from the generator's ledger, and fills the report:
// the end-to-end metrics untraced, or the per-layer metrics when traced.
#ifndef XQA_PERFBENCH_WORKLOADS_H_
#define XQA_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "bench.h"

namespace perfbench {

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
};

Outcome RunPaperGroupby(const RunConfig& config, Report* report);
Outcome RunCollectionOlap(const RunConfig& config, Report* report);
Outcome RunIngestMixed(const RunConfig& config, Report* report);

/// Prints the README's reference table: paper_groupby's templates in the
/// paper's configuration (rewrites off), explicit vs XQuery 1.0, at three
/// group counts. Returns the exit code.
int RunPaperReference(const RunConfig& config);

}  // namespace perfbench

#endif  // XQA_PERFBENCH_WORKLOADS_H_
