// The traced request pipeline and the metric sets the benchmark reports.
//
// A traced run calls each layer's public entry point itself, with a span
// around every call: the plan cache (and, on a miss, a replay of the compile
// stages parser -> optimizer -> binder), the corpus snapshot, the shredded
// table lookup, the profiled execution and the serializer. The untraced run
// sends the same requests through QueryService::Execute instead.
#ifndef XQA_PERFBENCH_LAYERS_H_
#define XQA_PERFBENCH_LAYERS_H_

#include <map>
#include <memory>
#include <string>

#include "api/engine.h"
#include "bench.h"
#include "service/plan_cache.h"
#include "service/query_service.h"

namespace perfbench {

/// Counters and timings one thread gathers at the layer boundaries of the
/// traced pipeline; merged across threads at the end.
struct LayerStats {
  // plan cache and compile
  int64_t lookups = 0;
  int64_t hits = 0;
  Samples miss_seconds;  ///< GetOrCompile calls that compiled
  Samples parse_seconds, optimize_seconds, bind_seconds;
  int64_t compiles = 0;
  int64_t rewrites = 0;
  // collection store
  Samples snapshot_seconds;
  int64_t snapshot_rebuilds = 0;
  Samples put_seconds;  ///< Put and Remove, journal append included
  // shred
  Samples shred_build_seconds;
  int64_t shred_builds = 0;
  int64_t shred_fallbacks = 0;
  // eval
  Samples exec_seconds;  ///< at the workload's lane count
  Samples exec_1lane_seconds;
  std::map<std::string, Samples> exec_class_seconds;
  double for_seconds = 0, groupby_seconds = 0, orderby_seconds = 0,
         return_seconds = 0;
  int64_t executions = 0;
  int64_t tuples = 0, index_scan_nodes = 0, collection_docs = 0;
  double batch_fill_sum = 0;
  int64_t batch_fill_count = 0;
  // xml
  Samples serialize_seconds;

  void Merge(const LayerStats& other);
};

/// One traced request: plan, environment, profiled execution, serialization.
struct TracedQuery {
  std::string text;
  std::string klass;
  /// DocumentStore entry used as the context item; empty for none.
  std::string document;
  /// Whether the query reads the collection store, and the collection and
  /// record element of the shredded scan its domain reads.
  bool use_collections = false;
  std::string collection, record;
  xqa::ExecutionOptions exec;
  bool full_lanes = true;  ///< false: the 1-lane comparison run
};

struct TracedResult {
  std::string serialized;
  xqa::QueryStats stats;
  bool cache_hit = false;
};

/// Runs `query` through the layers of `service`, spanning every call; the
/// plan comes from `cache`, a cache of the benchmark's own with the
/// service's configuration. `last_snapshot` tracks snapshot identity to
/// count rebuilds.
TracedResult RunTraced(Tracer* tracer, LayerStats* stats,
                       xqa::service::PlanCache* cache,
                       xqa::service::QueryService* service,
                       const TracedQuery& query,
                       std::shared_ptr<const xqa::service::CollectionSnapshot>*
                           last_snapshot);

/// End-to-end figures of one untraced run (the --trace 0 metric set).
struct EndToEnd {
  double setup_seconds = 0;
  double queries_per_second = 0;
  Samples query_seconds;    ///< every read request
  Samples groupby_seconds;  ///< explicit `group by` classes
};
void ReportEndToEnd(const EndToEnd& e2e, Report* report);

/// Everything the traced run reports (the --trace 1 metric set). Fields a
/// workload does not exercise stay 0.
struct LayerReport {
  // Workload figures measured in the untraced half of the traced run.
  double naive_p50_ms = 0, adhoc_p50_ms = 0;
  double writes_per_s = 0, write_p50_ms = 0;
  double recover_s = 0, disk_bytes_per_input_byte = 0;
  double untraced_qps = 0, traced_qps = 0;
  Samples queue_wait_seconds, service_exec_seconds;
  // xml
  double parse_seconds = 0;
  double parse_bytes = 0;
  // plan cache counters of the traced pipeline's cache
  int64_t evictions = 0;
  // checked counts
  int64_t groups = 0;        ///< groups of the workload's reference query
  int64_t rows_scanned = 0;  ///< shredded rows of the reference query
  int64_t writes = 0;
  // storage
  double journal_bytes_per_write = 0;
  double checkpoint_ms = 0;
  int64_t segment_bytes = 0;
  Samples recover_seconds;
  double records_replayed = 0;
  LayerStats layers;
  TraceSummary trace;
};
void ReportLayers(const LayerReport& layers, Report* report);

}  // namespace perfbench

#endif  // XQA_PERFBENCH_LAYERS_H_
