#include "layers.h"

#include "binder/binder.h"
#include "optimizer/rewriter.h"
#include "parser/parser.h"

namespace perfbench {

void LayerStats::Merge(const LayerStats& o) {
  lookups += o.lookups;
  hits += o.hits;
  miss_seconds.Append(o.miss_seconds);
  parse_seconds.Append(o.parse_seconds);
  optimize_seconds.Append(o.optimize_seconds);
  bind_seconds.Append(o.bind_seconds);
  compiles += o.compiles;
  rewrites += o.rewrites;
  snapshot_seconds.Append(o.snapshot_seconds);
  snapshot_rebuilds += o.snapshot_rebuilds;
  put_seconds.Append(o.put_seconds);
  shred_build_seconds.Append(o.shred_build_seconds);
  shred_builds += o.shred_builds;
  shred_fallbacks += o.shred_fallbacks;
  exec_seconds.Append(o.exec_seconds);
  exec_1lane_seconds.Append(o.exec_1lane_seconds);
  for (const auto& [klass, samples] : o.exec_class_seconds) {
    exec_class_seconds[klass].Append(samples);
  }
  for_seconds += o.for_seconds;
  groupby_seconds += o.groupby_seconds;
  orderby_seconds += o.orderby_seconds;
  return_seconds += o.return_seconds;
  executions += o.executions;
  tuples += o.tuples;
  index_scan_nodes += o.index_scan_nodes;
  collection_docs += o.collection_docs;
  batch_fill_sum += o.batch_fill_sum;
  batch_fill_count += o.batch_fill_count;
  serialize_seconds.Append(o.serialize_seconds);
}

TracedResult RunTraced(
    Tracer* tracer, LayerStats* stats, xqa::service::PlanCache* cache,
    xqa::service::QueryService* service, const TracedQuery& query,
    std::shared_ptr<const xqa::service::CollectionSnapshot>* last_snapshot) {
  TracedResult result;
  xqa::Engine engine(service->options().engine);
  Scope request(tracer, "request.op");

  xqa::service::PlanHandle plan;
  {
    Scope span(tracer, "plan_cache.get_or_compile");
    plan = cache->GetOrCompile(engine, query.text, query.exec,
                               &result.cache_hit);
    double seconds = span.Stop();
    ++stats->lookups;
    if (result.cache_hit) {
      ++stats->hits;
    } else {
      stats->miss_seconds.Add(seconds);
    }
  }
  if (!result.cache_hit) {
    // The cache compiled inside GetOrCompile, out of reach of a span; replay
    // the compile stages through their public functions to split the time.
    xqa::ModulePtr module;
    {
      Scope span(tracer, "parser.parse");
      module = xqa::ParseQuery(query.text);
      stats->parse_seconds.Add(span.Stop());
    }
    {
      Scope span(tracer, "optimizer.optimize");
      std::vector<std::string> fired;
      xqa::RewriteCounts counts =
          xqa::OptimizeModule(module.get(), engine.options().optimizer, &fired);
      stats->optimize_seconds.Add(span.Stop());
      stats->rewrites += counts.total();
    }
    {
      Scope span(tracer, "binder.bind");
      xqa::BindModule(module.get());
      stats->bind_seconds.Add(span.Stop());
    }
    ++stats->compiles;
  }

  xqa::DocumentPtr document;
  if (!query.document.empty()) {
    Scope span(tracer, "document_store.get");
    document = service->documents().Get(query.document);
  }
  std::shared_ptr<const xqa::service::CollectionSnapshot> snapshot;
  if (query.use_collections) {
    Scope span(tracer, "collection_store.snapshot");
    snapshot = service->collections().Snapshot();
    stats->snapshot_seconds.Add(span.Stop());
    if (*last_snapshot != snapshot) {
      if (*last_snapshot != nullptr) ++stats->snapshot_rebuilds;
      *last_snapshot = snapshot;
    }
  }
  if (snapshot != nullptr && !query.collection.empty()) {
    xqa::ShredCatalog::Stats before = snapshot->shred_stats();
    Scope span(tracer, "shred.lookup");
    snapshot->FindShreddedTable(query.collection, query.record,
                                xqa::ShredBuildContext{});
    double seconds = span.Stop();
    xqa::ShredCatalog::Stats after = snapshot->shred_stats();
    if (after.tables + after.refusals > before.tables + before.refusals) {
      ++stats->shred_builds;
      stats->shred_build_seconds.Add(seconds);
    }
  }

  xqa::ProfiledResult profiled;
  {
    Scope span(tracer, "eval.execute");
    profiled = plan->ExecuteProfiled(document, nullptr, snapshot.get(),
                                     query.exec);
    double seconds = span.Stop();
    if (query.full_lanes) {
      stats->exec_seconds.Add(seconds);
      stats->exec_class_seconds[query.klass].Add(seconds);
    } else {
      stats->exec_1lane_seconds.Add(seconds);
    }
  }
  const xqa::QueryStats& qs = profiled.stats;
  if (query.full_lanes) {
    stats->for_seconds += ClauseSeconds(qs, "for");
    stats->groupby_seconds += ClauseSeconds(qs, "group by");
    stats->orderby_seconds += ClauseSeconds(qs, "order by");
    stats->return_seconds += ClauseSeconds(qs, "return");
    ++stats->executions;
    stats->tuples += qs.tuples_flowed;
    stats->index_scan_nodes += qs.index_scan_nodes;
    stats->collection_docs += qs.collection_docs;
    stats->shred_fallbacks += qs.shred_fallbacks;
    if (qs.batches_emitted > 0) {
      stats->batch_fill_sum += qs.BatchFillAverage();
      ++stats->batch_fill_count;
    }
  }
  {
    Scope span(tracer, "xml.serialize");
    result.serialized = xqa::SerializeSequence(profiled.sequence);
    stats->serialize_seconds.Add(span.Stop());
  }
  result.stats = std::move(profiled.stats);
  return result;
}

void ReportEndToEnd(const EndToEnd& e2e, Report* report) {
  report->Set("setup_s", e2e.setup_seconds, "s");
  report->Set("queries_per_s", e2e.queries_per_second, "1/s");
  report->Set("query_p50_ms", e2e.query_seconds.Quantile(0.5) * 1e3, "ms");
  report->Set("query_p90_ms", e2e.query_seconds.Quantile(0.9) * 1e3, "ms");
  report->Set("groupby_p50_ms", e2e.groupby_seconds.Quantile(0.5) * 1e3, "ms");
  report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
}

void ReportLayers(const LayerReport& r, Report* report) {
  const LayerStats& l = r.layers;
  auto per = [](double total, int64_t n) {
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  };
  // Figures of single workloads, from the untraced half of the run.
  report->Set("naive_p50_ms", r.naive_p50_ms, "ms");
  report->Set("adhoc_p50_ms", r.adhoc_p50_ms, "ms");
  report->Set("writes_per_s", r.writes_per_s, "1/s");
  report->Set("write_p50_ms", r.write_p50_ms, "ms");
  report->Set("recover_s", r.recover_s, "s");
  report->Set("disk_bytes_per_input_byte", r.disk_bytes_per_input_byte,
              "ratio");
  // Tracing overhead: queries per second traced vs untraced.
  report->Set("trace.untraced_queries_per_s", r.untraced_qps, "1/s");
  report->Set("trace.traced_queries_per_s", r.traced_qps, "1/s");
  report->Set("trace.overhead_pct",
              r.untraced_qps > 0
                  ? (r.untraced_qps - r.traced_qps) / r.untraced_qps * 100.0
                  : 0.0,
              "%");
  // Self time per traced request, by layer.
  for (const char* layer :
       {"request", "xml", "plan_cache", "parser", "optimizer", "binder",
        "document_store", "collection_store", "shred", "eval"}) {
    auto it = r.trace.layer_self_seconds.find(layer);
    double total = it == r.trace.layer_self_seconds.end() ? 0.0 : it->second;
    report->Set(std::string(layer) + ".self_ms",
                per(total, r.trace.requests) * 1e3, "ms");
  }
  // xml
  report->Set("xml.parse_ms", r.parse_seconds * 1e3, "ms");
  report->Set("xml.parse_mb_per_s",
              r.parse_seconds > 0 ? r.parse_bytes / r.parse_seconds / 1e6 : 0,
              "MB/s");
  report->Set("xml.serialize_ms", l.serialize_seconds.Quantile(0.5) * 1e3,
              "ms");
  // parser / optimizer / binder (replayed on every plan-cache miss)
  report->Set("parser.parse_us", l.parse_seconds.Quantile(0.5) * 1e6, "us");
  report->Set("optimizer.optimize_us", l.optimize_seconds.Quantile(0.5) * 1e6,
              "us");
  report->Set("binder.bind_us", l.bind_seconds.Quantile(0.5) * 1e6, "us");
  report->Set("optimizer.rewrites_fired",
              per(static_cast<double>(l.rewrites), l.compiles), "count");
  // service and plan cache
  report->Set("plan_cache.lookups", static_cast<double>(l.lookups), "count");
  report->Set("plan_cache.misses", static_cast<double>(l.lookups - l.hits),
              "count");
  report->Set("plan_cache.hit_ratio",
              per(static_cast<double>(l.hits), l.lookups), "ratio");
  report->Set("plan_cache.evictions", static_cast<double>(r.evictions),
              "count");
  report->Set("plan_cache.miss_us", l.miss_seconds.Quantile(0.5) * 1e6, "us");
  report->Set("service.queue_wait_ms",
              r.queue_wait_seconds.Quantile(0.5) * 1e3, "ms");
  report->Set("service.exec_ms", r.service_exec_seconds.Quantile(0.5) * 1e3,
              "ms");
  // collection store
  report->Set("collection_store.snapshot_ms", l.snapshot_seconds.Mean() * 1e3,
              "ms");
  report->Set("collection_store.snapshot_rebuilds",
              static_cast<double>(l.snapshot_rebuilds), "count");
  report->Set("collection_store.put_ms", l.put_seconds.Quantile(0.5) * 1e3,
              "ms");
  // shred
  report->Set("shred.build_ms", l.shred_build_seconds.Mean() * 1e3, "ms");
  report->Set("shred.builds", static_cast<double>(l.shred_builds), "count");
  report->Set("shred.builds_per_write",
              per(static_cast<double>(l.shred_builds), r.writes), "count");
  report->Set("shred.fallbacks", static_cast<double>(l.shred_fallbacks),
              "count");
  report->Set("shred.rows_scanned", static_cast<double>(r.rows_scanned),
              "count");
  // eval
  report->Set("eval.exec_ms", l.exec_seconds.Quantile(0.5) * 1e3, "ms");
  for (const char* klass :
       {"t1a_groupby", "t1a_naive", "t1b_groupby", "t1b_naive", "nest_rank",
        "q1", "q3", "rollup", "adhoc_q1", "adhoc_q3"}) {
    auto it = l.exec_class_seconds.find(klass);
    report->Set(std::string("eval.exec_ms.") + klass,
                it == l.exec_class_seconds.end()
                    ? 0.0
                    : it->second.Quantile(0.5) * 1e3,
                "ms");
  }
  report->Set("eval.exec_ms_1lane",
              (l.exec_1lane_seconds.size() > 0 ? l.exec_1lane_seconds
                                               : l.exec_seconds)
                      .Quantile(0.5) *
                  1e3,
              "ms");
  report->Set("eval.for_ms", per(l.for_seconds, l.executions) * 1e3, "ms");
  report->Set("eval.groupby_ms", per(l.groupby_seconds, l.executions) * 1e3,
              "ms");
  report->Set("eval.orderby_ms", per(l.orderby_seconds, l.executions) * 1e3,
              "ms");
  report->Set("eval.return_ms", per(l.return_seconds, l.executions) * 1e3,
              "ms");
  report->Set("eval.tuples", per(static_cast<double>(l.tuples), l.executions),
              "count");
  report->Set("eval.groups", static_cast<double>(r.groups), "count");
  report->Set("eval.index_scan_nodes",
              per(static_cast<double>(l.index_scan_nodes), l.executions),
              "count");
  report->Set("eval.collection_docs",
              per(static_cast<double>(l.collection_docs), l.executions),
              "count");
  report->Set("eval.batch_fill", per(l.batch_fill_sum, l.batch_fill_count),
              "count");
  // storage
  report->Set("storage.journal_bytes_per_write", r.journal_bytes_per_write,
              "bytes");
  report->Set("storage.checkpoint_ms", r.checkpoint_ms, "ms");
  report->Set("storage.segment_bytes", static_cast<double>(r.segment_bytes),
              "bytes");
  report->Set("storage.recover_ms", r.recover_seconds.Quantile(0.5) * 1e3,
              "ms");
  report->Set("storage.records_replayed", r.records_replayed, "count");
}

}  // namespace perfbench
