// paper_groupby: the paper's Section 6 experiment. One large purchase-order
// document in the DocumentStore; one client runs the Table 1a/1b templates
// with explicit `group by` and in their XQuery 1.0 formulation, plus a
// `nest ... order by` / `return at` query, at min(4, hardware threads - 1)
// intra-query lanes.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "layers.h"
#include "service/query_service.h"
#include "workloads.h"
#include "xml/xml_parser.h"

namespace perfbench {
namespace {

using xqa::service::QueryService;

constexpr const char* kDocument = "orders.xml";

struct PaperClass {
  const char* name;
  const char* text;
  bool groupby;  ///< explicit `group by`; false: XQuery 1.0 formulation
};

// The Table 1 templates. Both forms of each template order their output by
// the key, so that the explicit and the XQuery 1.0 form must agree byte for
// byte (the grouping children are single-valued, Section 6).
const PaperClass kClasses[] = {
    {"t1a_groupby", R"(
for $l in //order/lineitem
group by $l/shipmode into $a
nest $l into $items
order by string($a)
return <r><k>{string($a)}</k><n>{count($items)}</n></r>)",
     true},
    {"t1a_naive", R"(
for $a in distinct-values(//order/lineitem/shipmode)
let $items := for $i in //order/lineitem
              where $i/shipmode = $a
              return $i
order by $a
return <r><k>{string($a)}</k><n>{count($items)}</n></r>)",
     false},
    {"t1b_groupby", R"(
for $l in //order/lineitem
group by $l/shipinstruct into $a, $l/shipmode into $b
nest $l into $items
order by string($a), string($b)
return <r><k>{string($a)}</k><k2>{string($b)}</k2><n>{count($items)}</n></r>)",
     true},
    {"t1b_naive", R"(
for $a in distinct-values(//order/lineitem/shipinstruct),
    $b in distinct-values(//order/lineitem/shipmode)
let $items := for $i in //order/lineitem
              where $i/shipinstruct = $a and $i/shipmode = $b
              return $i
where exists($items)
order by $a, $b
return <r><k>{string($a)}</k><k2>{string($b)}</k2><n>{count($items)}</n></r>)",
     false},
    {"nest_rank", R"(
for $l in //order/lineitem
group by $l/shipmode into $m
nest $l/extendedprice order by number($l/extendedprice) descending
  into $prices
order by count($prices) descending, string($m)
return at $rank
  <r rank="{$rank}"><k>{string($m)}</k><n>{count($prices)}</n><top>{string($prices[1])}</top></r>)",
     true},
};
constexpr size_t kNumClasses = sizeof(kClasses) / sizeof(kClasses[0]);

struct References {
  std::string text[kNumClasses];  ///< expected serialized result per class
  int64_t groups[kNumClasses] = {};  ///< expected groups, explicit classes
  int64_t lineitems = 0;
};

// Reference answers from the ledger alone.
References ComputeReferences(const Ledger& ledger) {
  std::map<std::string, int64_t> by_mode;
  std::map<std::pair<std::string, std::string>, int64_t> by_pair;
  std::map<std::string, const Lineitem*> top;
  References refs;
  for (const LedgerDoc& doc : ledger.docs) {
    for (const Lineitem& item : doc.lineitems) {
      ++refs.lineitems;
      ++by_mode[item.shipmode];
      ++by_pair[{item.shipinstruct, item.shipmode}];
      const Lineitem*& best = top[item.shipmode];
      if (best == nullptr || item.price_cents > best->price_cents) best = &item;
    }
  }
  int64_t total = 0;
  std::string t1a, t1b, nest;
  for (const auto& [mode, n] : by_mode) {
    t1a += "<r><k>" + mode + "</k><n>" + std::to_string(n) + "</n></r>";
    total += n;
  }
  for (const auto& [pair, n] : by_pair) {
    t1b += "<r><k>" + pair.first + "</k><k2>" + pair.second + "</k2><n>" +
           std::to_string(n) + "</n></r>";
  }
  std::vector<std::pair<int64_t, std::string>> ranked;
  for (const auto& [mode, n] : by_mode) ranked.push_back({-n, mode});
  std::sort(ranked.begin(), ranked.end());
  for (size_t i = 0; i < ranked.size(); ++i) {
    const std::string& mode = ranked[i].second;
    nest += "<r rank=\"" + std::to_string(i + 1) + "\"><k>" + mode +
            "</k><n>" + std::to_string(-ranked[i].first) + "</n><top>" +
            top[mode]->price + "</top></r>";
  }
  PB_CHECK(total == refs.lineitems,
           "per-group lineitem counts do not sum to the ledger's total");
  refs.text[0] = refs.text[1] = t1a;
  refs.text[2] = refs.text[3] = t1b;
  refs.text[4] = nest;
  refs.groups[0] = static_cast<int64_t>(by_mode.size());
  refs.groups[2] = static_cast<int64_t>(by_pair.size());
  refs.groups[4] = static_cast<int64_t>(by_mode.size());
  return refs;
}

struct LoopResult {
  Samples all, groupby, naive, queue, exec;
  int64_t ops = 0;
  double elapsed = 0;
};

// One round through QueryService: every class once, in the same
// interleaved order, so that a slow period hits all classes alike.
void ServiceRound(QueryService* service, const References& refs,
                  LoopResult* r, Outcome* outcome) {
  Clock::time_point round_start = Clock::now();
  for (size_t c = 0; c < kNumClasses; ++c) {
    xqa::service::Request request;
    request.query = kClasses[c].text;
    request.document = kDocument;
    request.collect_stats = false;
    Clock::time_point t0 = Clock::now();
    xqa::service::Response response = service->Execute(request);
    double latency = SecondsBetween(t0, Clock::now());
    ++outcome->attempted;
    if (!response.status.ok()) {
      ++outcome->failed;
      CheckFailed(std::string(kClasses[c].name) +
                  " failed: " + response.status.ToString());
      continue;
    }
    PB_CHECK(response.result == refs.text[c],
             std::string(kClasses[c].name) + " differs from the ledger");
    ++r->ops;
    r->all.Add(latency);
    (kClasses[c].groupby ? r->groupby : r->naive).Add(latency);
    r->queue.Add(response.queue_seconds);
    r->exec.Add(response.exec_seconds);
  }
  r->elapsed += SecondsBetween(round_start, Clock::now());
}

}  // namespace

Outcome RunPaperGroupby(const RunConfig& config, Report* report) {
  Outcome outcome;
  Tracer setup_tracer(config.trace);
  Ledger ledger = ReadLedger(config.data_dir);
  const std::string xml = ReadFile(config.data_dir + "/" + kDocument);
  // The client thread plus the lanes (the service worker is one of them)
  // stay within the hardware threads: a lane that has to share its core with
  // another thread of the run holds up every parallel section.
  const int lanes = std::max(1, std::min(4, HardwareThreads() - 1));

  xqa::service::ServiceOptions options;
  options.worker_threads = 1;
  options.default_exec.num_threads = lanes;
  QueryService service(options);
  double parse_seconds = 0;
  {
    Scope span(&setup_tracer, "xml.parse");
    xqa::DocumentPtr document = xqa::ParseXml(xml);
    parse_seconds = span.Stop();
    service.documents().Put(kDocument, document);
  }
  const References refs = ComputeReferences(ledger);

  // Warm-up: one pass of every class, so the plan cache is filled here.
  std::string results[kNumClasses];
  for (size_t c = 0; c < kNumClasses; ++c) {
    xqa::service::Request request;
    request.query = kClasses[c].text;
    request.document = kDocument;
    request.collect_stats = false;
    xqa::service::Response response = service.Execute(request);
    PB_CHECK(response.status.ok(), std::string(kClasses[c].name) +
                                       " failed: " +
                                       response.status.ToString());
    PB_CHECK(response.result == refs.text[c],
             std::string(kClasses[c].name) + " differs from the ledger:\n" +
                 response.result + "\nexpected:\n" + refs.text[c]);
    results[c] = response.result;
  }
  PB_CHECK(results[0] == results[1] && results[2] == results[3],
           "explicit group by and XQuery 1.0 forms disagree");
  const double setup_seconds =
      SecondsBetween(config.process_start, Clock::now());

  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  LoopResult loop;
  if (!config.trace) {
    while (Clock::now() < deadline) {
      ServiceRound(&service, refs, &loop, &outcome);
    }
    EndToEnd e2e;
    e2e.setup_seconds = setup_seconds;
    e2e.queries_per_second = static_cast<double>(loop.ops) / loop.elapsed;
    e2e.query_seconds = loop.all;
    e2e.groupby_seconds = loop.groupby;
    ReportEndToEnd(e2e, report);
    return outcome;
  }

  // Traced run: untraced rounds through the service alternate with traced
  // rounds through the layer pipeline, at the full lane count and at one
  // lane, so that the overhead figure compares like with like.
  xqa::service::PlanCache cache(options.plan_cache);
  std::vector<TracedQuery> full(kNumClasses), one(kNumClasses);
  for (size_t c = 0; c < kNumClasses; ++c) {
    full[c].text = kClasses[c].text;
    full[c].klass = kClasses[c].name;
    full[c].document = kDocument;
    full[c].exec = options.default_exec;
    one[c] = full[c];
    one[c].exec.num_threads = 1;
    one[c].full_lanes = false;
  }
  std::shared_ptr<const xqa::service::CollectionSnapshot> last_snapshot;
  LayerStats warm;
  for (size_t c = 0; c < kNumClasses; ++c) {
    RunTraced(nullptr, &warm, &cache, &service, full[c], &last_snapshot);
    RunTraced(nullptr, &warm, &cache, &service, one[c], &last_snapshot);
  }

  Tracer tracer(true);
  LayerStats stats;
  int64_t request_id = 0;
  int64_t full_ops = 0;
  double full_seconds = 0;
  while (Clock::now() < deadline) {
    ServiceRound(&service, refs, &loop, &outcome);
    for (const std::vector<TracedQuery>* round : {&full, &one}) {
      Clock::time_point round_start = Clock::now();
      for (size_t c = 0; c < kNumClasses; ++c) {
        tracer.set_request(++request_id);
        TracedResult result = RunTraced(&tracer, &stats, &cache, &service,
                                        (*round)[c], &last_snapshot);
        ++outcome.attempted;
        PB_CHECK(result.serialized == refs.text[c],
                 std::string(kClasses[c].name) + " (traced) differs");
        if (refs.groups[c] > 0) {
          PB_CHECK(
              result.stats.TotalGroupsFormed() == refs.groups[c],
              std::string(kClasses[c].name) +
                  ": groups formed differ from the ledger's distinct keys");
        }
      }
      if (round == &full) {
        full_seconds += SecondsBetween(round_start, Clock::now());
        full_ops += static_cast<int64_t>(kNumClasses);
      }
    }
  }
  LayerReport lr;
  lr.naive_p50_ms = loop.naive.Quantile(0.5) * 1e3;
  lr.untraced_qps = static_cast<double>(loop.ops) / loop.elapsed;
  lr.queue_wait_seconds = loop.queue;
  lr.service_exec_seconds = loop.exec;
  lr.parse_seconds = parse_seconds;
  lr.parse_bytes = static_cast<double>(xml.size());
  lr.traced_qps =
      full_seconds > 0 ? static_cast<double>(full_ops) / full_seconds : 0.0;
  lr.groups = refs.groups[2];
  lr.evictions = static_cast<int64_t>(cache.counters().evictions);
  lr.layers = stats;
  lr.trace = Summarize({&tracer});
  if (!config.trace_out.empty()) {
    WriteSpans(config.trace_out, {&setup_tracer, &tracer});
  }
  ReportLayers(lr, report);
  return outcome;
}

int RunPaperReference(const RunConfig& config) {
  // The paper's configuration (Section 6): no rewrites. The structural
  // index stays on. One lane, median of five executions per query.
  xqa::Engine::Options paper;
  paper.optimizer.detect_groupby_patterns = false;
  paper.optimizer.push_predicates = false;
  paper.optimizer.eliminate_order_by = false;
  paper.optimizer.mark_shredded_scans = false;
  const xqa::Engine engine(paper);
  xqa::DocumentPtr document =
      xqa::ParseXml(ReadFile(config.data_dir + "/" + kDocument));
  auto replace_all = [](std::string text, const std::string& from,
                        const std::string& to) {
    for (size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size())) {
      text.replace(at, from.size(), to);
    }
    return text;
  };
  struct Pair {
    const char* key;
    std::string explicit_text, naive_text;
  };
  const Pair pairs[] = {
      {"shipmode", kClasses[0].text, kClasses[1].text},
      {"shipinstruct,shipmode", kClasses[2].text, kClasses[3].text},
      {"quantity", replace_all(kClasses[0].text, "shipmode", "quantity"),
       replace_all(kClasses[1].text, "shipmode", "quantity")},
  };
  std::printf("%-24s %7s %12s %12s %8s\n", "grouping key", "groups",
              "explicit ms", "xquery1 ms", "ratio");
  for (const Pair& pair : pairs) {
    double median[2] = {0, 0};
    std::string results[2];
    int64_t groups = 0;
    for (int form = 0; form < 2; ++form) {
      xqa::PreparedQuery query = engine.Compile(
          form == 0 ? pair.explicit_text : pair.naive_text);
      PB_CHECK(query.rewrites_applied() == 0,
               "reference plan was rewritten");
      Samples seconds;
      for (int rep = 0; rep < 5; ++rep) {
        Clock::time_point start = Clock::now();
        xqa::ProfiledResult run = query.ExecuteProfiled(document);
        seconds.Add(SecondsBetween(start, Clock::now()));
        results[form] = xqa::SerializeSequence(run.sequence);
        if (form == 0) groups = run.stats.TotalGroupsFormed();
      }
      median[form] = seconds.Quantile(0.5);
    }
    PB_CHECK(results[0] == results[1],
             std::string(pair.key) + ": the two forms disagree");
    std::printf("%-24s %7lld %12.2f %12.2f %8.1f\n", pair.key,
                static_cast<long long>(groups), median[0] * 1e3,
                median[1] * 1e3, median[1] / median[0]);
  }
  return AllChecksPassed() ? 0 : 1;
}

}  // namespace perfbench
