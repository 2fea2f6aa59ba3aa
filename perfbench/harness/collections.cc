// collection_olap and ingest_mixed: many small books and sales documents in
// the sharded CollectionStore.
//
// collection_olap: read-only. A few concurrent clients, each query serial,
// run Q1 (books by publisher and year), Q3 (sales by year, region and state),
// an xqa:rollup query over sales, and an ad-hoc class: Q1/Q3 with a `where`
// whose literal differs on every request, so every ad-hoc text misses the
// plan cache.
//
// ingest_mixed: the same collections behind a durable service (fsync on
// every journal append). One client interleaves writes into `sales` (new,
// replace, remove) with Q1/Q3 reads; the run ends with a checkpoint and
// repeated restarts of the service.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "service/query_service.h"
#include "workloads.h"
#include "xml/xml_parser.h"

namespace perfbench {
namespace {

using xqa::service::CollectionStore;
using xqa::service::QueryService;

// --- Queries ----------------------------------------------------------------

constexpr const char* kQ1Head = R"(
for $b in collection('books')//book
)";
constexpr const char* kQ1Tail = R"(
group by $b/publisher into $p, $b/year into $y
nest $b into $books, $b/price - $b/discount into $netprices
order by string($p), number($y)
return <group>{$p, $y}<n>{count($books)}</n><avg-net-price>{avg($netprices)}</avg-net-price></group>)";

constexpr const char* kQ3 = R"(
for $s in collection('sales')//sale
group by $s/region into $region, year-from-dateTime($s/timestamp) into $year
nest $s into $region-sales
let $region-sum := round-half-to-even(sum($region-sales/(quantity * price)), 2)
order by $year, $region
return
  for $s in $region-sales
  group by $s/state into $state
  nest $s into $state-sales
  let $state-sum := round-half-to-even(sum($state-sales/(quantity * price)), 2)
  order by $state
  return <summary><year>{$year}</year>{$region, $state}<n>{count($state-sales)}</n><state-sales>{$state-sum}</state-sales><region-sales>{$region-sum}</region-sales></summary>)";

constexpr const char* kRollup = R"(
for $s in collection('sales')//sale
for $g in xqa:rollup(($s/region, $s/state))
group by $g into $key
nest $s/quantity into $q
order by count($key/*), string-join($key/*, '/')
return <level depth="{count($key/*)}" key="{string-join($key/*, '/')}"><n>{count($q)}</n><qty>{sum($q)}</qty></level>)";

constexpr const char* kAdhocQ3Head = R"(
for $s in collection('sales')//sale
)";
constexpr const char* kAdhocQ3Tail = R"(
group by $s/region into $region, year-from-dateTime($s/timestamp) into $year
nest $s into $rs
order by $year, $region
return <summary><year>{$year}</year>{$region}<n>{count($rs)}</n><qty>{sum($rs/quantity)}</qty></summary>)";

enum class Klass { kQ1, kQ3, kRollup, kAdhocQ1, kAdhocQ3 };

const char* KlassName(Klass k) {
  switch (k) {
    case Klass::kQ1: return "q1";
    case Klass::kQ3: return "q3";
    case Klass::kRollup: return "rollup";
    case Klass::kAdhocQ1: return "adhoc_q1";
    case Klass::kAdhocQ3: return "adhoc_q3";
  }
  return "?";
}

bool ReadsBooks(Klass k) { return k == Klass::kQ1 || k == Klass::kAdhocQ1; }

/// One request: its class, text, and the ad-hoc literal (a price lower
/// bound, in thousandths) when the class is ad hoc.
struct Query {
  Klass klass = Klass::kQ1;
  std::string text;
  int64_t min_price_milli = -1;
};

std::string Milli(int64_t milli) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(milli / 1000),
                static_cast<long long>(milli % 1000));
  return buf;
}

Query MakeQuery(Klass klass, int64_t adhoc_index) {
  Query q;
  q.klass = klass;
  switch (klass) {
    case Klass::kQ1:
      q.text = std::string(kQ1Head) + kQ1Tail;
      break;
    case Klass::kQ3:
      q.text = kQ3;
      break;
    case Klass::kRollup:
      q.text = kRollup;
      break;
    case Klass::kAdhocQ1:
      // Distinct for 140,000 consecutive indexes: 7919 is prime to 140000.
      q.min_price_milli = 10000 + (adhoc_index * 7919) % 140000;
      q.text = std::string(kQ1Head) + "where $b/price >= " +
               Milli(q.min_price_milli) + kQ1Tail;
      break;
    case Klass::kAdhocQ3:
      q.min_price_milli = 2000 + (adhoc_index * 7919) % 28000;
      q.text = std::string(kAdhocQ3Head) + "where $s/price >= " +
               Milli(q.min_price_milli) + kAdhocQ3Tail;
      break;
  }
  return q;
}

// --- The ledger's view of the corpus and the reference checks ---------------

/// The live documents of each collection, by URI, as the ledger records
/// them.
struct Model {
  std::map<std::string, const LedgerDoc*> books, sales;
  size_t documents() const { return books.size() + sales.size(); }
};

bool PriceAtLeast(double price, int64_t min_price_milli) {
  // The engine compares the untyped price, cast to xs:double, with the
  // decimal literal promoted to xs:double.
  return min_price_milli < 0 ||
         price >= std::strtod(Milli(min_price_milli).c_str(), nullptr);
}

bool Near(double got, double want, double tolerance) {
  return std::fabs(got - want) <= tolerance;
}

// Q1 and its ad-hoc variant. Counts are exact; the average net price is
// compared with the exact decimal mean to 1e-9 relative (the engine averages
// xs:double values). Returns the records the query's domain emits.
int64_t CheckQ1(const std::string& result, const Model& model,
                int64_t min_price_milli, int64_t* groups) {
  struct Agg {
    int64_t n = 0, net_n = 0, net_cents = 0;
  };
  std::map<std::pair<std::string, int>, Agg> want;
  int64_t records = 0;
  for (const auto& [uri, doc] : model.books) {
    for (const Book& b : doc->books) {
      if (!PriceAtLeast(b.price, min_price_milli)) continue;
      ++records;
      Agg& a = want[{b.publisher, b.year}];
      ++a.n;
      if (b.discount_cents >= 0) {
        ++a.net_n;
        a.net_cents += b.price_cents - b.discount_cents;
      }
    }
  }
  std::vector<ResultRow> rows = ParseRows(result, "group");
  PB_CHECK(rows.size() == want.size(),
           "q1: " + std::to_string(rows.size()) + " groups, ledger has " +
               std::to_string(want.size()));
  for (const ResultRow& row : rows) {
    auto pub = row.children.find("publisher");
    auto year = row.children.find("year");
    if (year == row.children.end()) {
      CheckFailed("q1: group without a year");
      continue;
    }
    auto it = want.find({pub == row.children.end() ? "" : pub->second,
                         std::atoi(year->second.c_str())});
    if (it == want.end()) {
      CheckFailed("q1: group not in the ledger");
      continue;
    }
    const Agg& a = it->second;
    PB_CHECK(row.children.count("n") &&
                 row.children.at("n") == std::to_string(a.n),
             "q1: count differs from the ledger");
    auto avg = row.children.find("avg-net-price");
    if (a.net_n == 0) {
      PB_CHECK(avg != row.children.end() && avg->second.empty(),
               "q1: average of no net prices is not empty");
    } else {
      double exact = static_cast<double>(a.net_cents) /
                     static_cast<double>(a.net_n) / 100.0;
      PB_CHECK(avg != row.children.end() &&
                   Near(ParseNumber(avg->second), exact, 1e-9 * exact),
               "q1: average net price differs from the ledger");
    }
  }
  if (groups != nullptr) *groups = static_cast<int64_t>(want.size());
  return records;
}

// Q3: counts exact; the rounded sums equal the exact sums in cents (every
// addend is a whole number of cents, so rounding to 2 places recovers it).
int64_t CheckQ3(const std::string& result, const Model& model) {
  struct Agg {
    int64_t n = 0, cents = 0;
  };
  std::map<std::tuple<int, std::string, std::string>, Agg> want;
  std::map<std::pair<int, std::string>, int64_t> region_cents;
  int64_t records = 0;
  for (const auto& [uri, doc] : model.sales) {
    for (const Sale& s : doc->sales) {
      ++records;
      Agg& a = want[{s.year, s.region, s.state}];
      ++a.n;
      a.cents += s.quantity * s.price_cents;
      region_cents[{s.year, s.region}] += s.quantity * s.price_cents;
    }
  }
  std::vector<ResultRow> rows = ParseRows(result, "summary");
  PB_CHECK(rows.size() == want.size(),
           "q3: " + std::to_string(rows.size()) + " groups, ledger has " +
               std::to_string(want.size()));
  for (const ResultRow& row : rows) {
    if (!row.children.count("year") || !row.children.count("region") ||
        !row.children.count("state") || !row.children.count("n") ||
        !row.children.count("state-sales") ||
        !row.children.count("region-sales")) {
      CheckFailed("q3: incomplete summary");
      continue;
    }
    int year = std::atoi(row.children.at("year").c_str());
    auto it = want.find({year, row.children.at("region"),
                         row.children.at("state")});
    if (it == want.end()) {
      CheckFailed("q3: group not in the ledger");
      continue;
    }
    PB_CHECK(row.children.at("n") == std::to_string(it->second.n),
             "q3: count differs from the ledger");
    PB_CHECK(Near(ParseNumber(row.children.at("state-sales")),
                  static_cast<double>(it->second.cents) / 100.0, 1e-6),
             "q3: state sum differs from the ledger");
    PB_CHECK(Near(ParseNumber(row.children.at("region-sales")),
                  static_cast<double>(
                      region_cents[{year, row.children.at("region")}]) /
                      100.0,
                  1e-6),
             "q3: region sum differs from the ledger");
  }
  return records;
}

// Rollup: every level's counts and quantities equal the ledger's, and each
// level conserves the totals of the level below it.
int64_t CheckRollup(const std::string& result, const Model& model) {
  std::map<std::string, std::pair<int64_t, int64_t>> want;  // key -> n, qty
  int64_t records = 0;
  for (const auto& [uri, doc] : model.sales) {
    for (const Sale& s : doc->sales) {
      ++records;
      for (const std::string& key :
           {std::string(), s.region, s.region + "/" + s.state}) {
        want[key].first += 1;
        want[key].second += s.quantity;
      }
    }
  }
  std::vector<ResultRow> rows = ParseRows(result, "level");
  PB_CHECK(rows.size() == want.size(),
           "rollup: " + std::to_string(rows.size()) + " groups, ledger has " +
               std::to_string(want.size()));
  std::map<int, std::pair<int64_t, double>> level_totals;
  for (const ResultRow& row : rows) {
    if (!row.attributes.count("key") || !row.attributes.count("depth") ||
        !row.children.count("n") || !row.children.count("qty")) {
      CheckFailed("rollup: incomplete level");
      continue;
    }
    int64_t n = std::atoll(row.children.at("n").c_str());
    double qty = ParseNumber(row.children.at("qty"));
    auto& totals = level_totals[std::atoi(row.attributes.at("depth").c_str())];
    totals.first += n;
    totals.second += qty;
    auto it = want.find(row.attributes.at("key"));
    if (it == want.end()) {
      CheckFailed("rollup: group not in the ledger");
      continue;
    }
    PB_CHECK(n == it->second.first && qty == it->second.second,
             "rollup: level '" + row.attributes.at("key") +
                 "' differs from the ledger");
  }
  PB_CHECK(level_totals.size() == 3, "rollup: expected 3 levels");
  for (const auto& [depth, totals] : level_totals) {
    PB_CHECK(totals.first == records &&
                 totals.second == static_cast<double>(want[""].second),
             "rollup: level " + std::to_string(depth) +
                 " does not conserve the totals");
  }
  return records;
}

int64_t CheckAdhocQ3(const std::string& result, const Model& model,
                     int64_t min_price_milli) {
  std::map<std::pair<int, std::string>, std::pair<int64_t, int64_t>> want;
  int64_t records = 0;
  for (const auto& [uri, doc] : model.sales) {
    for (const Sale& s : doc->sales) {
      if (!PriceAtLeast(s.price, min_price_milli)) continue;
      ++records;
      auto& agg = want[{s.year, s.region}];
      agg.first += 1;
      agg.second += s.quantity;
    }
  }
  std::vector<ResultRow> rows = ParseRows(result, "summary");
  PB_CHECK(rows.size() == want.size(), "adhoc_q3: group count differs");
  for (const ResultRow& row : rows) {
    if (!row.children.count("year") || !row.children.count("region") ||
        !row.children.count("n") || !row.children.count("qty")) {
      CheckFailed("adhoc_q3: incomplete summary");
      continue;
    }
    auto it = want.find({std::atoi(row.children.at("year").c_str()),
                         row.children.at("region")});
    if (it == want.end()) {
      CheckFailed("adhoc_q3: group not in the ledger");
      continue;
    }
    PB_CHECK(row.children.at("n") == std::to_string(it->second.first) &&
                 ParseNumber(row.children.at("qty")) ==
                     static_cast<double>(it->second.second),
             "adhoc_q3: group differs from the ledger for literal " +
                 Milli(min_price_milli));
  }
  return records;
}

/// Checks `result` of `query` against the ledger; returns the records the
/// query's scan emits (the expected shredded rows) and, for Q1, the
/// expected group count.
int64_t CheckResult(const Query& query, const std::string& result,
                    const Model& model, int64_t* groups = nullptr) {
  switch (query.klass) {
    case Klass::kQ1:
    case Klass::kAdhocQ1:
      return CheckQ1(result, model, query.min_price_milli, groups);
    case Klass::kQ3:
      return CheckQ3(result, model);
    case Klass::kRollup:
      return CheckRollup(result, model);
    case Klass::kAdhocQ3:
      return CheckAdhocQ3(result, model, query.min_price_milli);
  }
  return 0;
}

// --- Corpus set-up ----------------------------------------------------------

struct Corpus {
  Ledger ledger;
  std::map<std::string, std::string> xml;  ///< by ledger file
  Model base;
  double base_bytes = 0;  ///< XML bytes of the set-up corpus
};

Corpus LoadCorpus(const std::string& data_dir) {
  Corpus corpus;
  corpus.ledger = ReadLedger(data_dir);
  for (const LedgerDoc& doc : corpus.ledger.docs) {
    corpus.xml[doc.file] = ReadFile(data_dir + "/" + doc.file);
    if (doc.collection == "books") corpus.base.books[doc.uri] = &doc;
    if (doc.collection == "sales") corpus.base.sales[doc.uri] = &doc;
    if (doc.collection != "-") {
      corpus.base_bytes += static_cast<double>(corpus.xml[doc.file].size());
    }
  }
  return corpus;
}

void BulkLoadCorpus(const Corpus& corpus, CollectionStore* store) {
  for (const char* collection : {"books", "sales"}) {
    std::vector<CollectionStore::BulkDocument> batch;
    for (const LedgerDoc& doc : corpus.ledger.docs) {
      if (doc.collection == collection) {
        batch.push_back({doc.uri, corpus.xml.at(doc.file)});
      }
    }
    store->BulkLoad(collection, batch, /*num_threads=*/0);
  }
}

int64_t AdhocOffset(const Ledger& ledger) {
  auto it = ledger.params.find("adhoc_offset");
  return it == ledger.params.end() ? 0 : std::atoll(it->second.c_str());
}

/// Re-parses every set-up document once, serially, with a span around each
/// ParseXml call: the xml layer's throughput (traced runs only; set-up
/// itself parses through CollectionStore::BulkLoad).
void ParsePass(const Corpus& corpus, Tracer* tracer, LayerReport* lr) {
  for (const LedgerDoc& doc : corpus.ledger.docs) {
    if (doc.collection == "-") continue;
    const std::string& xml = corpus.xml.at(doc.file);
    Scope span(tracer, "xml.parse");
    xqa::DocumentPtr parsed = xqa::ParseXml(xml);
    lr->parse_seconds += span.Stop();
    lr->parse_bytes += static_cast<double>(xml.size());
  }
}

TracedQuery ToTraced(const Query& query) {
  TracedQuery t;
  t.text = query.text;
  t.klass = KlassName(query.klass);
  t.use_collections = true;
  t.collection = ReadsBooks(query.klass) ? "books" : "sales";
  t.record = ReadsBooks(query.klass) ? "book" : "sale";
  t.exec.num_threads = 1;
  return t;
}

struct ReadSample {
  double latency = 0;
  double queue = 0;
  double exec = 0;
  std::string result;
  bool ok = false;
};

ReadSample ServiceRead(QueryService* service, const std::string& text) {
  xqa::service::Request request;
  request.query = text;
  request.provide_collections = true;
  request.collect_stats = false;
  Clock::time_point t0 = Clock::now();
  xqa::service::Response response = service->Execute(request);
  ReadSample sample;
  sample.latency = SecondsBetween(t0, Clock::now());
  sample.queue = response.queue_seconds;
  sample.exec = response.exec_seconds;
  sample.ok = response.status.ok();
  if (!sample.ok) {
    CheckFailed("query failed: " + response.status.ToString());
  }
  sample.result = std::move(response.result);
  return sample;
}

/// Checks the counts a traced execution reports against the ledger: the
/// shredded rows equal the records the scan's domain holds.
void CheckTracedCounts(const Query& query, const TracedResult& result,
                       int64_t expected_records) {
  if (result.stats.shredded_scans > 0) {
    PB_CHECK(result.stats.shredded_rows ==
                 result.stats.shredded_scans * expected_records,
             std::string(KlassName(query.klass)) +
                 ": shredded rows differ from the ledger's records");
  }
}

/// Whether two answers of `query` over the same corpus agree. Q3 rounds its
/// sums, so its answers must match byte for byte. Q1 averages xs:double
/// values whose order of addition follows the documents' order, which a
/// restart does not keep; its averages must agree to 1e-12 relative and
/// every other value exactly.
bool SameAnswer(const Query& query, const std::string& a,
                const std::string& b) {
  if (query.klass != Klass::kQ1) return a == b;
  std::vector<ResultRow> ra = ParseRows(a, "group");
  std::vector<ResultRow> rb = ParseRows(b, "group");
  if (ra.size() != rb.size()) return false;
  for (size_t i = 0; i < ra.size(); ++i) {
    for (const auto& [name, value] : ra[i].children) {
      auto other = rb[i].children.find(name);
      if (other == rb[i].children.end()) return false;
      if (name != "avg-net-price" || value.empty()) {
        if (value != other->second) return false;
        continue;
      }
      double x = ParseNumber(value);
      if (!Near(ParseNumber(other->second), x, 1e-12 * std::fabs(x))) {
        return false;
      }
    }
    if (ra[i].children.size() != rb[i].children.size()) return false;
  }
  return true;
}

// --- collection_olap --------------------------------------------------------

constexpr Klass kOlapRound[] = {Klass::kQ1, Klass::kAdhocQ1, Klass::kQ3,
                                Klass::kAdhocQ3, Klass::kRollup};

struct OlapClient {
  Samples all, groupby, adhoc, queue, exec;
  int64_t ops = 0;
  double elapsed = 0;
  int64_t attempted = 0;
  // traced rounds
  Tracer tracer{true};
  LayerStats layers;
  int64_t traced_ops = 0, traced_adhoc = 0;
  double traced_elapsed = 0;
  int64_t q1_groups = -1, q1_rows = -1;
};

}  // namespace

Outcome RunCollectionOlap(const RunConfig& config, Report* report) {
  const Corpus corpus = LoadCorpus(config.data_dir);
  const int clients = std::min(3, HardwareThreads());
  xqa::service::ServiceOptions options;
  options.worker_threads = clients;
  options.default_exec.num_threads = 1;
  QueryService service(options);
  BulkLoadCorpus(corpus, &service.collections());

  // Warm-up: every class once, so plan-cache entries and shredded tables
  // are built here; the fixed classes' answers are checked once and later
  // answers must equal them byte for byte.
  std::atomic<int64_t> adhoc_index{AdhocOffset(corpus.ledger)};
  std::map<Klass, std::string> fixed_results;
  for (Klass k : kOlapRound) {
    Query q = MakeQuery(k, adhoc_index++);
    ReadSample sample = ServiceRead(&service, q.text);
    CheckResult(q, sample.result, corpus.base);
    if (q.min_price_milli < 0) fixed_results[k] = sample.result;
  }
  const double setup_seconds =
      SecondsBetween(config.process_start, Clock::now());

  xqa::service::PlanCache cache(options.plan_cache);
  if (config.trace) {
    LayerStats warm;
    std::shared_ptr<const xqa::service::CollectionSnapshot> last;
    for (Klass k : kOlapRound) {
      if (k == Klass::kAdhocQ1 || k == Klass::kAdhocQ3) continue;
      RunTraced(nullptr, &warm, &cache, &service, ToTraced(MakeQuery(k, 0)),
                &last);
    }
  }

  // Closed loop: each client sends its next request when the previous one
  // returns; rounds are whole. Traced runs alternate untraced rounds through
  // the service with traced rounds through the layer pipeline.
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  std::vector<OlapClient> results(static_cast<size_t>(clients));
  auto client_main = [&](OlapClient* me, int id) {
    std::shared_ptr<const xqa::service::CollectionSnapshot> last;
    int64_t request_id = static_cast<int64_t>(id) << 40;
    while (Clock::now() < deadline) {
      for (Klass k : kOlapRound) {
        Query q = MakeQuery(k, adhoc_index++);
        ReadSample sample = ServiceRead(&service, q.text);
        ++me->attempted;
        me->elapsed += sample.latency;
        if (!sample.ok) continue;
        ++me->ops;
        me->all.Add(sample.latency);
        me->queue.Add(sample.queue);
        me->exec.Add(sample.exec);
        if (q.min_price_milli >= 0) {
          me->adhoc.Add(sample.latency);
          CheckResult(q, sample.result, corpus.base);
        } else {
          PB_CHECK(sample.result == fixed_results.at(k),
                   std::string(KlassName(k)) + " answer changed");
        }
        me->groupby.Add(sample.latency);
      }
      if (!config.trace) continue;

      for (Klass k : kOlapRound) {
        Query q = MakeQuery(k, adhoc_index++);
        me->tracer.set_request(++request_id);
        Clock::time_point start = Clock::now();
        TracedResult result = RunTraced(&me->tracer, &me->layers, &cache,
                                        &service, ToTraced(q), &last);
        me->traced_elapsed += SecondsBetween(start, Clock::now());
        ++me->attempted;
        ++me->traced_ops;
        int64_t groups = 0;
        int64_t records = CheckResult(q, result.serialized, corpus.base,
                                      k == Klass::kQ1 ? &groups : nullptr);
        CheckTracedCounts(q, result, records);
        if (q.min_price_milli >= 0) ++me->traced_adhoc;
        if (k == Klass::kQ1) {
          PB_CHECK(result.stats.TotalGroupsFormed() == groups,
                   "q1: groups formed differ from the ledger's distinct keys");
          me->q1_groups = result.stats.TotalGroupsFormed();
          me->q1_rows = result.stats.shredded_rows;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back(client_main, &results[static_cast<size_t>(i)], i);
  }
  for (std::thread& t : threads) t.join();

  Outcome outcome;
  EndToEnd e2e;
  LayerReport lr;
  int64_t traced_adhoc = 0;
  std::vector<const Tracer*> tracers;
  Samples adhoc;
  for (OlapClient& c : results) {
    outcome.attempted += c.attempted;
    e2e.query_seconds.Append(c.all);
    e2e.groupby_seconds.Append(c.groupby);
    adhoc.Append(c.adhoc);
    lr.queue_wait_seconds.Append(c.queue);
    lr.service_exec_seconds.Append(c.exec);
    traced_adhoc += c.traced_adhoc;
    lr.layers.Merge(c.layers);
    tracers.push_back(&c.tracer);
    if (c.q1_groups >= 0) {
      lr.groups = c.q1_groups;
      lr.rows_scanned = c.q1_rows;
    }
  }
  // Each client's rate is its requests over the time it waited on them (the
  // checks run between requests, and a traced run splits the wall time
  // between untraced and traced rounds); the clients' rates add up.
  double rate = 0;
  for (const OlapClient& c : results) {
    if (c.elapsed > 0) rate += static_cast<double>(c.ops) / c.elapsed;
  }
  if (!config.trace) {
    e2e.setup_seconds = setup_seconds;
    e2e.queries_per_second = rate;
    ReportEndToEnd(e2e, report);
    return outcome;
  }
  double traced_rate = 0;
  for (const OlapClient& c : results) {
    if (c.traced_elapsed > 0) {
      traced_rate += static_cast<double>(c.traced_ops) / c.traced_elapsed;
    }
  }
  xqa::service::PlanCache::Counters counters = cache.counters();
  PB_CHECK(static_cast<int64_t>(counters.misses) ==
               traced_adhoc + 3 /* fixed classes, compiled at warm-up */,
           "plan-cache misses (" + std::to_string(counters.misses) +
               ") differ from the distinct texts issued (" +
               std::to_string(traced_adhoc + 3) + ")");
  lr.adhoc_p50_ms = adhoc.Quantile(0.5) * 1e3;
  lr.untraced_qps = rate;
  lr.traced_qps = traced_rate;
  lr.evictions = static_cast<int64_t>(counters.evictions);
  Tracer parse_tracer(true);
  ParsePass(corpus, &parse_tracer, &lr);
  tracers.push_back(&parse_tracer);
  lr.trace = Summarize(tracers);
  if (!config.trace_out.empty()) WriteSpans(config.trace_out, tracers);
  ReportLayers(lr, report);
  return outcome;
}

// --- ingest_mixed -----------------------------------------------------------

namespace {

constexpr int kRestarts = 5;

enum class WriteKind { kPutNew, kReplace, kRemove, kRestoreRemoved,
                       kRestoreReplaced, kRemoveNew };
constexpr WriteKind kIngestRound[] = {
    WriteKind::kPutNew, WriteKind::kReplace, WriteKind::kRemove,
    WriteKind::kRestoreRemoved, WriteKind::kRestoreReplaced,
    WriteKind::kRemoveNew};
constexpr size_t kRoundSteps = sizeof(kIngestRound) / sizeof(kIngestRound[0]);

int64_t JournalBytes(QueryService* service) {
  std::string stats = service->storage()->StatsJson();
  const std::string key = "\"journal_bytes\": ";
  size_t at = stats.find(key);
  return at == std::string::npos
             ? 0
             : std::atoll(stats.c_str() + at + key.size());
}

class Ingest {
 public:
  Ingest(const RunConfig& config, const Corpus& corpus)
      : corpus_(corpus), model_(corpus.base) {
    options_.worker_threads = 1;
    options_.default_exec.num_threads = 1;
    options_.data_dir = config.work_dir + "/store";
    options_.storage_fsync = xqa::FsyncPolicy::kAlways;
    std::filesystem::remove_all(options_.data_dir);
    service_ = std::make_unique<QueryService>(options_);
  }

  QueryService* service() { return service_.get(); }
  const xqa::service::ServiceOptions& options() const { return options_; }
  const Model& model() const { return model_; }

  /// Applies step `step` of variant `v`'s write plan; returns its latency.
  double Write(const Variant& v, WriteKind kind, Tracer* tracer,
               LayerStats* layers) {
    Scope request(tracer, "request.op");
    const LedgerDoc* doc = nullptr;
    std::string uri;
    bool remove = false;
    switch (kind) {
      case WriteKind::kPutNew:
        uri = v.new_uri;
        doc = &corpus_.ledger.DocByFile(v.new_file);
        break;
      case WriteKind::kReplace:
        uri = v.replace_uri;
        doc = &corpus_.ledger.DocByFile(v.replace_file);
        break;
      case WriteKind::kRemove:
        uri = v.remove_uri;
        remove = true;
        break;
      case WriteKind::kRestoreRemoved:
        uri = v.remove_uri;
        doc = corpus_.base.sales.at(uri);
        break;
      case WriteKind::kRestoreReplaced:
        uri = v.replace_uri;
        doc = corpus_.base.sales.at(uri);
        break;
      case WriteKind::kRemoveNew:
        uri = v.new_uri;
        remove = true;
        break;
    }
    CollectionStore& store = service_->collections();
    if (remove) {
      Scope span(tracer, "collection_store.remove");
      bool removed = store.Remove("sales", uri);
      layers->put_seconds.Add(span.Stop());
      PB_CHECK(removed, "remove of " + uri + " found no document");
      model_.sales.erase(uri);
    } else {
      xqa::DocumentPtr parsed;
      {
        Scope span(tracer, "xml.parse");
        parsed = xqa::ParseXml(corpus_.xml.at(doc->file));
      }
      Scope span(tracer, "collection_store.put");
      bool replaced = store.Put("sales", uri, std::move(parsed));
      layers->put_seconds.Add(span.Stop());
      PB_CHECK(replaced == (kind == WriteKind::kReplace ||
                            kind == WriteKind::kRestoreReplaced),
               "put of " + uri + " disagrees with the ledger on replacement");
      model_.sales[uri] = doc;
    }
    return request.Stop();
  }

  /// The read that follows write step `step`: Q3 after the even steps, Q1
  /// after the odd ones, so reads alternate between the written collection
  /// and the untouched one.
  static Klass ReadAfter(size_t step) {
    return step % 2 == 0 ? Klass::kQ3 : Klass::kQ1;
  }

  /// Checks a read's answer: the first answer at each (variant, step)
  /// against the ledger, later ones byte for byte against the first.
  int64_t CheckRead(size_t variant, size_t step, const Query& q,
                    const std::string& result, int64_t* groups = nullptr) {
    const std::pair<size_t, size_t> key{variant, step};
    auto first = first_results_.find(key);
    if (first != first_results_.end()) {
      PB_CHECK(result == first->second,
               std::string(KlassName(q.klass)) + " answer at variant " +
                   std::to_string(variant) + " step " + std::to_string(step) +
                   " changed");
      if (groups == nullptr) return records_.at(key);
    }
    int64_t records = CheckResult(q, result, model_, groups);
    first_results_.emplace(key, result);
    records_[key] = records;
    return records;
  }

  /// Destroys the service and opens it again on the same data directory.
  double Restart(Tracer* tracer) {
    service_.reset();
    Scope span(tracer, "storage.recover");
    service_ = std::make_unique<QueryService>(options_);
    return span.Stop();
  }

 private:
  const Corpus& corpus_;
  Model model_;
  xqa::service::ServiceOptions options_;
  std::unique_ptr<QueryService> service_;
  std::map<std::pair<size_t, size_t>, std::string> first_results_;
  std::map<std::pair<size_t, size_t>, int64_t> records_;
};

}  // namespace

Outcome RunIngestMixed(const RunConfig& config, Report* report) {
  const Corpus corpus = LoadCorpus(config.data_dir);
  if (corpus.ledger.variants.empty()) {
    throw std::runtime_error("the ledger has no ingest write plan");
  }
  Tracer tracer(config.trace);
  Ingest ingest(config, corpus);
  BulkLoadCorpus(corpus, &ingest.service()->collections());
  {
    Scope span(&tracer, "storage.checkpoint");
    ingest.service()->CheckpointStorage();
  }
  for (Klass k : {Klass::kQ1, Klass::kQ3}) {
    Query q = MakeQuery(k, 0);
    CheckResult(q, ServiceRead(ingest.service(), q.text).result,
                corpus.base);
  }
  const double setup_seconds =
      SecondsBetween(config.process_start, Clock::now());

  Outcome outcome;
  EndToEnd e2e;
  LayerReport lr;
  LayerStats untraced_layers;  // write timings of the untraced rounds
  Samples write_seconds;
  int64_t reads = 0, writes = 0, traced_ops = 0;
  double elapsed = 0, traced_elapsed = 0;
  int64_t journal_bytes = 0;
  xqa::service::PlanCache cache(ingest.options().plan_cache);
  std::shared_ptr<const xqa::service::CollectionSnapshot> last_snapshot;
  const Query reads_by_class[] = {MakeQuery(Klass::kQ1, 0),
                                  MakeQuery(Klass::kQ3, 0)};
  auto read_query = [&](size_t step) -> const Query& {
    return reads_by_class[Ingest::ReadAfter(step) == Klass::kQ1 ? 0 : 1];
  };

  // One untraced round: six writes, each followed by a read.
  auto untraced_round = [&](size_t variant) {
    const Variant& v = corpus.ledger.variants[variant];
    Clock::time_point start = Clock::now();
    for (size_t step = 0; step < kRoundSteps; ++step) {
      write_seconds.Add(
          ingest.Write(v, kIngestRound[step], nullptr, &untraced_layers));
      ++writes;
      ++outcome.attempted;
      const Query& q = read_query(step);
      ReadSample sample = ServiceRead(ingest.service(), q.text);
      ++outcome.attempted;
      if (!sample.ok) continue;
      ingest.CheckRead(variant, step, q, sample.result);
      ++reads;
      e2e.query_seconds.Add(sample.latency);
      e2e.groupby_seconds.Add(sample.latency);
      lr.queue_wait_seconds.Add(sample.queue);
      lr.service_exec_seconds.Add(sample.exec);
    }
    elapsed += SecondsBetween(start, Clock::now());
  };

  // One traced round: the same writes and reads through the layers.
  int64_t request_id = 0;
  auto traced_round = [&](size_t variant) {
    const Variant& v = corpus.ledger.variants[variant];
    int64_t journal_before = JournalBytes(ingest.service());
    Clock::time_point start = Clock::now();
    for (size_t step = 0; step < kRoundSteps; ++step) {
      tracer.set_request(++request_id);
      ingest.Write(v, kIngestRound[step], &tracer, &lr.layers);
      ++lr.writes;
      ++outcome.attempted;
      const Query& q = read_query(step);
      tracer.set_request(++request_id);
      TracedResult result = RunTraced(&tracer, &lr.layers, &cache,
                                      ingest.service(), ToTraced(q),
                                      &last_snapshot);
      ++outcome.attempted;
      ++traced_ops;
      int64_t groups = 0;
      int64_t records =
          ingest.CheckRead(variant, step, q, result.serialized,
                           q.klass == Klass::kQ1 ? &groups : nullptr);
      CheckTracedCounts(q, result, records);
      if (q.klass == Klass::kQ1) {
        PB_CHECK(result.stats.TotalGroupsFormed() == groups,
                 "q1: groups formed differ from the ledger's distinct keys");
        lr.groups = groups;
        lr.rows_scanned = result.stats.shredded_rows;
      }
    }
    traced_elapsed += SecondsBetween(start, Clock::now());
    journal_bytes += JournalBytes(ingest.service()) - journal_before;
  };

  last_snapshot = ingest.service()->collections().Snapshot();
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  size_t round = 0;
  while (Clock::now() < deadline) {
    untraced_round(round++ % corpus.ledger.variants.size());
    if (config.trace) traced_round(round++ % corpus.ledger.variants.size());
  }
  PB_CHECK(lr.layers.snapshot_rebuilds == lr.writes,
           "snapshot rebuilds (" +
               std::to_string(lr.layers.snapshot_rebuilds) +
               ") differ from the writes made (" + std::to_string(lr.writes) +
               ")");

  // Checkpoint, then one more round whose records the restarts replay.
  double checkpoint_seconds = 0;
  {
    Scope span(&tracer, "storage.checkpoint");
    ingest.service()->CheckpointStorage();
    checkpoint_seconds = span.Stop();
  }
  const std::string store_dir = ingest.options().data_dir;
  const double disk_ratio =
      static_cast<double>(DirectoryBytes(store_dir)) / corpus.base_bytes;
  const int64_t segment_bytes = DirectoryBytes(store_dir, "seg-");
  untraced_round(round++ % corpus.ledger.variants.size());
  std::string before[2];
  for (int i = 0; i < 2; ++i) {
    before[i] = ServiceRead(ingest.service(), reads_by_class[i].text).result;
    CheckResult(reads_by_class[i], before[i], ingest.model());
    ++outcome.attempted;
  }
  last_snapshot.reset();
  Samples recover_seconds;
  for (int r = 0; r < kRestarts; ++r) {
    recover_seconds.Add(ingest.Restart(&tracer));
    ++outcome.attempted;
    const xqa::storage::RecoveryResult& recovery =
        ingest.service()->storage_recovery();
    lr.records_replayed = static_cast<double>(recovery.journal_records_applied);
    PB_CHECK(recovery.journal_records_applied == kRoundSteps,
             "recovery replayed " +
                 std::to_string(recovery.journal_records_applied) +
                 " journal records, the ledger has " +
                 std::to_string(kRoundSteps));
    PB_CHECK(ingest.service()->collections().size() ==
                 ingest.model().documents(),
             "document count after restart differs from the ledger");
    for (int i = 0; i < 2; ++i) {
      std::string after =
          ServiceRead(ingest.service(), reads_by_class[i].text).result;
      ++outcome.attempted;
      PB_CHECK(SameAnswer(reads_by_class[i], before[i], after),
               "answer after restart differs from the answer before it");

      CheckResult(reads_by_class[i], after, ingest.model());
    }
  }

  if (!config.trace) {
    e2e.setup_seconds = setup_seconds;
    e2e.queries_per_second = static_cast<double>(reads) / elapsed;
    ReportEndToEnd(e2e, report);
    return outcome;
  }
  lr.writes_per_s = static_cast<double>(writes) / elapsed;
  lr.write_p50_ms = write_seconds.Quantile(0.5) * 1e3;
  lr.recover_s = recover_seconds.Quantile(0.5);
  lr.recover_seconds = recover_seconds;
  lr.disk_bytes_per_input_byte = disk_ratio;
  lr.untraced_qps = static_cast<double>(reads) / elapsed;
  lr.traced_qps =
      traced_elapsed > 0 ? static_cast<double>(traced_ops) / traced_elapsed
                         : 0.0;
  lr.evictions = static_cast<int64_t>(cache.counters().evictions);
  lr.journal_bytes_per_write =
      lr.writes > 0 ? static_cast<double>(journal_bytes) /
                          static_cast<double>(lr.writes)
                    : 0.0;
  lr.checkpoint_ms = checkpoint_seconds * 1e3;
  lr.segment_bytes = segment_bytes;
  ParsePass(corpus, &tracer, &lr);
  lr.trace = Summarize({&tracer});
  if (!config.trace_out.empty()) WriteSpans(config.trace_out, {&tracer});
  ReportLayers(lr, report);
  return outcome;
}

}  // namespace perfbench
