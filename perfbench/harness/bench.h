// Shared pieces of the xqa benchmark harness: run configuration, exact
// latency samples, the span tracer, the ledger the generator wrote, result
// parsing for the reference checks, and the one-line JSON report.
#ifndef XQA_PERFBENCH_BENCH_H_
#define XQA_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/query_stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to);

/// Everything one invocation was asked to do.
struct RunConfig {
  std::string workload;
  std::string data_dir;   ///< generator output (ledger.tsv + documents)
  std::string work_dir;   ///< scratch space for the durable store
  std::string trace_out;  ///< span file of a traced run; may be empty
  double seconds = 10.0;
  bool trace = false;
  Clock::time_point process_start;
};

/// Intra-query lanes and client threads are kept within the machine's
/// hardware threads (at most 4 lanes, at most 3 clients).
int HardwareThreads();

/// Exact samples; quantiles by nearest rank.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Quantile(double q) const;  ///< 0 when empty
  double Mean() const;              ///< 0 when empty

 private:
  std::vector<double> values_;
};

// --- Tracing ---------------------------------------------------------------

/// One timed call into a layer. `name` is "<layer>.<call>"; the layer is the
/// part before the first dot.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index into the same tracer's spans, -1 = root
  int64_t request = 0;
};

/// Records spans in memory when enabled; one per thread. Scopes always
/// measure their duration, so untraced code paths can use the same timers.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  void set_request(int64_t id) { request_ = id; }
  int Begin(const char* name, Clock::time_point start);
  void End(int index, Clock::time_point end);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scope {
 public:
  Scope(Tracer* tracer, const char* name);
  ~Scope() { Stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Ends the span (idempotent) and returns its duration in seconds.
  double Stop();

 private:
  Tracer* tracer_;
  int index_ = -1;
  bool stopped_ = false;
  double seconds_ = 0.0;
  Clock::time_point start_;
};

/// Per-layer self time (span duration minus the part covered by child
/// spans) summed over the request trees of a set of spans.
struct TraceSummary {
  std::map<std::string, double> layer_self_seconds;
  int64_t requests = 0;  ///< request trees
};
TraceSummary Summarize(const std::vector<const Tracer*>& tracers);

/// Writes every span as one tab-separated line:
/// thread, request, index, parent, name, start_ns, end_ns (indexes are
/// per thread).
void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

// --- QueryStats helpers ------------------------------------------------------

/// Wall seconds of every clause whose label starts with `prefix`.
double ClauseSeconds(const xqa::QueryStats& stats, const std::string& prefix);

// --- Ledger ------------------------------------------------------------------

struct Lineitem {
  std::string shipinstruct, shipmode, price;
  int64_t price_cents = 0;
};
struct Book {
  std::string publisher;  ///< empty: no publisher element
  int year = 0;
  int64_t price_cents = 0;
  int64_t discount_cents = -1;  ///< -1: no discount element
  double price = 0.0;           ///< the lexical price as a double
};
struct Sale {
  int year = 0;
  std::string region, state, product;
  int quantity = 0;
  int64_t price_cents = 0;
  double price = 0.0;
};
struct LedgerDoc {
  std::string collection;  ///< "-" for documents only written later
  std::string uri, file;
  std::vector<Book> books;
  std::vector<Sale> sales;
  std::vector<Lineitem> lineitems;
};
struct Variant {
  std::string new_uri, new_file, replace_uri, replace_file, remove_uri;
};
struct Ledger {
  std::map<std::string, std::string> params;
  std::vector<LedgerDoc> docs;
  std::vector<Variant> variants;
  const LedgerDoc& DocByFile(const std::string& file) const;
};
Ledger ReadLedger(const std::string& data_dir);

std::string ReadFile(const std::string& path);
int64_t ParseCents(const std::string& lexical);  ///< "12.34" -> 1234

// --- Result parsing for reference checks -------------------------------------

/// One element of a serialized result: its attributes and the text of each
/// simple child element (repeated children keep the last; absent children
/// are absent; an empty child maps to "").
struct ResultRow {
  std::map<std::string, std::string> attributes;
  std::map<std::string, std::string> children;
};
/// Every top-level `<tag ...>...</tag>` of `serialized`, in order. The
/// results of the benchmark's queries are flat, so a child element's content
/// is its text. Independent of the engine's own XML code.
std::vector<ResultRow> ParseRows(const std::string& serialized,
                                 const std::string& tag);

/// Parses a serialized xs:double / xs:decimal / xs:integer.
double ParseNumber(const std::string& text);

/// Prints `what` to stderr and remembers that the run produced a wrong
/// answer; the run still ends normally and reports correct=false.
void CheckFailed(const std::string& what);
bool AllChecksPassed();

#define PB_CHECK(cond, what)                       \
  do {                                             \
    if (!(cond)) ::perfbench::CheckFailed(what);   \
  } while (0)

// --- Report ------------------------------------------------------------------

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The one-line result object the benchmark prints last.
  std::string Json(int64_t attempted, int64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Peak resident set size of this process, MiB (getrusage).
double PeakRssMiB();

/// Total bytes of the regular files directly inside `dir`, optionally only
/// those whose name starts with `prefix`.
int64_t DirectoryBytes(const std::string& dir, const std::string& prefix = "");

}  // namespace perfbench

#endif  // XQA_PERFBENCH_BENCH_H_
