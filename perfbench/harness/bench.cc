#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

int HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  if (rank > 0) --rank;
  return sorted[std::min(rank, sorted.size() - 1)];
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

// --- Tracing ---------------------------------------------------------------

namespace {
int64_t Nanos(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
}  // namespace

int Tracer::Begin(const char* name, Clock::time_point start) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = Nanos(start);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  spans_.push_back(span);
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int index, Clock::time_point end) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = Nanos(end);
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  start_ = Clock::now();
  if (tracer_ != nullptr) index_ = tracer_->Begin(name, start_);
}

double Scope::Stop() {
  if (stopped_) return seconds_;
  stopped_ = true;
  Clock::time_point end = Clock::now();
  seconds_ = SecondsBetween(start_, end);
  if (tracer_ != nullptr) tracer_->End(index_, end);
  return seconds_;
}

TraceSummary Summarize(const std::vector<const Tracer*>& tracers) {
  TraceSummary summary;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    // Parents precede their children, so one forward pass finds each span's
    // root; self times are summed over request trees only.
    std::vector<int64_t> child_ns(spans.size(), 0);
    std::vector<size_t> root(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      root[i] = span.parent < 0 ? i : root[static_cast<size_t>(span.parent)];
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (std::string(spans[root[i]].name) != "request.op") continue;
      std::string name = span.name;
      double duration = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      if (span.parent < 0) ++summary.requests;
      summary.layer_self_seconds[name.substr(0, name.find('.'))] +=
          duration - static_cast<double>(child_ns[i]) * 1e-9;
    }
  }
  return summary;
}

void WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write span file %s\n", path.c_str());
    return;
  }
  out << "thread\trequest\tindex\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << t << '\t' << s.request << '\t' << i << '\t' << s.parent << '\t'
          << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
}

double ClauseSeconds(const xqa::QueryStats& stats, const std::string& prefix) {
  double total = 0.0;
  for (const xqa::ClauseStats& clause : stats.clauses) {
    if (clause.label.compare(0, prefix.size(), prefix) == 0) {
      total += clause.wall_seconds;
    }
  }
  return total;
}

// --- Ledger ------------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int64_t ParseCents(const std::string& lexical) {
  size_t dot = lexical.find('.');
  if (dot == std::string::npos || lexical.size() != dot + 3) {
    throw std::runtime_error("bad money value in ledger: " + lexical);
  }
  return std::stoll(lexical.substr(0, dot)) * 100 +
         std::stoll(lexical.substr(dot + 1));
}

namespace {
std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t tab = line.find('\t', start);
    fields.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) break;
    start = tab + 1;
  }
  return fields;
}
}  // namespace

const LedgerDoc& Ledger::DocByFile(const std::string& file) const {
  for (const LedgerDoc& doc : docs) {
    if (doc.file == file) return doc;
  }
  throw std::runtime_error("ledger has no document " + file);
}

Ledger ReadLedger(const std::string& data_dir) {
  Ledger ledger;
  std::istringstream in(ReadFile(data_dir + "/ledger.tsv"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> f = SplitTabs(line);
    const std::string& kind = f[0];
    auto need = [&](size_t n) {
      if (f.size() != n) throw std::runtime_error("bad ledger line: " + line);
    };
    auto current = [&]() -> LedgerDoc& {
      if (ledger.docs.empty()) {
        throw std::runtime_error("ledger record before any document");
      }
      return ledger.docs.back();
    };
    if (kind == "P") {
      need(3);
      ledger.params[f[1]] = f[2];
    } else if (kind == "D") {
      need(4);
      LedgerDoc doc;
      doc.collection = f[1];
      doc.uri = f[2];
      doc.file = f[3];
      ledger.docs.push_back(std::move(doc));
    } else if (kind == "L") {
      need(5);
      Lineitem item;
      item.shipinstruct = f[1];
      item.shipmode = f[2];
      item.price = f[3];
      item.price_cents = ParseCents(f[3]);
      current().lineitems.push_back(std::move(item));
    } else if (kind == "B") {
      need(5);
      Book book;
      book.publisher = f[1] == "-" ? "" : f[1];
      book.year = std::stoi(f[2]);
      book.price_cents = ParseCents(f[3]);
      book.price = std::strtod(f[3].c_str(), nullptr);
      book.discount_cents = f[4] == "-" ? -1 : ParseCents(f[4]);
      current().books.push_back(std::move(book));
    } else if (kind == "S") {
      need(7);
      Sale sale;
      sale.year = std::stoi(f[1]);
      sale.region = f[2];
      sale.state = f[3];
      sale.product = f[4];
      sale.quantity = std::stoi(f[5]);
      sale.price_cents = ParseCents(f[6]);
      sale.price = std::strtod(f[6].c_str(), nullptr);
      current().sales.push_back(std::move(sale));
    } else if (kind == "V") {
      need(7);
      ledger.variants.push_back({f[2], f[3], f[4], f[5], f[6]});
    } else {
      throw std::runtime_error("bad ledger line: " + line);
    }
  }
  return ledger;
}

// --- Result parsing ----------------------------------------------------------

namespace {

// Parses the attributes of a start tag body `a="x" b="y"`.
void ParseAttributes(const std::string& text,
                     std::map<std::string, std::string>* out) {
  size_t pos = 0;
  while (true) {
    size_t eq = text.find("=\"", pos);
    if (eq == std::string::npos) return;
    size_t name_start = text.find_last_of(' ', eq);
    name_start = name_start == std::string::npos ? 0 : name_start + 1;
    size_t close = text.find('"', eq + 2);
    if (close == std::string::npos) return;
    (*out)[text.substr(name_start, eq - name_start)] =
        text.substr(eq + 2, close - eq - 2);
    pos = close + 1;
  }
}

}  // namespace

std::vector<ResultRow> ParseRows(const std::string& serialized,
                                 const std::string& tag) {
  std::vector<ResultRow> rows;
  const std::string open = "<" + tag;
  const std::string close = "</" + tag + ">";
  size_t pos = 0;
  while (true) {
    size_t start = serialized.find(open, pos);
    if (start == std::string::npos) break;
    char next = start + open.size() < serialized.size()
                    ? serialized[start + open.size()]
                    : '\0';
    if (next != '>' && next != ' ' && next != '/') {
      pos = start + open.size();
      continue;
    }
    size_t head_end = serialized.find('>', start);
    if (head_end == std::string::npos) break;
    ResultRow row;
    ParseAttributes(serialized.substr(start + open.size(),
                                      head_end - start - open.size()),
                    &row.attributes);
    if (serialized[head_end - 1] == '/') {
      rows.push_back(std::move(row));
      pos = head_end + 1;
      continue;
    }
    size_t end = serialized.find(close, head_end);
    if (end == std::string::npos) break;
    // Children: <name>text</name> or <name/>.
    size_t c = head_end + 1;
    while (c < end) {
      size_t lt = serialized.find('<', c);
      if (lt == std::string::npos || lt >= end) break;
      size_t gt = serialized.find('>', lt);
      std::string head = serialized.substr(lt + 1, gt - lt - 1);
      if (!head.empty() && head.back() == '/') {
        head.pop_back();
        row.children[head.substr(0, head.find(' '))] = "";
        c = gt + 1;
        continue;
      }
      std::string name = head.substr(0, head.find(' '));
      size_t child_end = serialized.find("</" + name + ">", gt);
      if (child_end == std::string::npos || child_end > end) break;
      row.children[name] = serialized.substr(gt + 1, child_end - gt - 1);
      c = child_end + name.size() + 3;
    }
    rows.push_back(std::move(row));
    pos = end + close.size();
  }
  return rows;
}

double ParseNumber(const std::string& text) {
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    CheckFailed("not a number in a result: '" + text + "'");
    return std::nan("");
  }
  return value;
}

namespace {
std::atomic<int64_t> g_check_failures{0};
}

void CheckFailed(const std::string& what) {
  // Report the first few mismatches in full; the count is what matters.
  if (g_check_failures.fetch_add(1) < 10) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

bool AllChecksPassed() { return g_check_failures.load() == 0; }

// --- Report ------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& entry : metrics_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

std::string Report::Json(int64_t attempted, int64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (AllChecksPassed() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics_) {
    double value = value_unit.first;
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << value_unit.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t DirectoryBytes(const std::string& dir, const std::string& prefix) {
  int64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename().string().compare(0, prefix.size(), prefix) !=
        0) {
      continue;
    }
    total += static_cast<int64_t>(entry.file_size());
  }
  return total;
}

}  // namespace perfbench
