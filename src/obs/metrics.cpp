#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/require.hpp"

namespace wmsn::obs {

namespace {

using wmsn::jsonEscape;
using wmsn::jsonNumber;

void appendLabels(std::ostringstream& os, const Labels& labels) {
  os << "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) os << ",";
    os << "\"" << jsonEscape(labels[i].first) << "\":\""
       << jsonEscape(labels[i].second) << "\"";
  }
  os << "}";
}

}  // namespace

std::string labelKey(Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  return out;
}

Histogram::Histogram(std::vector<double> upperEdges)
    : edges_(std::move(upperEdges)), counts_(edges_.size() + 1, 0) {
  WMSN_REQUIRE_MSG(!edges_.empty(), "histogram needs at least one edge");
  WMSN_REQUIRE_MSG(std::is_sorted(edges_.begin(), edges_.end()) &&
                       std::adjacent_find(edges_.begin(), edges_.end()) ==
                           edges_.end(),
                   "histogram edges must be strictly increasing");
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), x);
  ++counts_[static_cast<std::size_t>(it - edges_.begin())];
  ++count_;
  sum_ += x;
}

void Histogram::merge(const Histogram& other) {
  WMSN_REQUIRE_MSG(edges_ == other.edges_,
                   "cannot merge histograms with different bucket edges");
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

Histogram Histogram::fromState(std::vector<double> edges,
                               std::vector<std::uint64_t> counts, double sum) {
  Histogram h(std::move(edges));
  WMSN_REQUIRE_MSG(counts.size() == h.edges_.size() + 1,
                   "histogram state wants edges.size()+1 bucket counts");
  h.counts_ = std::move(counts);
  h.count_ = 0;
  for (const std::uint64_t c : h.counts_) h.count_ += c;
  h.sum_ = sum;
  return h;
}

MetricsRegistry::Entry& MetricsRegistry::lookup(const std::string& name,
                                                Labels labels) {
  std::sort(labels.begin(), labels.end());
  const std::string key = name + '\x1f' + labelKey(labels);
  const auto it = metrics_.find(key);
  if (it != metrics_.end()) return it->second;
  Entry entry{name, std::move(labels), Counter{}};
  return metrics_.emplace(key, std::move(entry)).first->second;
}

const MetricsRegistry::Entry* MetricsRegistry::find(const std::string& name,
                                                    Labels labels) const {
  const auto it = metrics_.find(name + '\x1f' + labelKey(std::move(labels)));
  return it == metrics_.end() ? nullptr : &it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  Entry& entry = lookup(name, std::move(labels));
  WMSN_REQUIRE_MSG(std::holds_alternative<Counter>(entry.metric),
                   "metric '" + name + "' already registered as another kind");
  return std::get<Counter>(entry.metric);
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  std::sort(labels.begin(), labels.end());
  const std::string key = name + '\x1f' + labelKey(labels);
  const auto it = metrics_.find(key);
  if (it == metrics_.end()) {
    Entry entry{name, std::move(labels), Gauge{}};
    return std::get<Gauge>(
        metrics_.emplace(key, std::move(entry)).first->second.metric);
  }
  WMSN_REQUIRE_MSG(std::holds_alternative<Gauge>(it->second.metric),
                   "metric '" + name + "' already registered as another kind");
  return std::get<Gauge>(it->second.metric);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> edges,
                                      Labels labels) {
  std::sort(labels.begin(), labels.end());
  const std::string key = name + '\x1f' + labelKey(labels);
  const auto it = metrics_.find(key);
  if (it == metrics_.end()) {
    Entry entry{name, std::move(labels), Histogram(std::move(edges))};
    return std::get<Histogram>(
        metrics_.emplace(key, std::move(entry)).first->second.metric);
  }
  WMSN_REQUIRE_MSG(std::holds_alternative<Histogram>(it->second.metric),
                   "metric '" + name + "' already registered as another kind");
  Histogram& h = std::get<Histogram>(it->second.metric);
  WMSN_REQUIRE_MSG(h.edges() == edges,
                   "metric '" + name + "' re-registered with different edges");
  return h;
}

const Counter* MetricsRegistry::findCounter(const std::string& name,
                                            Labels labels) const {
  const Entry* e = find(name, std::move(labels));
  return e ? std::get_if<Counter>(&e->metric) : nullptr;
}

const Gauge* MetricsRegistry::findGauge(const std::string& name,
                                        Labels labels) const {
  const Entry* e = find(name, std::move(labels));
  return e ? std::get_if<Gauge>(&e->metric) : nullptr;
}

const Histogram* MetricsRegistry::findHistogram(const std::string& name,
                                                Labels labels) const {
  const Entry* e = find(name, std::move(labels));
  return e ? std::get_if<Histogram>(&e->metric) : nullptr;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [key, theirs] : other.metrics_) {
    const auto mine = metrics_.find(key);
    if (mine == metrics_.end()) {
      metrics_.emplace(key, theirs);
      continue;
    }
    Entry& entry = mine->second;
    WMSN_REQUIRE_MSG(entry.metric.index() == theirs.metric.index(),
                     "metric '" + entry.name +
                         "' has different kinds across registries");
    if (auto* c = std::get_if<Counter>(&entry.metric)) {
      c->add(std::get<Counter>(theirs.metric).value());
    } else if (auto* g = std::get_if<Gauge>(&entry.metric)) {
      g->set(std::get<Gauge>(theirs.metric).value());
    } else {
      std::get<Histogram>(entry.metric)
          .merge(std::get<Histogram>(theirs.metric));
    }
  }
}

std::string MetricsRegistry::json() const {
  std::ostringstream os;
  os << "{\"metrics\":[";
  bool first = true;
  for (const auto& [key, entry] : metrics_) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\":\"" << jsonEscape(entry.name) << "\",\"labels\":";
    appendLabels(os, entry.labels);
    if (const auto* c = std::get_if<Counter>(&entry.metric)) {
      os << ",\"type\":\"counter\",\"value\":" << c->value();
    } else if (const auto* g = std::get_if<Gauge>(&entry.metric)) {
      os << ",\"type\":\"gauge\",\"value\":" << jsonNumber(g->value());
    } else {
      const Histogram& h = std::get<Histogram>(entry.metric);
      os << ",\"type\":\"histogram\",\"count\":" << h.count()
         << ",\"sum\":" << jsonNumber(h.sum()) << ",\"buckets\":[";
      for (std::size_t i = 0; i < h.counts().size(); ++i) {
        if (i) os << ",";
        os << "{\"le\":";
        if (i < h.edges().size())
          os << jsonNumber(h.edges()[i]);
        else
          os << "\"inf\"";
        os << ",\"count\":" << h.counts()[i] << "}";
      }
      os << "]";
    }
    os << "}";
  }
  os << "\n]}\n";
  return os.str();
}

namespace {

// Wire framing: records separated by RS (\x1e), fields by US (\x1f), label
// key/value tokens by GS (\x1d). All three are banned from metric names and
// label strings (code-authored identifiers), which keeps parsing a pair of
// splits. The first record is the format tag.
constexpr char kRecordSep = '\x1e';
constexpr char kFieldSep = '\x1f';
constexpr char kTokenSep = '\x1d';
constexpr const char* kWireTag = "wmsnmr1";

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

void requireWireSafe(const std::string& s) {
  for (const char c : s)
    WMSN_REQUIRE_MSG(static_cast<unsigned char>(c) >= 0x20,
                     "control character in metric name/label: not wire-safe");
}

}  // namespace

std::string MetricsRegistry::wire() const {
  std::string out = kWireTag;
  for (const auto& [key, entry] : metrics_) {
    requireWireSafe(entry.name);
    out += kRecordSep;
    std::string labelBlob;
    for (const auto& [k, v] : entry.labels) {
      requireWireSafe(k);
      requireWireSafe(v);
      if (!labelBlob.empty()) labelBlob += kTokenSep;
      labelBlob += k;
      labelBlob += kTokenSep;
      labelBlob += v;
    }
    if (const auto* c = std::get_if<Counter>(&entry.metric)) {
      out += 'c';
      out += kFieldSep;
      out += entry.name + kFieldSep + labelBlob + kFieldSep;
      out += std::to_string(c->value());
    } else if (const auto* g = std::get_if<Gauge>(&entry.metric)) {
      out += 'g';
      out += kFieldSep;
      out += entry.name + kFieldSep + labelBlob + kFieldSep;
      out += wireDouble(g->value());
    } else {
      const Histogram& h = std::get<Histogram>(entry.metric);
      out += 'h';
      out += kFieldSep;
      out += entry.name + kFieldSep + labelBlob + kFieldSep;
      std::string edges;
      for (const double e : h.edges()) {
        if (!edges.empty()) edges += ';';
        edges += wireDouble(e);
      }
      std::string counts;
      for (const std::uint64_t c : h.counts()) {
        if (!counts.empty()) counts += ';';
        counts += std::to_string(c);
      }
      out += edges + kFieldSep + counts + kFieldSep + wireDouble(h.sum());
    }
  }
  return out;
}

MetricsRegistry MetricsRegistry::fromWire(const std::string& wire) {
  MetricsRegistry registry;
  const std::vector<std::string> records = split(wire, kRecordSep);
  WMSN_REQUIRE_MSG(!records.empty() && records.front() == kWireTag,
                   "metrics wire blob missing '" + std::string(kWireTag) +
                       "' tag");
  for (std::size_t r = 1; r < records.size(); ++r) {
    const std::vector<std::string> fields = split(records[r], kFieldSep);
    WMSN_REQUIRE_MSG(fields.size() >= 4 && fields[0].size() == 1,
                     "malformed metrics wire record");
    const char kind = fields[0][0];
    const std::string& name = fields[1];
    Labels labels;
    if (!fields[2].empty()) {
      const std::vector<std::string> tokens = split(fields[2], kTokenSep);
      WMSN_REQUIRE_MSG(tokens.size() % 2 == 0,
                       "odd label token count in metrics wire record");
      for (std::size_t i = 0; i < tokens.size(); i += 2)
        labels.emplace_back(tokens[i], tokens[i + 1]);
    }
    if (kind == 'c') {
      WMSN_REQUIRE_MSG(fields.size() == 4, "counter wire record wants 4 fields");
      registry.counter(name, labels)
          .add(parseNumber<std::uint64_t>("metrics wire counter", fields[3]));
    } else if (kind == 'g') {
      WMSN_REQUIRE_MSG(fields.size() == 4, "gauge wire record wants 4 fields");
      registry.gauge(name, labels).set(parseWireDouble(fields[3]));
    } else if (kind == 'h') {
      WMSN_REQUIRE_MSG(fields.size() == 6,
                       "histogram wire record wants 6 fields");
      std::vector<double> edges;
      for (const std::string& e : split(fields[3], ';'))
        edges.push_back(parseWireDouble(e));
      std::vector<std::uint64_t> counts;
      for (const std::string& c : split(fields[4], ';'))
        counts.push_back(
            parseNumber<std::uint64_t>("metrics wire histogram count", c));
      registry.histogram(name, edges, labels)
          .merge(Histogram::fromState(std::move(edges), std::move(counts),
                                      parseWireDouble(fields[5])));
    } else {
      WMSN_REQUIRE_MSG(false, "unknown metrics wire record kind");
    }
  }
  return registry;
}

void MetricsRegistry::writeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << json();
  if (!out) throw std::runtime_error("failed writing " + path);
}

}  // namespace wmsn::obs
