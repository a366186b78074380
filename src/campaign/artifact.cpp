#include "campaign/artifact.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <variant>

#include "campaign/stats.hpp"
#include "util/json.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace wmsn::campaign {

namespace {

/// The per-cell aggregate metrics, in artifact order (recordField keys).
constexpr const char* kCellMetrics[] = {
    "pdr",         "mean_latency_ms", "p95_latency_ms", "mean_hops",
    "goodput_pps", "lifetime_s",      "energy_total_j", "pdr_during_outage",
};

/// The paired-delta metrics: PDR, latency and lifetime.
constexpr const char* kDeltaMetrics[] = {"pdr", "mean_latency_ms",
                                         "lifetime_s"};

void appendAggregate(std::ostream& os, const Aggregate& a) {
  os << "{\"n\": " << a.n << ", \"mean\": " << jsonNumber(a.mean)
     << ", \"stddev\": " << jsonNumber(a.stddev)
     << ", \"ci95\": " << jsonNumber(a.ci95)
     << ", \"min\": " << jsonNumber(a.min)
     << ", \"max\": " << jsonNumber(a.max) << "}";
}

void appendValue(std::ostream& os, double v) { os << jsonNumber(v); }
void appendValue(std::ostream& os, bool v) { os << (v ? "true" : "false"); }
void appendValue(std::ostream& os, std::uint64_t v) { os << v; }
void appendValue(std::ostream& os, std::uint32_t v) { os << v; }

void appendRun(std::ostream& os, const RunRecord& r) {
  os << "      {\"id\": \"" << jsonEscape(r.id) << "\", \"cell\": \""
     << jsonEscape(r.cell) << "\", \"seed\": " << r.seed
     << ", \"seed_index\": " << r.seedIndex << ", \"status\": \""
     << (r.ok() ? "ok" : "failed") << "\"";
  if (!r.ok()) {
    os << ", \"error\": \"" << jsonEscape(r.error) << "\"}";
    return;
  }
  using G = RecordField::Group;
  for (const RecordField& field : recordFields()) {
    const bool shown = field.group == G::kAlways ||
                       (field.group == G::kTrace && r.traceSpans > 0) ||
                       (field.group == G::kPerf && r.perfCaptured);
    if (!shown) continue;
    os << (field.breakBefore ? ",\n       \"" : ", \"") << field.key << "\": ";
    std::visit([&](auto m) { appendValue(os, r.*m); }, field.member);
  }
  os << "}";
}

struct Cell {
  std::string name;
  std::vector<std::string> labels;
  std::vector<const RunRecord*> ok;  ///< seed-index order (= plan order)
  std::size_t failed = 0;
};

/// The plan's cells in first-occurrence (plan) order, each with its ok runs
/// and its count of failed ones. Every planned run must have a record.
std::vector<Cell> groupCells(const std::vector<PlannedRun>& plan,
                             const std::map<std::string, RunRecord>& records) {
  std::vector<Cell> cells;
  std::map<std::string, std::size_t> cellIndex;
  for (const PlannedRun& run : plan) {
    const auto it = records.find(run.id);
    WMSN_REQUIRE_MSG(it != records.end(),
                     "campaign artifact is missing run: " + run.id);
    const auto [ci, inserted] = cellIndex.emplace(run.cell, cells.size());
    if (inserted) cells.push_back(Cell{run.cell, run.axisLabels, {}, 0});
    Cell& cell = cells[ci->second];
    if (it->second.ok())
      cell.ok.push_back(&it->second);
    else
      ++cell.failed;
  }
  return cells;
}

/// `field` aggregated over the cell's ok runs.
Aggregate cellAggregate(const Cell& cell, const RecordField& field) {
  std::vector<double> samples;
  samples.reserve(cell.ok.size());
  for (const RunRecord* r : cell.ok) samples.push_back(field.number(*r));
  return aggregate(samples);
}

int compareAxisIndex(const CampaignSpec& spec) {
  if (spec.compareKey.empty()) return -1;
  for (std::size_t i = 0; i < spec.axes.size(); ++i)
    if (spec.axes[i].key == spec.compareKey) return static_cast<int>(i);
  return -1;
}

}  // namespace

std::string renderArtifact(const CampaignSpec& spec,
                           const std::vector<PlannedRun>& plan,
                           const std::map<std::string, RunRecord>& records) {
  const std::vector<Cell> cells = groupCells(plan, records);
  std::size_t failedTotal = 0;
  for (const Cell& cell : cells) failedTotal += cell.failed;

  // (context without the compare axis, compare label, seedIndex) -> ok record
  std::map<std::tuple<std::string, std::string, std::uint32_t>,
           const RunRecord*>
      byPair;
  std::vector<std::string> contexts;  // first-occurrence order
  const int compareAxis = compareAxisIndex(spec);
  if (compareAxis >= 0) {
    for (const Cell& cell : cells) {
      std::string context;
      for (std::size_t a = 0; a < cell.labels.size(); ++a) {
        if (static_cast<int>(a) == compareAxis) continue;
        if (!context.empty()) context += '/';
        context += cell.labels[a];
      }
      if (context.empty()) context = "-";
      const std::string& cmpLabel =
          cell.labels[static_cast<std::size_t>(compareAxis)];
      if (std::find(contexts.begin(), contexts.end(), context) ==
          contexts.end())
        contexts.push_back(context);
      for (const RunRecord* r : cell.ok)
        byPair.emplace(std::make_tuple(context, cmpLabel, r->seedIndex), r);
    }
  }

  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"wmsn-campaign-v1\",\n";
  os << "  \"name\": \"" << jsonEscape(spec.name) << "\",\n";
  os << "  \"spec_fingerprint\": \"" << spec.fingerprint() << "\",\n";
  os << "  \"seed_base\": " << spec.seedBase << ",\n";
  os << "  \"repeats\": " << spec.repeats << ",\n";
  os << "  \"compare\": \"" << jsonEscape(spec.compareKey) << "\",\n";
  os << "  \"axes\": [";
  for (std::size_t i = 0; i < spec.axes.size(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"key\": \"" << jsonEscape(spec.axes[i].key) << "\", \"labels\": [";
    for (std::size_t v = 0; v < spec.axes[i].values.size(); ++v) {
      if (v > 0) os << ", ";
      os << "\"" << jsonEscape(spec.axes[i].values[v].label) << "\"";
    }
    os << "]}";
  }
  os << "],\n";
  os << "  \"runs_total\": " << plan.size() << ",\n";
  os << "  \"runs_failed\": " << failedTotal << ",\n";

  os << "  \"runs\": [\n";
  for (std::size_t i = 0; i < plan.size(); ++i) {
    appendRun(os, records.at(plan[i].id));
    os << (i + 1 < plan.size() ? ",\n" : "\n");
  }
  os << "  ],\n";

  os << "  \"cells\": [\n";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    os << "      {\"cell\": \"" << jsonEscape(cell.name) << "\", \"labels\": {";
    for (std::size_t a = 0; a < spec.axes.size() && a < cell.labels.size();
         ++a) {
      if (a > 0) os << ", ";
      os << "\"" << jsonEscape(spec.axes[a].key) << "\": \""
         << jsonEscape(cell.labels[a]) << "\"";
    }
    os << "}, \"n_ok\": " << cell.ok.size()
       << ", \"n_failed\": " << cell.failed << ",\n       \"metrics\": {";
    bool firstMetric = true;
    for (const char* name : kCellMetrics) {
      if (!firstMetric) os << ", ";
      firstMetric = false;
      os << "\n        \"" << name << "\": ";
      appendAggregate(os, cellAggregate(cell, recordField(name)));
    }
    os << "}}";
    os << (c + 1 < cells.size() ? ",\n" : "\n");
  }
  os << "  ],\n";

  // Paired-seed protocol-vs-protocol deltas along the compare axis: every
  // ordered pair (a earlier than b in axis declaration), paired by seed
  // index within each context (the other axes' labels), ok runs only.
  os << "  \"deltas\": [";
  bool firstDelta = true;
  if (compareAxis >= 0) {
    const Axis& axis = spec.axes[static_cast<std::size_t>(compareAxis)];
    for (const std::string& context : contexts) {
      for (std::size_t ia = 0; ia < axis.values.size(); ++ia) {
        for (std::size_t ib = ia + 1; ib < axis.values.size(); ++ib) {
          const std::string& la = axis.values[ia].label;
          const std::string& lb = axis.values[ib].label;
          // Collect seed-paired ok runs.
          std::vector<std::pair<const RunRecord*, const RunRecord*>> pairs;
          for (std::uint32_t s = 0; s < spec.repeats; ++s) {
            const auto pa = byPair.find(std::make_tuple(context, la, s));
            const auto pb = byPair.find(std::make_tuple(context, lb, s));
            if (pa == byPair.end() || pb == byPair.end()) continue;
            pairs.emplace_back(pa->second, pb->second);
          }
          os << (firstDelta ? "\n" : ",\n");
          firstDelta = false;
          os << "      {\"axis\": \"" << jsonEscape(axis.key)
             << "\", \"context\": \"" << jsonEscape(context) << "\", \"a\": \""
             << jsonEscape(la) << "\", \"b\": \"" << jsonEscape(lb)
             << "\", \"pairs\": " << pairs.size() << ",\n       \"metrics\": {";
          bool firstMetric = true;
          for (const char* name : kDeltaMetrics) {
            const RecordField& field = recordField(name);
            std::size_t pos = 0;
            std::size_t neg = 0;
            std::size_t ties = 0;
            double sum = 0.0;
            for (const auto& [ra, rb] : pairs) {
              const double d = field.number(*rb) - field.number(*ra);
              sum += d;
              if (d > 0.0)
                ++pos;
              else if (d < 0.0)
                ++neg;
              else
                ++ties;
            }
            const double meanDelta =
                pairs.empty() ? 0.0 : sum / static_cast<double>(pairs.size());
            if (!firstMetric) os << ", ";
            firstMetric = false;
            os << "\n        \"" << name
               << "\": {\"mean_delta\": " << jsonNumber(meanDelta)
               << ", \"positive\": " << pos << ", \"negative\": " << neg
               << ", \"ties\": " << ties
               << ", \"sign_p\": " << jsonNumber(signTestTwoSided(pos, neg))
               << "}";
          }
          os << "}}";
        }
      }
    }
  }
  os << (firstDelta ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

std::string renderCellTable(const std::vector<PlannedRun>& plan,
                            const std::map<std::string, RunRecord>& records) {
  const std::vector<Cell> cells = groupCells(plan, records);
  const auto capturedPerf = [](const Cell& cell) {
    return std::any_of(cell.ok.begin(), cell.ok.end(),
                       [](const RunRecord* r) { return r->perfCaptured; });
  };

  std::vector<const RecordField*> columns;
  for (const char* name : kCellMetrics) columns.push_back(&recordField(name));
  if (std::any_of(cells.begin(), cells.end(), capturedPerf))
    for (const RecordField& field : recordFields())
      if (field.group == RecordField::Group::kPerf) columns.push_back(&field);

  std::vector<std::string> header{"cell", "n_ok", "n_failed"};
  for (const RecordField* field : columns) header.emplace_back(field->key);
  TextTable table(std::move(header));
  for (const Cell& cell : cells) {
    std::vector<std::string> row{cell.name, TextTable::num(cell.ok.size()),
                                 TextTable::num(cell.failed)};
    for (const RecordField* field : columns) {
      const bool shown =
          !cell.ok.empty() &&
          (field->group != RecordField::Group::kPerf || capturedPerf(cell));
      row.push_back(shown ? TextTable::num(cellAggregate(cell, *field).mean, 3)
                          : "-");
    }
    table.addRow(std::move(row));
  }
  return table.str();
}

}  // namespace wmsn::campaign
