#include "obs/trace_sink.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/json.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace wmsn::obs {

std::string toString(TraceFormat format) {
  switch (format) {
    case TraceFormat::kCsv: return "csv";
    case TraceFormat::kJsonl: return "jsonl";
    case TraceFormat::kNull: return "null";
  }
  return "unknown";
}

TraceFormat parseTraceFormat(const std::string& name) {
  if (name == "csv") return TraceFormat::kCsv;
  if (name == "jsonl") return TraceFormat::kJsonl;
  if (name == "null") return TraceFormat::kNull;
  WMSN_REQUIRE_MSG(false, "unknown trace format '" + name +
                              "' (expected csv|jsonl|null)");
  return TraceFormat::kCsv;  // unreachable
}

void TraceSink::writeFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << str();
  if (!out) throw std::runtime_error("failed writing " + path);
}

CsvTraceSink::CsvTraceSink()
    : csv_({"time_s", "event", "kind", "node", "hop_dst", "origin", "uid",
            "bytes"}) {}

void CsvTraceSink::onEvent(const TraceEvent& e) {
  csv_.addRow({TextTable::num(e.timeSeconds, 6), e.transmit ? "tx" : "rx",
               e.kind, TextTable::num(e.node),
               e.broadcast ? "*" : TextTable::num(e.hopDst),
               TextTable::num(e.origin), TextTable::num(e.uid),
               TextTable::num(e.bytes)});
}

void JsonlTraceSink::onEvent(const TraceEvent& e) {
  char line[256];
  if (e.broadcast) {
    std::snprintf(line, sizeof(line),
                  "{\"time_s\":%.6f,\"event\":\"%s\",\"kind\":\"%s\","
                  "\"node\":%llu,\"hop_dst\":\"*\",\"origin\":%llu,"
                  "\"uid\":%llu,\"bytes\":%llu}\n",
                  e.timeSeconds, e.transmit ? "tx" : "rx",
                  jsonEscape(e.kind).c_str(),
                  static_cast<unsigned long long>(e.node),
                  static_cast<unsigned long long>(e.origin),
                  static_cast<unsigned long long>(e.uid),
                  static_cast<unsigned long long>(e.bytes));
  } else {
    std::snprintf(line, sizeof(line),
                  "{\"time_s\":%.6f,\"event\":\"%s\",\"kind\":\"%s\","
                  "\"node\":%llu,\"hop_dst\":%llu,\"origin\":%llu,"
                  "\"uid\":%llu,\"bytes\":%llu}\n",
                  e.timeSeconds, e.transmit ? "tx" : "rx",
                  jsonEscape(e.kind).c_str(),
                  static_cast<unsigned long long>(e.node),
                  static_cast<unsigned long long>(e.hopDst),
                  static_cast<unsigned long long>(e.origin),
                  static_cast<unsigned long long>(e.uid),
                  static_cast<unsigned long long>(e.bytes));
  }
  buffer_ += line;
  ++events_;
}

std::unique_ptr<TraceSink> makeTraceSink(TraceFormat format) {
  switch (format) {
    case TraceFormat::kCsv: return std::make_unique<CsvTraceSink>();
    case TraceFormat::kJsonl: return std::make_unique<JsonlTraceSink>();
    case TraceFormat::kNull: return std::make_unique<CountingTraceSink>();
  }
  return nullptr;
}

}  // namespace wmsn::obs
