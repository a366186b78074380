#include "spans.hpp"

#include <charconv>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

std::string formatNumber(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

std::uint64_t SpanLog::begin(const std::string& name, std::uint64_t parent) {
  const auto now = Clock::now();
  spans_.push_back({spans_.size() + 1, parent, name, now, now, {}});
  return spans_.back().id;
}

void SpanLog::end(std::uint64_t id, Attrs attrs) {
  Span& span = spans_.at(id - 1);
  span.stop = Clock::now();
  span.attrs = std::move(attrs);
}

std::uint64_t SpanLog::add(const std::string& name, std::uint64_t parent,
                           Clock::time_point start, Clock::time_point stop,
                           Attrs attrs) {
  spans_.push_back(
      {spans_.size() + 1, parent, name, start, stop, std::move(attrs)});
  return spans_.back().id;
}

void SpanLog::ledger(const std::string& name, std::uint64_t parent,
                     Attrs attrs) {
  ledgers_.push_back({name, parent, std::move(attrs)});
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string attrsJson(const Attrs& attrs) {
  std::string out = "{";
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ',';
    out += quoted(attrs[i].first) + ':' + formatNumber(attrs[i].second);
  }
  return out + "}";
}

}  // namespace

void SpanLog::writeJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  std::map<std::uint64_t, double> childSeconds;
  for (const Span& s : spans_)
    if (s.parent != kNoParent)
      childSeconds[s.parent] += secondsBetween(s.start, s.stop);
  for (const Span& s : spans_) {
    const double dur = secondsBetween(s.start, s.stop);
    out << "{\"type\":\"span\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"name\":" << quoted(s.name)
        << ",\"start_s\":" << formatNumber(secondsBetween(origin, s.start))
        << ",\"dur_s\":" << formatNumber(dur)
        << ",\"self_s\":" << formatNumber(dur - childSeconds[s.id])
        << ",\"attrs\":" << attrsJson(s.attrs) << "}\n";
  }
  for (const Ledger& l : ledgers_)
    out << "{\"type\":\"ledger\",\"parent\":" << l.parent
        << ",\"name\":" << quoted(l.name)
        << ",\"attrs\":" << attrsJson(l.attrs) << "}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
