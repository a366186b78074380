#include "fault/plan.hpp"

#include <cctype>

#include "util/parse.hpp"
#include "util/require.hpp"

namespace wmsn::fault {

std::string toString(FaultTargetKind kind) {
  switch (kind) {
    case FaultTargetKind::kSensor: return "sensor";
    case FaultTargetKind::kGateway: return "gateway";
  }
  return "unknown";
}

double GilbertElliottParams::steadyStateLoss() const {
  const double denom = pGoodToBad + pBadToGood;
  if (denom <= 0.0) return lossGood;
  const double piBad = pGoodToBad / denom;
  return piBad * lossBad + (1.0 - piBad) * lossGood;
}

namespace {

FaultEvent parseEvent(const std::string& item) {
  const std::string what = "fault event '" + item + "'";
  FaultEvent event;
  std::size_t pos = 0;
  if (item.rfind("gw", 0) == 0) {
    event.target = FaultTargetKind::kGateway;
    pos = 2;
  } else if (!item.empty() && item[0] == 's') {
    event.target = FaultTargetKind::kSensor;
    pos = 1;
  } else {
    throw PreconditionError(what + ": expected 's<n>' or 'gw<n>' target");
  }

  std::size_t digits = 0;
  while (pos + digits < item.size() &&
         std::isdigit(static_cast<unsigned char>(item[pos + digits])))
    ++digits;
  WMSN_REQUIRE_MSG(digits > 0, what + ": missing target ordinal");
  event.ordinal = parseNumber<std::size_t>(
      what + " ordinal", std::string_view(item).substr(pos, digits));
  pos += digits;

  if (pos < item.size() && item[pos] == '+') {
    event.recover = true;
    ++pos;
  }
  WMSN_REQUIRE_MSG(pos < item.size() && item[pos] == '@',
                   what + ": expected '@<round>'");
  event.round = parseNumber<std::uint32_t>(
      what + " round", std::string_view(item).substr(pos + 1));
  return event;
}

}  // namespace

std::vector<FaultEvent> parseFaultPlan(const std::string& spec) {
  std::vector<FaultEvent> events;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    if (!item.empty()) events.push_back(parseEvent(item));
    if (end == spec.size()) break;
    start = end + 1;
  }
  WMSN_REQUIRE_MSG(!events.empty(),
                   "fault plan '" + spec + "' contains no events");
  return events;
}

}  // namespace wmsn::fault
