#include "core/report.hpp"

#include <ostream>
#include <sstream>

namespace wmsn::core {

std::string summaryLine(const RunResult& r) {
  std::ostringstream os;
  os << r.protocol << ": pdr=" << TextTable::num(r.deliveryRatio, 3)
     << " hops=" << TextTable::num(r.meanHops, 2)
     << " latency=" << TextTable::num(r.meanLatencyMs, 1) << "ms"
     << " energy=" << TextTable::num(r.sensorEnergy.totalJ * 1e3, 2) << "mJ"
     << " D2=" << TextTable::num(r.sensorEnergy.varianceD2 * 1e6, 3);
  if (r.firstDeathObserved)
    os << " firstDeathRound=" << r.firstDeathRound;
  return os.str();
}

TextTable comparisonTable(const std::vector<RunResult>& results,
                          const std::vector<std::string>& labels) {
  TextTable table({"run", "PDR", "mean hops", "latency ms", "ctrl frames",
                   "data frames", "energy mJ", "D2 (uJ^2)", "Jain",
                   "lifetime (rounds)"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const std::string label =
        i < labels.size() ? labels[i] : r.protocol;
    table.addRow({label, TextTable::num(r.deliveryRatio, 3),
                  TextTable::num(r.meanHops, 2),
                  TextTable::num(r.meanLatencyMs, 1),
                  TextTable::num(r.controlFrames),
                  TextTable::num(r.dataFrames),
                  TextTable::num(r.sensorEnergy.totalJ * 1e3, 2),
                  TextTable::num(r.sensorEnergy.varianceD2 * 1e6, 3),
                  TextTable::num(r.sensorEnergy.jainFairness, 3),
                  r.firstDeathObserved
                      ? TextTable::num(r.firstDeathRound)
                      : std::string(">").append(
                            TextTable::num(r.roundsCompleted))});
  }
  return table;
}

TextTable congestionTable(const std::vector<RunResult>& results,
                          const std::vector<std::string>& labels) {
  TextTable table({"run", "workload", "offered pps", "goodput pps", "PDR",
                   "queue drops", "mac drops", "peak queue", "mean queue"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const std::string label = i < labels.size() ? labels[i] : r.protocol;
    table.addRow({label, r.workload, TextTable::num(r.offeredPps, 2),
                  TextTable::num(r.goodputPps, 2),
                  TextTable::num(r.deliveryRatio, 3),
                  TextTable::num(r.queueDrops), TextTable::num(r.macDrops),
                  TextTable::num(static_cast<std::uint64_t>(r.peakQueueDepth)),
                  TextTable::num(r.meanQueueDepth, 3)});
  }
  return table;
}

TextTable gatewayLoadTable(const RunResult& result) {
  TextTable table({"gateway", "deliveries", "share %"});
  const double total = static_cast<double>(result.delivered);
  for (const auto& [gw, count] : result.perGatewayDeliveries) {
    table.addRow({TextTable::num(static_cast<std::uint64_t>(gw)),
                  TextTable::num(count),
                  TextTable::num(total > 0
                                     ? 100.0 * static_cast<double>(count) /
                                           total
                                     : 0.0,
                                 1)});
  }
  return table;
}

void printSection(std::ostream& os, const std::string& title,
                  const TextTable& table) {
  os << "== " << title << " ==\n" << table.str() << "\n";
}

}  // namespace wmsn::core
