// Tests for the observability subsystems: the SVG topology renderer and the
// per-frame observer tap on the network.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

#include "core/wmsn.hpp"
#include "util/require.hpp"
#include "util/svg.hpp"

namespace wmsn {
namespace {

// --- SvgWriter ----------------------------------------------------------------

TEST(Svg, DocumentStructure) {
  SvgWriter svg(100, 80);
  svg.circle(10, 10, 3, "#ff0000");
  svg.rect(20, 20, 5, 5, "#00ff00", "#000000", 1.0);
  svg.line(0, 0, 100, 80, "#0000ff", 2.0);
  svg.text(5, 5, "hello & <world>");
  svg.cross(50, 40, 4, "#333333");
  const std::string doc = svg.str();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  EXPECT_NE(doc.find("</svg>"), std::string::npos);
  EXPECT_NE(doc.find("<circle"), std::string::npos);
  EXPECT_NE(doc.find("<rect"), std::string::npos);
  // 1 explicit line + 2 from the cross.
  EXPECT_NE(doc.find("<line"), std::string::npos);
  // XML escaping of text content.
  EXPECT_NE(doc.find("hello &amp; &lt;world&gt;"), std::string::npos);
  EXPECT_EQ(doc.find("<world>"), std::string::npos);
}

TEST(Svg, HeatColorRamp) {
  EXPECT_EQ(SvgWriter::heatColor(0.0), "#2ca25f");   // green
  EXPECT_EQ(SvgWriter::heatColor(0.5), "#ffd92f");   // yellow
  EXPECT_EQ(SvgWriter::heatColor(1.0), "#d7301f");   // red
  EXPECT_EQ(SvgWriter::heatColor(-5.0), SvgWriter::heatColor(0.0));
  EXPECT_EQ(SvgWriter::heatColor(7.0), SvgWriter::heatColor(1.0));
}

TEST(Svg, WritesFile) {
  SvgWriter svg(10, 10);
  svg.circle(5, 5, 1, "#123456");
  const std::string path = "/tmp/wmsn_svg_test.svg";
  svg.writeFile(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_NE(first.find("<?xml"), std::string::npos);
  std::remove(path.c_str());
}

// --- topology renderer ----------------------------------------------------------

TEST(Viz, RendersAllNodeClasses) {
  core::ScenarioConfig cfg;
  cfg.sensorCount = 40;
  cfg.gatewayCount = 2;
  cfg.feasiblePlaceCount = 4;
  cfg.width = 140;
  cfg.height = 140;
  cfg.rounds = 2;
  cfg.seed = 3;
  auto scenario = core::buildScenario(cfg);
  core::Experiment experiment(*scenario);
  experiment.run();
  // Kill one sensor so the hollow-dead rendering path is exercised.
  scenario->network->node(0).kill(scenario->simulator.now());

  const std::string doc = core::renderTopology(*scenario).str();
  // 39 alive sensors (filled) + 1 dead (hollow) + crosses + 2 gateways.
  EXPECT_NE(doc.find("<circle"), std::string::npos);
  EXPECT_NE(doc.find("<rect"), std::string::npos);   // gateway squares
  EXPECT_NE(doc.find("P0"), std::string::npos);      // place labels
  EXPECT_NE(doc.find("G40"), std::string::npos);     // gateway label
  // Energy heat used at least one non-default colour.
  EXPECT_NE(doc.find("fill=\"#"), std::string::npos);
}

TEST(Viz, WriteTopologySvg) {
  core::ScenarioConfig cfg;
  cfg.sensorCount = 30;
  cfg.gatewayCount = 1;
  cfg.feasiblePlaceCount = 2;
  cfg.width = 120;
  cfg.height = 120;
  cfg.rounds = 1;
  cfg.seed = 4;
  auto scenario = core::buildScenario(cfg);
  const std::string path = "/tmp/wmsn_viz_test.svg";
  core::writeTopologySvg(*scenario, path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
}

// --- per-frame tap ---------------------------------------------------------------

/// One frame event as the network's frame-observer tap reports it.
struct FrameEvent {
  std::int64_t timeUs;
  net::NodeId node;
  bool transmit;
  net::PacketKind kind;
  std::uint64_t uid;
  bool operator==(const FrameEvent&) const = default;
};

/// Attaches a tap that appends every tx/rx frame event to `events`.
void recordFrames(core::Scenario& scenario, std::vector<FrameEvent>& events) {
  const sim::Simulator* simulator = &scenario.simulator;
  scenario.network->attachFrameObserver(
      "test-frame-recorder",
      [&events, simulator](const net::Packet& packet, net::NodeId node,
                           bool transmit) {
        events.push_back({simulator->now().us, node, transmit, packet.kind,
                          packet.uid});
      });
}

bool sawKind(const std::vector<FrameEvent>& events, net::PacketKind kind) {
  return std::any_of(events.begin(), events.end(),
                     [kind](const FrameEvent& e) { return e.kind == kind; });
}

TEST(Trace, RecordsTxAndRxEvents) {
  core::ScenarioConfig cfg;
  cfg.sensorCount = 30;
  cfg.gatewayCount = 1;
  cfg.feasiblePlaceCount = 2;
  cfg.width = 120;
  cfg.height = 120;
  cfg.rounds = 1;
  cfg.packetsPerSensorPerRound = 1;
  cfg.seed = 5;
  auto scenario = core::buildScenario(cfg);
  std::vector<FrameEvent> events;
  recordFrames(*scenario, events);
  core::Experiment experiment(*scenario);
  const auto result = experiment.run();
  EXPECT_GT(result.delivered, 0u);
  EXPECT_GT(events.size(), result.delivered);  // at least one per frame
  EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                          [](const FrameEvent& e) { return e.transmit; }));
  EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                          [](const FrameEvent& e) { return !e.transmit; }));
  EXPECT_TRUE(sawKind(events, net::PacketKind::kGatewayMove));
  EXPECT_TRUE(sawKind(events, net::PacketKind::kData));
}

TEST(Trace, DeterministicReplay) {
  auto traceOf = [] {
    core::ScenarioConfig cfg;
    cfg.sensorCount = 25;
    cfg.gatewayCount = 1;
    cfg.feasiblePlaceCount = 2;
    cfg.width = 110;
    cfg.height = 110;
    cfg.rounds = 1;
    cfg.seed = 6;
    auto scenario = core::buildScenario(cfg);
    std::vector<FrameEvent> events;
    recordFrames(*scenario, events);
    core::Experiment experiment(*scenario);
    experiment.run();
    return events;
  };
  const auto first = traceOf();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, traceOf());  // identical event streams
}

}  // namespace
}  // namespace wmsn
