#include <gtest/gtest.h>

#include <sstream>

#include "trace/nam_export.hpp"
#include "waypoint_mobility.hpp"

namespace eblnet::trace {
namespace {

using sim::Time;
using namespace sim::time_literals;

net::TraceRecord mac_event(double t, net::TraceAction action, net::NodeId node,
                           std::uint64_t uid) {
  net::TraceRecord r;
  r.t = Time::seconds(t);
  r.action = action;
  r.layer = action == net::TraceAction::kDrop ? net::TraceLayer::kIfq : net::TraceLayer::kMac;
  r.node = node;
  r.uid = uid;
  r.type = net::PacketType::kTcpData;
  r.size = 1040;
  return r;
}

std::size_t count_lines_starting(const std::string& text, const std::string& prefix) {
  std::size_t n = 0;
  std::istringstream is{text};
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

TEST(NamExportTest, EmitsHeaderAndInitialPositions) {
  mobility::StaticMobility a{{10.0, 20.0}};
  mobility::StaticMobility b{{30.0, 40.0}};
  std::ostringstream os;
  export_nam(os, {&a, &b}, TraceStore{}, 1_s);
  const std::string out = os.str();
  EXPECT_NE(out.find("V -t *"), std::string::npos);
  EXPECT_NE(out.find("n -t * -s 0 -x 10 -y 20"), std::string::npos);
  EXPECT_NE(out.find("n -t * -s 1 -x 30 -y 40"), std::string::npos);
}

TEST(NamExportTest, StaticNodesGetNoMotionUpdates) {
  mobility::StaticMobility a{{0.0, 0.0}};
  std::ostringstream os;
  export_nam(os, {&a}, TraceStore{}, 5_s);
  // Exactly one position line: the initial placement.
  EXPECT_EQ(count_lines_starting(os.str(), "n "), 1u);
}

TEST(NamExportTest, MovingNodesAreResampled) {
  eblnet::testing::WaypointMobility m{{0.0, 0.0}};
  m.set_destination_at(Time::zero(), {100.0, 0.0}, 10.0);  // moves for 10 s
  std::ostringstream os;
  NamExportConfig cfg;
  cfg.sample_interval = 1_s;
  export_nam(os, {&m}, TraceStore{}, 5_s, cfg);
  // Initial placement + one update per elapsed second.
  EXPECT_EQ(count_lines_starting(os.str(), "n "), 1u + 5u);
  EXPECT_NE(os.str().find("-x 30"), std::string::npos);  // position at t=3
}

TEST(NamExportTest, PacketEventsAppearInOrder) {
  mobility::StaticMobility a{{0.0, 0.0}};
  TraceStore recs;
  recs.push_back(mac_event(0.2, net::TraceAction::kSend, 0, 1));
  recs.push_back(mac_event(0.3, net::TraceAction::kRecv, 1, 1));
  recs.push_back(mac_event(0.4, net::TraceAction::kDrop, 0, 2));
  std::ostringstream os;
  export_nam(os, {&a}, recs, 1_s);
  const std::string out = os.str();
  EXPECT_EQ(count_lines_starting(out, "h "), 1u);
  EXPECT_EQ(count_lines_starting(out, "r "), 1u);
  EXPECT_EQ(count_lines_starting(out, "d "), 1u);
  EXPECT_LT(out.find("h -t"), out.find("r -t"));
  EXPECT_LT(out.find("r -t"), out.find("d -t"));
}

TEST(NamExportTest, NonMacNonDropRecordsFiltered) {
  mobility::StaticMobility a{{0.0, 0.0}};
  TraceStore recs;
  net::TraceRecord agt = mac_event(0.2, net::TraceAction::kSend, 0, 1);
  agt.layer = net::TraceLayer::kAgent;
  recs.push_back(agt);
  std::ostringstream os;
  export_nam(os, {&a}, recs, 1_s);
  EXPECT_EQ(count_lines_starting(os.str(), "h "), 0u);
}

TEST(NamExportTest, NullMobilityEntriesSkipped) {
  mobility::StaticMobility a{{1.0, 2.0}};
  std::ostringstream os;
  export_nam(os, {nullptr, &a}, TraceStore{}, 1_s);
  EXPECT_EQ(count_lines_starting(os.str(), "n "), 1u);
  EXPECT_NE(os.str().find("-s 1 "), std::string::npos);
}

}  // namespace
}  // namespace eblnet::trace
