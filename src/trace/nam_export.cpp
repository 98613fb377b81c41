#include "trace/nam_export.hpp"

#include <algorithm>
#include <ostream>

namespace eblnet::trace {
namespace {

void emit_position(std::ostream& os, const std::string& t, std::size_t id,
                   mobility::Vec2 pos) {
  os << "n -t " << t << " -s " << id << " -x " << pos.x << " -y " << pos.y
     << " -S UP -v circle -c black\n";
}

}  // namespace

void export_nam(std::ostream& os,
                const std::vector<const mobility::MobilityModel*>& mobility,
                const TraceStore& records, sim::Time duration, NamExportConfig config) {
  os << "V -t * -v 1.0a5 -a 0\n";
  os << "W -t * -x " << config.arena_width << " -y " << config.arena_height << "\n";

  // Initial placement.
  for (std::size_t i = 0; i < mobility.size(); ++i) {
    if (mobility[i] == nullptr) continue;
    emit_position(os, "*", i, mobility[i]->position_at(sim::Time::zero()));
  }

  // Interleave position samples and packet events in time order. Packet
  // events come from the MAC layer (one per actual radio tx/rx/drop).
  std::size_t rec_idx = 0;
  const auto flush_events_until = [&](sim::Time t) {
    while (rec_idx < records.size() && records[rec_idx].t <= t) {
      const auto& r = records[rec_idx++];
      if (r.layer != net::TraceLayer::kMac && r.action != net::TraceAction::kDrop) continue;
      const std::string ts = r.t.to_string();
      switch (r.action) {
        case net::TraceAction::kSend:
          os << "h -t " << ts << " -s " << r.node << " -d -1 -p " << net::to_string(r.type)
             << " -e " << r.size << " -i " << r.uid << "\n";
          break;
        case net::TraceAction::kRecv:
          os << "r -t " << ts << " -s " << r.node << " -d " << r.node << " -p "
             << net::to_string(r.type) << " -e " << r.size << " -i " << r.uid << "\n";
          break;
        case net::TraceAction::kDrop:
          os << "d -t " << ts << " -s " << r.node << " -d -1 -p " << net::to_string(r.type)
             << " -e " << r.size << " -i " << r.uid << "\n";
          break;
        case net::TraceAction::kForward:
          break;
      }
    }
  };

  for (sim::Time t = config.sample_interval; t <= duration; t += config.sample_interval) {
    flush_events_until(t);
    for (std::size_t i = 0; i < mobility.size(); ++i) {
      if (mobility[i] == nullptr) continue;
      // Only emit updates for nodes that are actually moving — Nam keeps
      // static nodes where they are.
      if (mobility[i]->velocity_at(t).length() > 0.0 ||
          mobility[i]->velocity_at(t - config.sample_interval).length() > 0.0) {
        emit_position(os, t.to_string(), i, mobility[i]->position_at(t));
      }
    }
  }
  flush_events_until(duration);
}

}  // namespace eblnet::trace
