#pragma once

#include <iosfwd>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "net/trace_sink.hpp"
#include "trace/trace_store.hpp"

namespace eblnet::trace {

/// Options for the Nam animation export.
struct NamExportConfig {
  /// How often moving nodes' positions are re-sampled into the file.
  sim::Time sample_interval{sim::Time::milliseconds(500)};
  /// Nam needs a fixed wireless arena; events outside are clipped by Nam.
  double arena_width{600.0};
  double arena_height{600.0};
};

/// Writes a Nam-style animation of a finished simulation: node placement
/// and motion from the mobility models, plus MAC-level send/receive/drop
/// events from the trace — the counterpart of the `nam.exe` step in the
/// paper's NS-2 workflow. `mobility[i]` is node i's mobility model (null
/// entries are skipped). The subset of the Nam grammar emitted:
///
///   n  -t <t> -s <id> -x <x> -y <y>     node creation / position update
///   h  -t <t> -s <src> -d <dst> ...     packet leaves a node (MAC send)
///   r  -t <t> -s <src> -d <dst> ...     packet received (MAC recv)
///   d  -t <t> -s <node> ...             packet dropped
void export_nam(std::ostream& os,
                const std::vector<const mobility::MobilityModel*>& mobility,
                const TraceStore& records, sim::Time duration, NamExportConfig config = {});

}  // namespace eblnet::trace
