#pragma once

/// \file eblnet.hpp
/// Umbrella header: the whole EBLNet public API in one include. Larger
/// programs should include the specific module headers instead; examples
/// and quick experiments can start here.

// Engine
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"

// Statistics
#include "stats/confidence.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "stats/time_series.hpp"

// Packets, nodes, environment
#include "net/env.hpp"
#include "net/layers.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/trace_sink.hpp"

// Mobility
#include "mobility/mobility_model.hpp"
#include "mobility/platoon.hpp"
#include "mobility/vehicle.hpp"
#include "mobility/vec2.hpp"

// Radio
#include "phy/fhss.hpp"
#include "phy/propagation.hpp"
#include "phy/wireless_phy.hpp"

// Queues, MAC, routing, transport, traffic
#include "app/traffic.hpp"
#include "mac/arp.hpp"
#include "mac/mac_80211.hpp"
#include "mac/mac_tdma.hpp"
#include "queue/drop_tail.hpp"
#include "queue/red.hpp"
#include "routing/aodv.hpp"
#include "routing/dsdv.hpp"
#include "routing/static_routing.hpp"
#include "transport/tcp_sender.hpp"
#include "transport/tcp_sink.hpp"
#include "transport/udp.hpp"

// Tracing and analysis
#include "trace/delay_analyzer.hpp"
#include "trace/nam_export.hpp"
#include "trace/throughput_monitor.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_manager.hpp"

// The paper: EBL application, scenario, trials, safety models
#include "core/ebl_app.hpp"
#include "core/flood.hpp"
#include "core/reactor.hpp"
#include "core/report.hpp"
#include "core/rsu.hpp"
#include "core/runner.hpp"
#include "core/safety.hpp"
#include "core/scenario.hpp"
#include "core/scenario_builder.hpp"
#include "core/trial.hpp"
