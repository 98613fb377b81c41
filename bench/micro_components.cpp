// Component micro-benchmarks (google-benchmark): event-queue throughput,
// packet copying, AODV table operations, statistics ingestion, the IDM
// law, and whole-scenario simulation rate. These bound how large a vehicular
// configuration the simulator can handle — the paper's future-work axis.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/trial.hpp"
#include "mobility/idm.hpp"
#include "mobility/traffic_flow.hpp"
#include "net/env.hpp"
#include "net/packet.hpp"
#include "phy/wireless_phy.hpp"
#include "routing/dsdv.hpp"
#include "routing/routing_table.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "stats/summary.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace eblnet;

void BM_SchedulerScheduleAndRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng{1};
  for (auto _ : state) {
    sim::Scheduler sched;
    for (std::size_t i = 0; i < n; ++i) {
      sched.schedule_at(rng.uniform_time(sim::Time::zero(), sim::Time::seconds(std::int64_t{60})),
                        [] {});
    }
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SchedulerScheduleAndRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  // Half of all events are cancelled before running — the MAC/TCP timer
  // pattern.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    std::vector<sim::EventId> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(sched.schedule_at(sim::Time::microseconds(static_cast<std::int64_t>(i)), [] {}));
    }
    for (std::size_t i = 0; i < n; i += 2) sched.cancel(ids[i]);
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SchedulerCancelHeavy)->Arg(10000);

void BM_SchedulerChurn(benchmark::State& state) {
  // Steady-state schedule/cancel/pop mix with a bounded pending set —
  // the shape of a long simulation run (events constantly armed,
  // cancelled, and fired) rather than a one-shot bulk load. Exercises
  // slot recycling: with `window` pending events the slot table stays
  // small and ids are reused continuously. A Timer re-armed later takes
  // the postpone path instead; BM_SchedulerTimerRearm times that.
  const auto window = static_cast<std::size_t>(state.range(0));
  sim::Scheduler sched;
  std::vector<sim::EventId> pending(window, sim::kInvalidEventId);
  std::int64_t t_us = 0;
  for (std::size_t i = 0; i < window; ++i) {
    pending[i] = sched.schedule_at(sim::Time::microseconds(++t_us), [] {});
  }
  std::size_t cursor = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    // Cancel one pending event, arm a replacement, then run the
    // scheduler forward one event.
    sched.cancel(pending[cursor]);
    pending[cursor] = sched.schedule_at(sim::Time::microseconds(++t_us), [] {});
    sched.run(1);
    cursor = (cursor + 1) % window;
    ops += 3;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_SchedulerChurn)->Arg(64)->Arg(1024);

void BM_SchedulerTimerRearm(benchmark::State& state) {
  // The TCP RTO shape: every event pushes one Timer later (each new ACK
  // restarts the RTO) among `window` other pending events. The timer is
  // due eight windows out, so cancel + push would leave about eight dead
  // heap entries per live one, near the paper sweep's RTO ratio (about
  // 163 entries for 21 live).
  const auto window = static_cast<std::size_t>(state.range(0));
  const auto horizon = static_cast<std::int64_t>(8 * window);
  sim::Scheduler sched;
  sim::Timer rto{sched, [] {}};
  std::int64_t t_us = 0;
  for (std::size_t i = 0; i < window; ++i) {
    sched.schedule_at(sim::Time::microseconds(++t_us), [] {});
  }
  std::uint64_t ops = 0;
  for (auto _ : state) {
    rto.schedule_at(sim::Time::microseconds(t_us + horizon));
    sched.schedule_at(sim::Time::microseconds(++t_us), [] {});
    benchmark::DoNotOptimize(sched.run(1));
    ops += 3;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_SchedulerTimerRearm)->Arg(16)->Arg(64);

/// A Timer that re-arms itself every `period` from its own handler,
/// through `lane` when one is given.
struct PeriodicTicker {
  PeriodicTicker(sim::Scheduler& sched, sim::Time period, const sim::Scheduler::Lane* lane)
      : period{period}, lane{lane}, timer{sched, [this] { rearm(); }} {}
  void rearm() {
    if (lane != nullptr) {
      timer.schedule_in(*lane);
    } else {
      timer.schedule_in(period);
    }
  }
  sim::Time period;
  const sim::Scheduler::Lane* lane;
  sim::Timer timer;
};

void BM_SchedulerPeriodicTimers(benchmark::State& state) {
  // The CBR-feeder and AODV-purge shape: n Timers each re-arm themselves
  // every 500 ms from their own handler, at phases spread over the
  // period, beside 2n one-shot events due after the run, which keep the
  // heap about as deep as highway_grid's. mode=0 re-arms with
  // schedule_in(delay), through the heap; mode=1 through a fixed-delay
  // lane; mode=2 through the lane with every timer muted, so a tick is
  // re-queued without running its handler (the idle feeder and purge
  // ticks). items_per_second is ticks per second.
  const auto n = static_cast<std::int64_t>(state.range(0));
  const std::int64_t mode = state.range(1);
  const sim::Time period = sim::Time::milliseconds(500);
  sim::Scheduler sched;
  const sim::Scheduler::Lane lane = sched.lane(period);
  for (std::int64_t i = 0; i < 2 * n; ++i) {
    sched.schedule_at(sim::Time::seconds(std::int64_t{1'000'000'000}) + sim::Time::nanoseconds(i),
                      [] {});
  }
  std::vector<std::unique_ptr<PeriodicTicker>> tickers;
  tickers.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    tickers.push_back(
        std::make_unique<PeriodicTicker>(sched, period, mode != 0 ? &lane : nullptr));
    tickers.back()->timer.schedule_at(period * i / n);
  }
  if (mode == 2) {
    // One tick each moves every timer from its first heap shot into the
    // lane, where it can be muted.
    sched.run(static_cast<std::uint64_t>(n));
    for (const auto& t : tickers) t->timer.mute();
  }
  for (auto _ : state) benchmark::DoNotOptimize(sched.run(1));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerPeriodicTimers)
    ->ArgNames({"n", "mode"})
    ->Args({1'000, 0})
    ->Args({1'000, 1})
    ->Args({1'000, 2})
    ->Args({20'000, 0})
    ->Args({20'000, 1})
    ->Args({20'000, 2});

void BM_PacketCopy(benchmark::State& state) {
  net::Packet p;
  p.uid = 7;
  p.type = net::PacketType::kTcpData;
  p.payload_bytes = 1000;
  p.ip.emplace();
  p.tcp.emplace();
  p.mac.emplace();
  for (auto _ : state) {
    net::Packet copy = p;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_PacketCopy);

void BM_AodvRouteLookup(benchmark::State& state) {
  const auto n = static_cast<net::NodeId>(state.range(0));
  routing::RoutingTable table;
  for (net::NodeId i = 0; i < n; ++i) {
    auto& e = table.get_or_create(i);
    e.valid = true;
    e.expires = sim::Time::seconds(std::int64_t{100});
    e.next_hop = i;
  }
  net::NodeId key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup_valid(key, sim::Time::seconds(std::int64_t{1})));
    key = (key + 1) % n;
  }
}
BENCHMARK(BM_AodvRouteLookup)->Arg(16)->Arg(256);

void BM_SummaryIngest(benchmark::State& state) {
  sim::Rng rng{3};
  std::vector<double> xs(10000);
  for (auto& x : xs) x = rng.uniform();
  for (auto _ : state) {
    stats::Summary s;
    for (const double x : xs) s.add(x);
    benchmark::DoNotOptimize(s.mean());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(xs.size()) * state.iterations());
}
BENCHMARK(BM_SummaryIngest);

void BM_TraceFormatRecord(benchmark::State& state) {
  net::TraceRecord r;
  r.t = sim::Time::seconds(12.345678);
  r.node = 3;
  r.uid = 123456;
  r.type = net::PacketType::kTcpData;
  r.size = 1040;
  r.ip_src = 0;
  r.ip_dst = 5;
  r.app_seq = 4242;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::format_record(r));
  }
}
BENCHMARK(BM_TraceFormatRecord);

/// Minimal MAC stub so DSDV can be driven without a radio.
class NullMac final : public net::MacLayer {
 public:
  void enqueue(net::Packet p) override { last = std::move(p); }
  void set_rx_callback(RxCallback cb) override { rx = std::move(cb); }
  void set_tx_fail_callback(TxFailCallback) override {}
  net::NodeId address() const override { return 0; }
  bool detects_link_failures() const override { return true; }
  std::vector<net::Packet> flush_next_hop(net::NodeId) override { return {}; }
  RxCallback rx;
  net::Packet last;
};

void BM_DsdvUpdateProcessing(benchmark::State& state) {
  // Cost of digesting a full-table dump with N entries.
  const auto n = static_cast<net::NodeId>(state.range(0));
  net::Env env{1};
  NullMac mac;
  routing::Dsdv agent{env, 0};
  agent.attach_mac(&mac);
  mac.set_rx_callback([&](net::Packet p) { agent.route_input(std::move(p)); });

  net::Packet update;
  update.uid = 1;
  update.type = net::PacketType::kDsdvUpdate;
  update.ip.emplace();
  update.ip->src = 1;
  update.ip->dst = net::kBroadcastAddress;
  net::DsdvUpdateHeader h;
  for (net::NodeId d = 2; d < 2 + n; ++d) h.routes.push_back({d, 100, 1});
  update.dsdv = std::move(h);
  update.prev_hop = 1;
  update.mac.emplace();
  update.mac->src = 1;

  for (auto _ : state) {
    net::Packet copy = update;
    mac.rx(std::move(copy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_DsdvUpdateProcessing)->Arg(16)->Arg(256);

void BM_ChannelBroadcast(benchmark::State& state) {
  // One broadcast through the channel: candidate selection plus delivery
  // scheduling for a highway line of N radios at 100 m spacing (roughly
  // 11 of them inside the default 550 m carrier-sense range of the
  // sender). Arg 0 is N; arg 1 selects the leg — 0: flat O(N) scan,
  // 1: spatial grid with the batched SoA cull pipeline. The pair shows
  // what the grid saves per transmit.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool grid = state.range(1) != 0;

  net::Env env{1};
  phy::ChannelParams params;
  params.grid_min_phys = grid ? 0 : static_cast<std::size_t>(-1);
  phy::Channel channel{env, std::make_shared<phy::TwoRayGround>(), params};
  std::vector<std::unique_ptr<phy::WirelessPhy>> phys;
  phys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const mobility::Vec2 pos{100.0 * static_cast<double>(i), 0.0};
    phys.push_back(std::make_unique<phy::WirelessPhy>(
        env, static_cast<net::NodeId>(i), channel, [pos] { return pos; }));
  }
  phy::WirelessPhy& sender = *phys[n / 2];

  net::Packet p;
  p.uid = 1;
  p.type = net::PacketType::kTcpData;
  p.payload_bytes = 1000;

  for (auto _ : state) {
    sender.transmit(p, sim::Time::microseconds(std::int64_t{100}));
    env.scheduler().run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelBroadcast)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({16384, 1});

void BM_IdmLaw(benchmark::State& state) {
  // The IDM law over one seeded column of 1,500 vehicles, traffic_idm's
  // mean occupancy: three quarters near the free speed, where v/v0 sits
  // in [0.99, 1.01], and a quarter slowed. Arg 0 runs the textbook law:
  // libm's pow(v/v0, 4.0) and 2√(ab) per vehicle. Arg 1 runs
  // idm_acceleration as TrafficFlow calls it: the exact x⁴ and 2√(ab)
  // computed once. Args 2 and 3 run the follower kernels TrafficFlow's
  // tick runs, two-lane and four-lane (AVX2; skipped on a host without
  // it), then idm_acceleration for the leader, a follower the kernel
  // left at the end and each lane whose x⁴ it could not round exactly
  // (fallback_share), as the tick does. All write the same bits;
  // per_vehicle is the time of one evaluation.
  constexpr std::size_t kVehicles = 1500;
  const auto mode = state.range(0);
  mobility::FollowerKernel kernel = &mobility::idm_followers_lanes2;
  if (mode == 3) {
    // The tick dispatches to the four-lane kernel on AVX2 hosts only.
    kernel = mobility::idm_follower_kernel();
    if (kernel == &mobility::idm_followers_lanes2) {
      state.SkipWithError("no AVX2 on this host: the four-lane kernel does not run here");
      return;
    }
  }
  mobility::IdmParams p;
  benchmark::DoNotOptimize(p);  // keep the calibration a run-time value
  const double floor = -mobility::TrafficFlow::kMaxPhysicalDecel;
  sim::Rng rng{11};
  std::vector<double> v0(kVehicles, p.desired_speed_mps), v(kVehicles), pos(kVehicles),
      gap(kVehicles), dv(kVehicles), out(kVehicles);
  for (std::size_t i = 0; i < kVehicles; ++i) {
    v[i] = i % 4 == 0 ? rng.uniform(0.0, p.desired_speed_mps)
                      : p.desired_speed_mps * rng.uniform(0.99, 1.01);
    pos[i] = i == 0 ? 1e5 : pos[i - 1] - p.vehicle_length_m - rng.uniform(5.0, 150.0);
    // What the kernels compute from the column, for the scalar modes.
    gap[i] = i == 0 ? 1e9 : pos[i - 1] - pos[i] - p.vehicle_length_m;
    dv[i] = i == 0 ? 0.0 : v[i] - v[i - 1];
  }
  std::vector<std::size_t> fallback(kVehicles);
  std::size_t fallbacks = 0;
  for (auto _ : state) {
    if (mode == 0) {
      for (std::size_t i = 0; i < kVehicles; ++i) {
        const double brake_scale = 2.0 * std::sqrt(p.max_accel_mps2 * p.comfort_decel_mps2);
        const double s_star =
            p.min_gap_m + std::max(0.0, v[i] * p.time_headway_s + v[i] * dv[i] / brake_scale);
        const double ratio = s_star / std::max(gap[i], 0.01);
        out[i] = std::max(
            p.max_accel_mps2 * (1.0 - std::pow(v[i] / v0[i], 4.0) - ratio * ratio), floor);
      }
    } else {
      const double brake_scale = mobility::idm_brake_scale(p);
      const auto scalar = [&](std::size_t i) {
        out[i] = std::max(mobility::idm_acceleration(p, v0[i], p.time_headway_s, brake_scale,
                                                     v[i], gap[i], dv[i]),
                          floor);
      };
      if (mode == 1) {
        for (std::size_t i = 0; i < kVehicles; ++i) scalar(i);
      } else {
        const mobility::FollowerPass pass = kernel(
            p, brake_scale, {pos.data(), v.data(), v0.data(), out.data(), fallback.data()}, 1,
            kVehicles);
        scalar(0);
        for (std::size_t i = pass.next; i < kVehicles; ++i) scalar(i);
        for (std::size_t k = 0; k < pass.fallbacks; ++k) scalar(fallback[k]);
        fallbacks = pass.fallbacks;
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(mode == 0   ? "textbook std::pow"
                 : mode == 1 ? "idm_acceleration"
                 : mode == 2 ? "two-lane kernel + fallback"
                             : "four-lane AVX2 kernel + fallback");
  state.counters["per_vehicle"] = benchmark::Counter(
      kVehicles, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  if (mode >= 2)
    state.counters["fallback_share"] = static_cast<double>(fallbacks) / kVehicles;
}
BENCHMARK(BM_IdmLaw)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_FullScenarioSecond(benchmark::State& state) {
  // Wall-clock cost of one simulated second of the paper scenario.
  const auto mac = static_cast<core::MacType>(state.range(0));
  for (auto _ : state) {
    core::ScenarioConfig cfg = core::make_trial_config(1000, mac);
    cfg.duration = sim::Time::seconds(std::int64_t{10});
    cfg.enable_trace = false;
    core::EblScenario scenario{cfg};
    scenario.run();
    benchmark::DoNotOptimize(scenario.env().scheduler().executed_count());
  }
}
BENCHMARK(BM_FullScenarioSecond)
    ->Arg(static_cast<int>(core::MacType::kTdma))
    ->Arg(static_cast<int>(core::MacType::k80211))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
