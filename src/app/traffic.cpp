#include "app/traffic.hpp"

#include <stdexcept>

namespace eblnet::app {

CbrSource::CbrSource(net::Env& env, transport::UdpAgent& udp, std::size_t packet_bytes,
                     sim::Time interval)
    : udp_{udp}, packet_bytes_{packet_bytes}, interval_{interval},
      timer_{env.scheduler(), [this] { tick(); }} {
  if (interval <= sim::Time::zero()) throw std::invalid_argument{"CbrSource: interval must be > 0"};
  lane_ = env.scheduler().lane(interval);
}

void CbrSource::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void CbrSource::stop() {
  running_ = false;
  timer_.cancel();
}

void CbrSource::tick() {
  if (!running_) return;
  udp_.send(packet_bytes_);
  timer_.schedule_in(lane_);
}

TcpCbrFeeder::TcpCbrFeeder(net::Env& env, transport::TcpSender& tcp, std::size_t packet_bytes,
                           sim::Time interval)
    : tcp_{tcp}, packet_bytes_{packet_bytes}, timer_{env.scheduler(), [this] { tick(); }} {
  if (interval <= sim::Time::zero())
    throw std::invalid_argument{"TcpCbrFeeder: interval must be > 0"};
  lane_ = env.scheduler().lane(interval);
  tcp_.set_source(this);
  env.metrics().attach(*this, tcp.node().id(), sim::Counter::kAppMessagesGenerated);
}

TcpCbrFeeder::~TcpCbrFeeder() { tcp_.set_source(nullptr); }

void TcpCbrFeeder::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void TcpCbrFeeder::stop() {
  settle();
  running_ = false;
  timer_.cancel();
}

void TcpCbrFeeder::tick() {
  if (!running_) return;
  ++offered_;
  tcp_.advance_bytes(packet_bytes_);
  // The re-arm is the tick's last act, so a muted tick (which re-arms and
  // does nothing else) takes the same seq as this one.
  timer_.schedule_in(lane_);
  if (!tcp_.window_open()) timer_.mute();
}

void TcpCbrFeeder::settle() {
  const std::uint64_t ticks = timer_.unmute();
  if (ticks == 0) return;
  offered_ += ticks;
  // The window was shut at every one of these ticks and still is (the
  // sender settles before it can open), so this sends nothing, as none
  // of the ticks did.
  tcp_.advance_bytes(ticks * packet_bytes_);
}

}  // namespace eblnet::app
