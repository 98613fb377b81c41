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
}

void TcpCbrFeeder::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void TcpCbrFeeder::stop() {
  running_ = false;
  timer_.cancel();
}

void TcpCbrFeeder::tick() {
  if (!running_) return;
  ++offered_;
  tcp_.node().env().metrics().add(tcp_.node().id(), sim::Counter::kAppMessagesGenerated);
  tcp_.advance_bytes(packet_bytes_);
  timer_.schedule_in(lane_);
}

}  // namespace eblnet::app
