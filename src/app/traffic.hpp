#pragma once

#include "net/env.hpp"
#include "sim/timer.hpp"
#include "transport/tcp_sender.hpp"
#include "transport/udp.hpp"

namespace eblnet::app {

/// Constant-bit-rate datagram source over UDP (NS-2
/// Application/Traffic/CBR on Agent/UDP).
class CbrSource {
 public:
  /// Emits one `packet_bytes` datagram every `interval` while running.
  CbrSource(net::Env& env, transport::UdpAgent& udp, std::size_t packet_bytes,
            sim::Time interval);

  void start();
  void stop();
  bool running() const noexcept { return running_; }

  std::size_t packet_bytes() const noexcept { return packet_bytes_; }
  sim::Time interval() const noexcept { return interval_; }

  /// Interval for a target application-layer bit rate.
  static sim::Time interval_for_rate(std::size_t packet_bytes, double rate_bps) {
    return sim::Time::seconds(static_cast<double>(packet_bytes) * 8.0 / rate_bps);
  }

 private:
  void tick();

  transport::UdpAgent& udp_;
  std::size_t packet_bytes_;
  sim::Time interval_;
  bool running_{false};
  sim::Scheduler::Lane lane_;  ///< interval_'s lane
  sim::Timer timer_;
};

/// Constant-bit-rate writer into a TCP connection — the paper's traffic
/// model (CBR generation carried over TCP, measured at the TCPSink).
/// While running it makes `packet_bytes` more data available to the
/// sender every `interval`; TCP's window decides when the bytes actually
/// leave, so queueing shows up as one-way delay at the sink.
///
/// A tick behind a shut window only grows the backlog, so after such a
/// tick re-arms, the feeder mutes its timer (sim::Scheduler::mute): later
/// ticks keep their events and (time, seq) keys but run no handler. The
/// sender settles the feeder (TcpSender::Source) before anything that
/// can open the window or read the backlog, and settling adds the muted
/// ticks to the offered count and their bytes to the backlog, which is
/// all those ticks would have done. kAppMessagesGenerated is read from
/// packets_offered() through a CounterLink, so it is exact at every
/// snapshot without a per-tick add().
class TcpCbrFeeder final : private transport::TcpSender::Source, private sim::CounterLink {
 public:
  TcpCbrFeeder(net::Env& env, transport::TcpSender& tcp, std::size_t packet_bytes,
               sim::Time interval);
  ~TcpCbrFeeder();

  void start();
  void stop();
  bool running() const noexcept { return running_; }

  /// Messages offered so far, muted ticks included.
  std::uint64_t packets_offered() const noexcept { return offered_ + timer_.muted_ticks(); }

 private:
  void tick();
  void settle() override;
  std::uint64_t value() const noexcept override { return packets_offered(); }

  transport::TcpSender& tcp_;
  std::size_t packet_bytes_;
  bool running_{false};
  sim::Scheduler::Lane lane_;  ///< the feed interval's lane
  std::uint64_t offered_{0};
  sim::Timer timer_;
};

/// Bulk transfer: the TCP sender is permanently backlogged (NS-2 FTP).
class FtpSource {
 public:
  explicit FtpSource(transport::TcpSender& tcp) : tcp_{tcp} {}
  void start() { tcp_.set_infinite_data(); }

 private:
  transport::TcpSender& tcp_;
};

}  // namespace eblnet::app
