#pragma once
/// \file session.hpp
/// \brief The two ends of a steering session outside the broker.
///
/// On the simulation side, serve::SessionBroker drains client channels on
/// rank 0; broadcastCommands() then propagates the drained commands so all
/// ranks apply them in the same step. On the client side, SteeringClient
/// wraps one channel with typed sends and typed blocking receives.

#include <chrono>
#include <map>
#include <optional>
#include <vector>

#include "comm/channel.hpp"
#include "comm/communicator.hpp"
#include "steer/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace hemo::steer {

/// Collective: rank 0 packs `rank0Commands` (ignored elsewhere) and
/// broadcasts; every rank returns the identical decoded list. The
/// command-propagation step of the driver's per-step poll, counted as
/// kSteer traffic.
std::vector<Command> broadcastCommands(comm::Communicator& comm,
                                       const std::vector<Command>& rank0Commands);

/// Client-side convenience wrapper: typed sends, typed blocking receives.
class SteeringClient {
 public:
  explicit SteeringClient(comm::ChannelEnd serverEnd)
      : channel_(std::move(serverEnd)) {}

  /// Send a command; returns its command id (auto-assigned).
  std::uint32_t send(Command cmd);

  /// Block until the next frame of the given type arrives (frames of other
  /// types are queued for later typed receives). nullopt on channel EOF.
  std::optional<StatusReport> awaitStatus();
  std::optional<ImageFrame> awaitImage();
  std::optional<RoiData> awaitRoi();
  std::optional<ObservableReport> awaitObservable();
  std::optional<telemetry::StepReport> awaitTelemetry();
  std::optional<std::uint32_t> awaitAck();
  /// Next kReject or kRejectedAfterRollback frame (either type).
  std::optional<Reject> awaitReject();

  /// Command → ack round-trip latency (seconds) of every awaitAck() whose
  /// command id was issued by this client.
  const telemetry::LogHistogram& roundTripHistogram() const {
    return roundTrip_;
  }

  void close() { channel_.close(); }

 private:
  using clock = std::chrono::steady_clock;

  std::optional<std::vector<std::byte>> nextOfType(MsgType type);
  std::optional<std::vector<std::byte>> nextOfAny(
      std::initializer_list<MsgType> types);

  comm::ChannelEnd channel_;
  std::vector<std::vector<std::byte>> stash_;
  std::uint32_t nextCommandId_ = 1;
  std::map<std::uint32_t, clock::time_point> inFlight_;
  telemetry::LogHistogram roundTrip_;
};

}  // namespace hemo::steer
