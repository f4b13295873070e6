#include "steer/session.hpp"

#include <cstring>

#include "io/serial.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace hemo::steer {

std::vector<Command> broadcastCommands(
    comm::Communicator& comm, const std::vector<Command>& rank0Commands) {
  comm::Communicator::TrafficScope scope(comm, comm::Traffic::kSteer);
  // Rank 0 concatenates length-prefixed frames, then broadcasts the blob.
  std::vector<std::byte> packed;
  if (comm.rank() == 0) {
    for (const Command& cmd : rank0Commands) {
      const auto frame = encodeCommand(cmd);
      const auto n = static_cast<std::uint32_t>(frame.size());
      const auto* np = reinterpret_cast<const std::byte*>(&n);
      packed.insert(packed.end(), np, np + sizeof(n));
      packed.insert(packed.end(), frame.begin(), frame.end());
    }
  }
  comm.bcastBytes(packed, 0);

  std::vector<Command> commands;
  std::size_t pos = 0;
  while (pos < packed.size()) {
    std::uint32_t n;
    std::memcpy(&n, packed.data() + pos, sizeof(n));
    pos += sizeof(n);
    HEMO_CHECK(pos + n <= packed.size());
    commands.push_back(decodeCommand(std::vector<std::byte>(
        packed.begin() + static_cast<std::ptrdiff_t>(pos),
        packed.begin() + static_cast<std::ptrdiff_t>(pos + n))));
    pos += n;
  }
  return commands;
}

// --- SteeringClient -------------------------------------------------------------

std::uint32_t SteeringClient::send(Command cmd) {
  cmd.commandId = nextCommandId_++;
  inFlight_[cmd.commandId] = clock::now();
  HEMO_CHECK_MSG(channel_.send(encodeCommand(cmd)),
                 "steering channel closed");
  return cmd.commandId;
}

std::optional<std::vector<std::byte>> SteeringClient::nextOfAny(
    std::initializer_list<MsgType> types) {
  const auto wanted = [&](const std::vector<std::byte>& frame) {
    const MsgType t = frameType(frame);
    for (const MsgType w : types) {
      if (t == w) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < stash_.size(); ++i) {
    if (wanted(stash_[i])) {
      auto frame = std::move(stash_[i]);
      stash_.erase(stash_.begin() + static_cast<std::ptrdiff_t>(i));
      return frame;
    }
  }
  for (;;) {
    auto frame = channel_.recv();
    if (!frame) return std::nullopt;  // EOF
    if (wanted(*frame)) return frame;
    stash_.push_back(std::move(*frame));
  }
}

std::optional<std::vector<std::byte>> SteeringClient::nextOfType(
    MsgType type) {
  return nextOfAny({type});
}

std::optional<StatusReport> SteeringClient::awaitStatus() {
  const auto frame = nextOfType(MsgType::kStatus);
  if (!frame) return std::nullopt;
  return decodeStatus(*frame);
}

std::optional<ImageFrame> SteeringClient::awaitImage() {
  const auto frame = nextOfType(MsgType::kImageFrame);
  if (!frame) return std::nullopt;
  return decodeImage(*frame);
}

std::optional<RoiData> SteeringClient::awaitRoi() {
  const auto frame = nextOfType(MsgType::kRoiData);
  if (!frame) return std::nullopt;
  return decodeRoi(*frame);
}

std::optional<ObservableReport> SteeringClient::awaitObservable() {
  const auto frame = nextOfType(MsgType::kObservable);
  if (!frame) return std::nullopt;
  return decodeObservable(*frame);
}

std::optional<telemetry::StepReport> SteeringClient::awaitTelemetry() {
  const auto frame = nextOfType(MsgType::kTelemetry);
  if (!frame) return std::nullopt;
  return decodeTelemetry(*frame);
}

std::optional<std::uint32_t> SteeringClient::awaitAck() {
  const auto frame = nextOfType(MsgType::kAck);
  if (!frame) return std::nullopt;
  io::Reader r(*frame);
  r.get<std::uint8_t>();
  const std::uint32_t commandId = r.get<std::uint32_t>();
  const auto it = inFlight_.find(commandId);
  if (it != inFlight_.end()) {
    roundTrip_.add(
        std::chrono::duration<double>(clock::now() - it->second).count());
    inFlight_.erase(it);
  }
  return commandId;
}

std::optional<Reject> SteeringClient::awaitReject() {
  const auto frame =
      nextOfAny({MsgType::kReject, MsgType::kRejectedAfterRollback});
  if (!frame) return std::nullopt;
  const Reject reject = decodeReject(*frame);
  inFlight_.erase(reject.commandId);
  return reject;
}

}  // namespace hemo::steer
