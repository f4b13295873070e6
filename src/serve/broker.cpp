#include "serve/broker.hpp"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "serve/progressive.hpp"

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"

namespace hemo::serve {

namespace {

inline std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

inline std::uint64_t mixInto(std::uint64_t h, std::uint64_t v) {
  return comm::detail::mix64(h, v);
}

/// Codec discriminator inside the frame cache key: only features that
/// change the encoded image bytes participate.
inline std::uint8_t imageCodecKey(const CodecConfig& codec) {
  return static_cast<std::uint8_t>((codec.rleImage ? 1 : 0) |
                                   (codec.progressive ? 2 : 0));
}

}  // namespace

std::uint64_t viewKey(const vis::VolumeRenderOptions& options) {
  std::uint64_t h = 0x5e55e11e;
  const auto& cam = options.camera;
  for (const double v :
       {cam.position.x, cam.position.y, cam.position.z, cam.target.x,
        cam.target.y, cam.target.z, cam.up.x, cam.up.y, cam.up.z,
        cam.fovYDegrees}) {
    h = mixInto(h, bits(v));
  }
  h = mixInto(h, static_cast<std::uint64_t>(options.field));
  h = mixInto(h, static_cast<std::uint64_t>(options.width));
  h = mixInto(h, static_cast<std::uint64_t>(options.height));
  if (options.clipBox) {
    for (const double v :
         {options.clipBox->lo.x, options.clipBox->lo.y, options.clipBox->lo.z,
          options.clipBox->hi.x, options.clipBox->hi.y,
          options.clipBox->hi.z}) {
      h = mixInto(h, bits(v));
    }
  }
  return h;
}

int SessionBroker::addClient(comm::ChannelEnd end) {
  HEMO_CHECK_MSG(end.valid(), "broker client end must be connected");
  end.setSendCapacity(config_.outboxCapacity);
  clients_.push_back(Client{std::move(end), CodecConfig{}, {}});
  return static_cast<int>(clients_.size()) - 1;
}

void SessionBroker::subscribe(int client, StreamKind kind, int cadence) {
  auto& s = clients_[static_cast<std::size_t>(client)]
                .subs[static_cast<int>(kind)];
  s.active = cadence > 0;
  s.cadence = cadence;
  s.lastFiredStep = ~std::uint64_t{0};
}

comm::ChannelEnd SessionBroker::connect() {
  auto [clientEnd, brokerEnd] = comm::makeChannelPair();
  addClient(std::move(brokerEnd));
  return clientEnd;
}

comm::ChannelEnd SessionBroker::requestConnect(bool isReconnect) {
  auto [clientEnd, brokerEnd] = comm::makeChannelPair();
  {
    std::lock_guard<std::mutex> lock(pendingMutex_);
    pendingConnects_.push_back(
        PendingConnect{std::move(brokerEnd), isReconnect});
  }
  return clientEnd;
}

void SessionBroker::admitPending() {
  std::vector<PendingConnect> pending;
  {
    std::lock_guard<std::mutex> lock(pendingMutex_);
    pending.swap(pendingConnects_);
  }
  for (auto& pc : pending) {
    addClient(std::move(pc.end));
    if (pc.isReconnect) ++stats_.reconnects;
  }
}

int SessionBroker::numRelaySessions() const {
  int n = 0;
  for (const auto& client : clients_) {
    if (client.alive && client.relay) ++n;
  }
  return n;
}

int SessionBroker::numAliveClients() const {
  int alive = 0;
  for (const auto& client : clients_) {
    if (client.alive) ++alive;
  }
  return alive;
}

void SessionBroker::evict(int client, const char* reason) {
  Client& c = clients_[static_cast<std::size_t>(client)];
  if (!c.alive) return;
  c.sentSnapshot = c.end.framesSent();
  c.droppedSnapshot = c.end.framesDropped();
  c.end.close();            // client drains queued frames, then sees EOF
  c.end = comm::ChannelEnd{};  // release the outbox
  c.alive = false;
  for (auto& s : c.subs) s.active = false;
  ++stats_.evictions;
  HEMO_LOG_WARN() << "broker evicted client " << client << ": " << reason;
}

void SessionBroker::heartbeat(comm::Communicator& comm, std::uint64_t step) {
  if (config_.heartbeatEvery <= 0 ||
      step % static_cast<std::uint64_t>(config_.heartbeatEvery) != 0 ||
      step == lastHeartbeatStep_) {
    return;
  }
  lastHeartbeatStep_ = step;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    Client& c = clients_[i];
    if (!c.alive) continue;
    if (c.hbSent - c.hbAcked >=
        static_cast<std::uint64_t>(config_.missedHeartbeatLimit)) {
      evict(static_cast<int>(i), "missed heartbeats");
      continue;
    }
    ++c.hbSent;
    ++stats_.heartbeats;
    sendTo(comm, c, steer::encodeHeartbeat(c.hbSent), 9);
  }
}

void SessionBroker::sendTo(comm::Communicator& comm, Client& client,
                           std::vector<std::byte> frame,
                           std::uint64_t rawBytes) {
  if (!client.alive) return;  // evicted while its request was in flight
  auto& counters = comm.counters().of(comm::Traffic::kSteer);
  ++counters.messagesSent;
  counters.bytesSent += frame.size();
  ++stats_.framesSent;
  stats_.wireBytes += frame.size();
  stats_.rawBytes += rawBytes;
  client.end.send(std::move(frame));
}

std::vector<steer::Command> SessionBroker::drainCommands(
    comm::Communicator& comm, std::uint64_t step) {
  {
    // Fault hook: a thrown fault here models the serving plane itself
    // dying; the driver catches it and degrades to solver-only.
    auto& fi = util::FaultInjector::instance();
    if (fi.armed() && fi.decide(util::FaultSite::kBrokerPoll, 0) ==
                          util::FaultAction::kFail) {
      throw util::InjectedFaultError("injected broker poll failure");
    }
  }
  admitPending();
  std::vector<steer::Command> out;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    Client& client = clients_[i];
    while (client.alive) {
      auto frame = client.end.tryRecv();
      if (!frame) break;
      // Client→master traffic enters through the channel, not the mailbox;
      // count it here to keep the kSteer class symmetric.
      auto& counters = comm.counters().of(comm::Traffic::kSteer);
      ++counters.messagesReceived;
      counters.bytesReceived += frame->size();
      ++stats_.commandsReceived;
      // A frame that does not decode (truncated or corrupted in flight)
      // condemns the *client*, never the broker: evict and move on.
      try {
        if (steer::frameType(*frame) == steer::MsgType::kHeartbeatAck) {
          client.hbAcked =
              std::max(client.hbAcked, steer::decodeHeartbeatSeq(*frame));
          continue;
        }
        if (steer::frameType(*frame) == steer::MsgType::kCredit) {
          // Credit grant: switch the outbox to metered fine-level sends on
          // the first grant, then top the balance up.
          const auto credit = steer::decodeCredit(*frame);
          if (!client.creditMetered) {
            client.creditMetered = true;
            client.end.setSendCredits(credit.credits);
          } else {
            client.end.addSendCredits(credit.credits);
          }
          continue;
        }
        auto cmd = steer::decodeCommand(*frame);
        switch (cmd.type) {
          case steer::MsgType::kRelayHello: {
            client.relay = true;
            sendTo(comm, client, steer::encodeAck(cmd.commandId), 5);
            break;
          }
          case steer::MsgType::kSubscribe: {
            HEMO_CHECK_MSG(static_cast<int>(cmd.stream) < kNumStreams,
                           "bad stream kind");
            auto& s = client.subs[cmd.stream];
            s.active = true;
            s.cadence = std::max<std::int32_t>(1, cmd.cadence);
            s.params = cmd;
            s.lastFiredStep = ~std::uint64_t{0};
            sendTo(comm, client, steer::encodeAck(cmd.commandId), 5);
            break;
          }
          case steer::MsgType::kUnsubscribe: {
            HEMO_CHECK_MSG(static_cast<int>(cmd.stream) < kNumStreams,
                           "bad stream kind");
            client.subs[cmd.stream].active = false;
            sendTo(comm, client, steer::encodeAck(cmd.commandId), 5);
            break;
          }
          case steer::MsgType::kSetCodec: {
            client.codec = CodecConfig::fromCommand(cmd);
            sendTo(comm, client, steer::encodeAck(cmd.commandId), 5);
            break;
          }
          default: {
            // Forward to the simulation under a broker-unique id so
            // replies route back to this client even when ids collide
            // across clients.
            const std::uint32_t brokerId = nextBrokerId_++;
            const Pending route{{static_cast<int>(i)}, {cmd.commandId}, true};
            pending_[brokerId] = route;
            routes_[brokerId] = route;
            routeOrder_.push_back(brokerId);
            if (routeOrder_.size() > kRouteHistory) {
              routes_.erase(routeOrder_.front());
              routeOrder_.erase(routeOrder_.begin());
            }
            cmd.commandId = brokerId;
            out.push_back(cmd);
            break;
          }
        }
      } catch (const CheckError&) {
        evict(static_cast<int>(i), "undecodable frame");
      }
    }
  }
  heartbeat(comm, step);

  // Synthesize one tick command per *distinct* due observable or ROI
  // request, shared by all clients whose subscription matches — N
  // subscribers cost one collective computation, not N.
  struct TickKey {
    steer::MsgType type;
    BoxI roi;
    std::int32_t level = 0;
    std::uint8_t observable = 0;

    bool operator<(const TickKey& o) const {
      const auto tup = [](const TickKey& k) {
        return std::tuple(static_cast<int>(k.type), k.roi.lo.x, k.roi.lo.y,
                          k.roi.lo.z, k.roi.hi.x, k.roi.hi.y, k.roi.hi.z,
                          k.level, static_cast<int>(k.observable));
      };
      return tup(*this) < tup(o);
    }
  };
  std::map<TickKey, std::uint32_t> ticks;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    Client& client = clients_[i];
    if (!client.alive) continue;
    for (int k = 0; k < kNumStreams; ++k) {
      const auto kind = static_cast<StreamKind>(k);
      auto& s = client.subs[k];
      if (!due(s, step) || s.lastFiredStep == step) continue;
      steer::Command cmd = s.params;
      switch (kind) {
        case StreamKind::kObservable:
          cmd.type = steer::MsgType::kRequestObservable;
          break;
        case StreamKind::kRoi:
          cmd.type = steer::MsgType::kSetRoi;
          break;
        default:
          continue;  // published by the driver after the step
      }
      s.lastFiredStep = step;
      TickKey key{cmd.type, cmd.roi, cmd.roiLevel, cmd.observable};
      auto [it, inserted] = ticks.try_emplace(key, 0);
      if (inserted) {
        const std::uint32_t brokerId = nextBrokerId_++;
        it->second = brokerId;
        pending_[brokerId] = Pending{{static_cast<int>(i)}, {}, false};
        cmd.commandId = brokerId;
        out.push_back(cmd);
      } else {
        pending_[it->second].clients.push_back(static_cast<int>(i));
      }
    }
  }
  return out;
}

bool SessionBroker::streamDue(StreamKind kind, std::uint64_t step) const {
  for (const auto& client : clients_) {
    if (due(client.subs[static_cast<int>(kind)], step)) return true;
  }
  return false;
}

void SessionBroker::publishTo(comm::Communicator& comm, StreamKind kind,
                              std::uint64_t step,
                              const std::vector<std::byte>& frame) {
  for (auto& client : clients_) {
    if (due(client.subs[static_cast<int>(kind)], step)) {
      sendTo(comm, client, frame, frame.size());
    }
  }
}

void SessionBroker::publishStatus(comm::Communicator& comm,
                                  const steer::StatusReport& status) {
  publishTo(comm, StreamKind::kStatus, status.step,
            steer::encodeStatus(status));
}

void SessionBroker::publishTelemetry(comm::Communicator& comm,
                                     const telemetry::StepReport& report) {
  publishTo(comm, StreamKind::kTelemetry, report.step,
            steer::encodeTelemetry(report));
}

const std::vector<std::byte>& SessionBroker::cachedImage(
    std::uint64_t view, const steer::ImageFrame& frame,
    const CodecConfig& codec, std::uint64_t* rawBytesOut) {
  if (frame.step != cacheStep_) {
    cache_.clear();
    cacheStep_ = frame.step;
  }
  const auto key = std::make_pair(view, imageCodecKey(codec));
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++stats_.cacheMisses;
    CacheEntry entry;
    entry.bytes = encodeImagePayload(frame, codec, &entry.rawBytes);
    it = cache_.emplace(key, std::move(entry)).first;
  } else {
    ++stats_.cacheHits;
  }
  if (rawBytesOut != nullptr) *rawBytesOut = it->second.rawBytes;
  return it->second.bytes;
}

const std::vector<std::vector<std::byte>>& SessionBroker::cachedProgressive(
    std::uint64_t view, const steer::ImageFrame& frame,
    const CodecConfig& codec, std::uint64_t* rawBytesOut) {
  if (frame.step != cacheStep_) {
    cache_.clear();
    cacheStep_ = frame.step;
  }
  const auto key = std::make_pair(view, imageCodecKey(codec));
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++stats_.cacheMisses;
    CacheEntry entry;
    entry.levels = encodeProgressiveImage(frame, codec, 8, &entry.rawBytes);
    it = cache_.emplace(key, std::move(entry)).first;
  } else {
    ++stats_.cacheHits;
  }
  if (rawBytesOut != nullptr) *rawBytesOut = it->second.rawBytes;
  return it->second.levels;
}

bool SessionBroker::trySendFine(comm::Communicator& comm, Client& client,
                                const std::vector<std::byte>& frame) {
  if (!client.alive) return false;
  if (client.creditMetered) {
    if (!client.end.trySendCredited(frame)) return false;  // copy on success
  } else {
    // Outbox headroom check: a push that would evict an older frame means
    // the consumer is behind — shed the refinement rather than churn.
    if (config_.outboxCapacity > 0 &&
        client.end.sendQueueDepth() + 1 >= config_.outboxCapacity) {
      return false;
    }
    client.end.send(frame);
  }
  auto& counters = comm.counters().of(comm::Traffic::kSteer);
  ++counters.messagesSent;
  counters.bytesSent += frame.size();
  ++stats_.framesSent;
  stats_.wireBytes += frame.size();
  return true;
}

void SessionBroker::publishImage(comm::Communicator& comm, std::uint64_t view,
                                 const steer::ImageFrame& frame) {
  for (auto& client : clients_) {
    if (!due(client.subs[static_cast<int>(StreamKind::kImage)], frame.step)) {
      continue;
    }
    if (client.codec.progressive) {
      std::uint64_t raw = 0;
      const auto& levels = cachedProgressive(view, frame, client.codec, &raw);
      // The coarse root is never shed — worst case the bounded outbox
      // applies latest-wins to a stale root. Refinements go through the
      // shed policy; once one level is shed the rest of the burst is
      // useless downstream (residuals chain), so stop there.
      sendTo(comm, client, levels.front(), raw);
      for (std::size_t l = 1; l < levels.size(); ++l) {
        if (!trySendFine(comm, client, levels[l])) {
          const auto shed = static_cast<std::uint64_t>(levels.size() - l);
          client.levelsShed += shed;
          stats_.levelsShed += shed;
          break;
        }
      }
      continue;
    }
    std::uint64_t raw = 0;
    const auto& bytes = cachedImage(view, frame, client.codec, &raw);
    sendTo(comm, client, bytes, raw);  // copy: each outbox owns its frame
  }
  publishMetrics();
}

void SessionBroker::respondAck(comm::Communicator& comm,
                               std::uint32_t commandId) {
  const auto it = pending_.find(commandId);
  if (it == pending_.end()) return;
  if (it->second.sendAck) {
    for (std::size_t i = 0; i < it->second.clients.size(); ++i) {
      sendTo(comm, clients_[static_cast<std::size_t>(it->second.clients[i])],
             steer::encodeAck(it->second.originalIds[i]), 5);
    }
  }
  pending_.erase(it);
  publishMetrics();
}

void SessionBroker::respondReject(comm::Communicator& comm,
                                  std::uint32_t commandId,
                                  steer::RejectReason reason,
                                  steer::MsgType type) {
  // Prefer the live pending entry; fall back to the bounded route history
  // for retroactive NACKs of commands respondAck already retired.
  auto it = pending_.find(commandId);
  const bool live = it != pending_.end();
  if (!live) {
    it = routes_.find(commandId);
    if (it == routes_.end()) return;
  }
  const Pending& route = it->second;
  for (std::size_t i = 0; i < route.originalIds.size(); ++i) {
    steer::Reject reject;
    reject.type = type;
    reject.commandId = route.originalIds[i];
    reject.reason = reason;
    sendTo(comm, clients_[static_cast<std::size_t>(route.clients[i])],
           steer::encodeReject(reject), 6);
  }
  if (live) pending_.erase(it);
  publishMetrics();
}

void SessionBroker::respondFrame(comm::Communicator& comm,
                                 std::uint32_t commandId,
                                 const std::vector<std::byte>& frame) {
  const auto it = pending_.find(commandId);
  if (it == pending_.end()) return;
  for (const int c : it->second.clients) {
    sendTo(comm, clients_[static_cast<std::size_t>(c)], frame, frame.size());
  }
}

void SessionBroker::respondStatus(comm::Communicator& comm,
                                  std::uint32_t commandId,
                                  const steer::StatusReport& status) {
  respondFrame(comm, commandId, steer::encodeStatus(status));
}

void SessionBroker::respondImage(comm::Communicator& comm,
                                 std::uint32_t commandId, std::uint64_t view,
                                 const steer::ImageFrame& frame) {
  const auto it = pending_.find(commandId);
  if (it == pending_.end()) return;
  for (const int c : it->second.clients) {
    auto& client = clients_[static_cast<std::size_t>(c)];
    std::uint64_t raw = 0;
    const auto& bytes = cachedImage(view, frame, client.codec, &raw);
    sendTo(comm, client, bytes, raw);
  }
}

void SessionBroker::respondRoi(comm::Communicator& comm,
                               std::uint32_t commandId,
                               const steer::RoiData& roi) {
  const auto it = pending_.find(commandId);
  if (it == pending_.end()) return;
  // Encode once per distinct codec config among the recipients.
  std::map<std::uint8_t, std::pair<std::vector<std::byte>, std::uint64_t>>
      byCodec;
  for (const int c : it->second.clients) {
    auto& client = clients_[static_cast<std::size_t>(c)];
    const std::uint8_t key = client.codec.mask();
    auto found = byCodec.find(key);
    if (found == byCodec.end()) {
      std::uint64_t raw = 0;
      auto bytes = encodeRoiPayload(roi, client.codec, &raw);
      found = byCodec.emplace(key, std::make_pair(std::move(bytes), raw)).first;
    }
    sendTo(comm, client, found->second.first, found->second.second);
  }
}

void SessionBroker::respondObservable(comm::Communicator& comm,
                                      std::uint32_t commandId,
                                      const steer::ObservableReport& report) {
  respondFrame(comm, commandId, steer::encodeObservable(report));
}

void SessionBroker::respondTelemetry(comm::Communicator& comm,
                                     std::uint32_t commandId,
                                     const telemetry::StepReport& report) {
  respondFrame(comm, commandId, steer::encodeTelemetry(report));
}

void SessionBroker::closeAll() {
  for (auto& client : clients_) {
    if (client.alive) client.end.close();
  }
}

std::uint64_t SessionBroker::framesDropped(int client) const {
  const Client& c = clients_[static_cast<std::size_t>(client)];
  return c.alive ? c.end.framesDropped() : c.droppedSnapshot;
}

std::uint64_t SessionBroker::framesSentTo(int client) const {
  const Client& c = clients_[static_cast<std::size_t>(client)];
  return c.alive ? c.end.framesSent() : c.sentSnapshot;
}

std::uint64_t SessionBroker::totalFramesDropped() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    total += framesDropped(static_cast<int>(i));
  }
  return total;
}

void SessionBroker::publishMetrics() {
  auto* t = telemetry::threadTelemetry();
  if (t == nullptr) return;
  auto& m = t->metrics();
  auto setTotal = [&m](const char* name, std::uint64_t value) {
    auto& c = m.counter(name);
    const std::uint64_t now = c.value();
    if (value > now) c.add(value - now);
  };
  setTotal("serve.cache_hits", stats_.cacheHits);
  setTotal("serve.cache_misses", stats_.cacheMisses);
  setTotal("serve.frames_sent", stats_.framesSent);
  setTotal("serve.wire_bytes", stats_.wireBytes);
  setTotal("serve.raw_bytes", stats_.rawBytes);
  setTotal("serve.frames_dropped", totalFramesDropped());
  setTotal("serve.heartbeats", stats_.heartbeats);
  setTotal("serve.evictions", stats_.evictions);
  setTotal("serve.reconnects", stats_.reconnects);
  setTotal("serve.levels_shed", stats_.levelsShed);
  setTotal("fault.injected", util::FaultInjector::instance().fired());
  m.gauge("serve.clients").set(static_cast<double>(numAliveClients()));
  m.gauge("serve.relay_sessions").set(static_cast<double>(numRelaySessions()));
}

}  // namespace hemo::serve
