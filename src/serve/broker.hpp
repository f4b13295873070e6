#pragma once
/// \file broker.hpp
/// \brief Session broker: the one serving path of the simulation master.
///
/// §IV.C.1 steps 2-4: "A steering client is connected to the simulation
/// master node. The client sends visualisation parameters ... The
/// simulation master propagates this to the visualisation component." The
/// broker lives on rank 0 and drains its client channels without blocking
/// the solver; the driver broadcasts each drained command
/// (steer::broadcastCommands) so all ranks apply it in the same step.
///
/// The broker generalises the paper's single client to N concurrent
/// clients: it tracks per-client subscriptions (image / status /
/// telemetry / observable / ROI streams, each with its own cadence),
/// fans frames out, and isolates slow consumers — every client has a
/// bounded outbox with a latest-wins drop policy, so a stalled client
/// costs dropped frames, never a stalled solver or starved peers. The
/// paper's single steering channel is a one-client broker with an
/// unbounded outbox, subscribed server-side to the driver's cadences.
///
/// A shared frame cache sits between the vis pipeline and the outboxes:
/// when M clients subscribe to the same view/field/cadence the pipeline
/// renders once and the broker serves the cached encoded frame M times
/// (cache key = view + field + step + codec; hit/miss counters feed the
/// serve.* telemetry metrics). Wire codecs are negotiated per client
/// (kSetCodec) and applied at frame encode; raw vs wire byte counters
/// feed the kSteer traffic class, so Table I–style measurements report
/// compressed wire bytes.
///
/// Session recovery: the broker probes clients with heartbeats every
/// `heartbeatEvery` steps; a client that leaves `missedHeartbeatLimit`
/// probes unanswered is *evicted* — its outbox is closed and released, so
/// a wedged consumer stops costing memory and fan-out work. Clients that
/// come back call requestConnect(), the one thread-safe admission path: it
/// queues a fresh channel that the serving thread adopts at the next
/// drainCommands(), counting a reconnect.
///
/// Threading: all broker methods are called from the serving (rank 0)
/// thread; client threads only touch their own ChannelEnd, which is
/// thread-safe, and requestConnect(), which is explicitly thread-safe.
/// addClient()/connect() must happen before serving starts or from the
/// serving thread.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "comm/channel.hpp"
#include "comm/communicator.hpp"
#include "serve/codec.hpp"
#include "steer/protocol.hpp"
#include "telemetry/step_report.hpp"
#include "vis/volume.hpp"

namespace hemo::serve {

/// Streams a client can subscribe to, each at its own cadence.
enum class StreamKind : std::uint8_t {
  kImage = 0,
  kStatus,
  kTelemetry,
  kObservable,
  kRoi,
  kCount_
};

inline constexpr int kNumStreams = static_cast<int>(StreamKind::kCount_);

struct BrokerConfig {
  /// Frames a client outbox holds before latest-wins eviction kicks in.
  /// 0 = unbounded (a stalled client then grows without limit — only for
  /// tests that want the legacy behaviour).
  std::size_t outboxCapacity = 16;
  /// Steps between liveness probes to every client (0 disables
  /// heartbeats, the legacy behaviour).
  int heartbeatEvery = 0;
  /// Unanswered probes before a client is declared wedged and evicted.
  int missedHeartbeatLimit = 3;
};

struct BrokerStats {
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t framesSent = 0;
  std::uint64_t wireBytes = 0;  ///< encoded bytes pushed to outboxes
  std::uint64_t rawBytes = 0;   ///< what the same frames cost uncompressed
  std::uint64_t commandsReceived = 0;
  std::uint64_t heartbeats = 0;   ///< probes sent
  std::uint64_t evictions = 0;    ///< clients dropped (wedged or corrupt)
  std::uint64_t reconnects = 0;   ///< clients re-admitted via requestConnect
  /// Progressive refinement levels withheld by the shed policy (credits
  /// exhausted or outbox backpressure). The coarse root is never shed.
  std::uint64_t levelsShed = 0;
};

/// Deterministic key identifying a rendered view (camera + field + size):
/// the view component of the frame-cache key.
std::uint64_t viewKey(const vis::VolumeRenderOptions& options);

class SessionBroker {
 public:
  explicit SessionBroker(BrokerConfig config = {}) : config_(config) {}

  /// Register a connected client; the broker keeps `end` as its outbox
  /// (bounded per BrokerConfig). Returns the client id.
  int addClient(comm::ChannelEnd end);

  /// Convenience: create a channel pair, register the broker side, return
  /// the client side.
  comm::ChannelEnd connect();

  /// Thread-safe admission: queue a fresh connection that the serving
  /// thread adopts at the next drainCommands(). The only broker method a
  /// client thread may call — (re)connecting clients use this while the
  /// run is live. `isReconnect` counts toward BrokerStats::reconnects.
  comm::ChannelEnd requestConnect(bool isReconnect = false);

  int numClients() const { return static_cast<int>(clients_.size()); }

  /// Clients currently admitted and not evicted.
  int numAliveClients() const;

  bool clientAlive(int client) const {
    return clients_[static_cast<std::size_t>(client)].alive;
  }

  /// Server-side subscription of `client` to `kind` every `cadence` steps
  /// (cadence <= 0 unsubscribes). Serving thread only, like addClient().
  void subscribe(int client, StreamKind kind, int cadence);

  // --- serving surface (rank-0 thread; the driver calls these) ----------

  /// Drain every client channel. Subscription and codec commands are
  /// handled (and acked) in place; remaining steering commands are
  /// returned with broker-unique command ids, followed by synthesized
  /// tick commands for every observable and ROI subscription due at
  /// `step` (the publish* calls serve the other streams). The caller
  /// routes responses back through the respond* methods using the
  /// (rewritten) Command::commandId.
  std::vector<steer::Command> drainCommands(comm::Communicator& comm,
                                            std::uint64_t step);

  /// True when any client's `kind` subscription is due at `step`.
  bool streamDue(StreamKind kind, std::uint64_t step) const;

  /// Fan `frame` out to every image subscriber due at frame.step. The
  /// frame is encoded once per distinct codec config through the shared
  /// cache; `view` is the viewKey() of the rendered options.
  void publishImage(comm::Communicator& comm, std::uint64_t view,
                    const steer::ImageFrame& frame);

  /// Fan a status report / telemetry window out to every subscriber of
  /// that stream due at its step, encoded once. No acks.
  void publishStatus(comm::Communicator& comm,
                     const steer::StatusReport& status);
  void publishTelemetry(comm::Communicator& comm,
                        const telemetry::StepReport& report);

  // Routed responses for commands returned by drainCommands(). Acks are
  /// suppressed for synthesized subscription ticks.
  void respondAck(comm::Communicator& comm, std::uint32_t commandId);
  void respondStatus(comm::Communicator& comm, std::uint32_t commandId,
                     const steer::StatusReport& status);
  void respondImage(comm::Communicator& comm, std::uint32_t commandId,
                    std::uint64_t view, const steer::ImageFrame& frame);
  void respondRoi(comm::Communicator& comm, std::uint32_t commandId,
                  const steer::RoiData& roi);
  void respondObservable(comm::Communicator& comm, std::uint32_t commandId,
                         const steer::ObservableReport& report);
  void respondTelemetry(comm::Communicator& comm, std::uint32_t commandId,
                        const telemetry::StepReport& report);
  /// Typed NACK routed to the *issuing* client only. With the default
  /// kReject type it consumes the pending entry (the command will not be
  /// acked); with kRejectedAfterRollback it also reaches commands already
  /// acked and erased, via a bounded forwarding-route history.
  void respondReject(comm::Communicator& comm, std::uint32_t commandId,
                     steer::RejectReason reason,
                     steer::MsgType type = steer::MsgType::kReject);

  /// Close every client outbox (clients drain queued frames, then EOF).
  void closeAll();

  // --- observability -----------------------------------------------------

  const BrokerStats& stats() const { return stats_; }

  /// Flush the serve.* counters/gauges to thread telemetry. Called
  /// internally after every publish/respond, and by the driver once per
  /// telemetry window so live counters (frames_dropped foremost — it grows
  /// inside the channels, not through broker calls) surface even when no
  /// frame happens to be published in the window.
  void publishMetrics();

  /// Sessions that announced themselves as relays (kRelayHello).
  int numRelaySessions() const;

  /// Progressive refinement levels shed toward one client / overall.
  std::uint64_t levelsShed(int client) const {
    return clients_[static_cast<std::size_t>(client)].levelsShed;
  }

  /// Frames evicted from one client's bounded outbox so far (frozen at
  /// the eviction snapshot for evicted clients).
  std::uint64_t framesDropped(int client) const;

  /// Frames pushed toward one client (before any eviction).
  std::uint64_t framesSentTo(int client) const;

  std::uint64_t totalFramesDropped() const;

 private:
  struct Subscription {
    bool active = false;
    std::int32_t cadence = 1;
    steer::Command params;  ///< roi / level / observable of the subscribe
    std::uint64_t lastFiredStep = ~std::uint64_t{0};
  };

  struct Client {
    comm::ChannelEnd end;
    CodecConfig codec;
    Subscription subs[kNumStreams];
    bool alive = true;
    bool relay = false;          ///< announced with kRelayHello
    bool creditMetered = false;  ///< has granted credits at least once
    std::uint64_t levelsShed = 0;
    std::uint64_t hbSent = 0;   ///< heartbeat probes pushed to this client
    std::uint64_t hbAcked = 0;  ///< highest sequence the client echoed
    // Counter snapshots taken at eviction (the ChannelEnd is released).
    std::uint64_t sentSnapshot = 0;
    std::uint64_t droppedSnapshot = 0;
  };

  /// One routed command: which clients asked, their original command ids
  /// (empty for synthesized ticks, which also suppress the ack).
  struct Pending {
    std::vector<int> clients;
    std::vector<std::uint32_t> originalIds;
    bool sendAck = false;
  };

  Subscription& sub(Client& c, StreamKind k) {
    return c.subs[static_cast<int>(k)];
  }
  static bool due(const Subscription& s, std::uint64_t step) {
    return s.active && s.cadence > 0 &&
           step % static_cast<std::uint64_t>(s.cadence) == 0;
  }

  /// Push `frame` to every client routed for `commandId`.
  void respondFrame(comm::Communicator& comm, std::uint32_t commandId,
                    const std::vector<std::byte>& frame);

  /// Push `frame` to every client whose `kind` subscription is due.
  void publishTo(comm::Communicator& comm, StreamKind kind,
                 std::uint64_t step, const std::vector<std::byte>& frame);

  /// Push one wire frame into a client outbox, charging the kSteer class
  /// and the serve.* counters.
  void sendTo(comm::Communicator& comm, Client& client,
              std::vector<std::byte> frame, std::uint64_t rawBytes);

  /// Conditional push of a progressive refinement level: spends a credit
  /// (metered sessions) or checks outbox headroom (unmetered). Returns
  /// false — nothing queued, nothing charged — when the level must be
  /// shed; the caller sheds the rest of the burst (residuals chain).
  bool trySendFine(comm::Communicator& comm, Client& client,
                   const std::vector<std::byte>& frame);

  /// Encoded image for a codec config via the shared per-step cache.
  const std::vector<std::byte>& cachedImage(std::uint64_t view,
                                            const steer::ImageFrame& frame,
                                            const CodecConfig& codec,
                                            std::uint64_t* rawBytesOut);

  /// Progressive level burst via the same cache (coarse-first wire frames).
  const std::vector<std::vector<std::byte>>& cachedProgressive(
      std::uint64_t view, const steer::ImageFrame& frame,
      const CodecConfig& codec, std::uint64_t* rawBytesOut);

  /// Drop a wedged or misbehaving client: close + release its outbox
  /// (freeing queued frames once the client drains), deactivate its
  /// subscriptions, freeze its counters.
  void evict(int client, const char* reason);

  /// Adopt connections queued by requestConnect() (serving thread only).
  void admitPending();

  /// Send due heartbeats and evict clients past the missed-probe limit.
  void heartbeat(comm::Communicator& comm, std::uint64_t step);

  BrokerConfig config_;
  std::vector<Client> clients_;
  std::map<std::uint32_t, Pending> pending_;
  /// Forwarding routes of recently relayed (non-tick) commands, kept after
  /// respondAck erases the pending entry so a sentinel rollback can NACK a
  /// command retroactively (kRejectedAfterRollback). Bounded FIFO.
  std::map<std::uint32_t, Pending> routes_;
  std::vector<std::uint32_t> routeOrder_;
  static constexpr std::size_t kRouteHistory = 128;
  std::uint32_t nextBrokerId_ = 1u << 20;  ///< clear of client-issued ids
  std::uint64_t lastHeartbeatStep_ = ~std::uint64_t{0};

  // Connections queued by requestConnect() until the serving thread
  // admits them — the only broker state touched by client threads.
  struct PendingConnect {
    comm::ChannelEnd end;
    bool isReconnect = false;
  };
  std::mutex pendingMutex_;
  std::vector<PendingConnect> pendingConnects_;

  // Shared frame cache: one step's encodings, keyed by (view, codec mask).
  // A progressive entry holds the per-level wire frames instead of one
  // monolithic frame; either way the cache is bounded by distinct
  // (view, codec) pairs per step — independent of the client count.
  struct CacheEntry {
    std::vector<std::byte> bytes;
    std::vector<std::vector<std::byte>> levels;
    std::uint64_t rawBytes = 0;
  };
  std::map<std::pair<std::uint64_t, std::uint8_t>, CacheEntry> cache_;
  std::uint64_t cacheStep_ = ~std::uint64_t{0};

  BrokerStats stats_;
};

}  // namespace hemo::serve
