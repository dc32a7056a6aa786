/// \file net_server.hpp
/// The TCP serving front end: an epoll-based, dependency-free network
/// server speaking the ASV1 length-prefixed binary protocol
/// (protocol.hpp), sharding decoded requests across N MicroBatcher +
/// InferenceEngine workers (one InferenceServer of one worker per shard),
/// with admission control and deadline-based load shedding on every
/// shard's bounded queue. Dispatch
/// is least-loaded: each request goes to the shard with the least queued
/// and in-flight work (ties broken by a rotating hint so idle shards share
/// work evenly), so a long request cannot head-of-line-block the short
/// requests a fixed rotation would put behind it. A shard worker that
/// crashes fails its batch and restarts in place (server.hpp).
///
/// Data flow (threads: one I/O thread, and a worker plus a collector per
/// shard):
///
///   client conns ──► epoll I/O thread ──► FrameDecoder per connection
///        ▲                                   │ least-loaded dispatch
///        │                                   ▼
///        │                     shard k: MicroBatcher ─► worker (engine)
///        │                                   │ std::future
///        │                                   ▼
///        └────────── shard k collector thread (encodes reply frames,
///                    per-connection write lock, FIFO per shard)
///
/// Every decoded request produces exactly one reply frame — a kReply with
/// the result, or a kError carrying why (shed, deadline expired, bad
/// input, worker crash, shutdown). Sheds and timeouts are never silently
/// dropped, and their counters flow into the shared obs::Registry-backed
/// ServeMetrics ("serve.<endpoint>.shed" / ".deadline_timeouts", "net.*").
///
/// Determinism note: sharding does not break the serve layer's replay
/// guarantees — each shard batches independently in FIFO order, so a
/// single-shard server's replies are bit-identical to in-process
/// InferenceServer serving of the same request stream, and any shard
/// count preserves the one-snapshot-per-response hot-swap invariant.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace artsci::serve {

/// Pure shard-selection kernel (unit-testable without sockets): returns
/// the index with the minimum depth, scanning the `count` depths starting
/// from `hint % count` and keeping the first minimum encountered — i.e.
/// ties go to the earliest shard in rotation order from the hint.
std::size_t pickLeastLoadedShard(const std::size_t* depths, std::size_t count,
                                 std::uint64_t hint);

struct NetServerConfig {
  std::string host = "127.0.0.1";  ///< bind address
  std::uint16_t port = 0;          ///< 0 = ephemeral; NetServer::port() tells
  std::size_t shards = 1;          ///< MicroBatcher+engine workers
  BatchPolicy policy;              ///< per-shard batching policy
  std::uint64_t seed = 0xced5ULL;  ///< base seed for posterior-draw RNGs
};

/// The network front end. Construction binds, listens, and starts the I/O
/// thread plus the shard workers; stop() (or the destructor) drains: every
/// request dispatched to a shard is answered before sockets close.
class NetServer {
 public:
  NetServer(NetServerConfig cfg, std::shared_ptr<ModelRegistry> registry);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound TCP port (resolves port 0 to the kernel-assigned one).
  std::uint16_t port() const { return port_; }

  /// Stop accepting and reading, drain every dispatched request through
  /// its shard, flush all replies, then close every connection.
  /// Idempotent.
  void stop();

  /// Aggregated metrics across all shards (shared ServeMetrics; queue
  /// depth summed over the shard batchers).
  ServeMetrics::Report metrics() const;
  /// The shared metrics sink (serve.* and net.* counters; toJson()).
  const ServeMetrics& serveMetrics() const { return *metrics_; }

 private:
  /// One live client connection. The fd closes when the last reference
  /// drops, so collector threads mid-write never race a reused fd. The
  /// decoder caps each frame's payload at proto::kDefaultMaxPayloadBytes
  /// before allocating it.
  struct Connection {
    ~Connection();
    int fd = -1;
    std::uint64_t id = 0;
    proto::FrameDecoder decoder;
    std::mutex writeMutex;       ///< serializes reply writes
    std::atomic<bool> closed{false};
  };

  /// A dispatched request awaiting its future in a shard's FIFO.
  struct PendingReply {
    std::shared_ptr<Connection> conn;
    std::uint64_t requestId = 0;
    std::future<InferenceResult> future;
  };

  /// One shard: an InferenceServer (one worker) plus the collector that
  /// turns resolved futures into wire frames in dispatch order.
  struct Shard {
    std::unique_ptr<InferenceServer> server;
    std::thread collector;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<PendingReply> pending;
    bool stopped = false;
  };

  void ioLoop();
  void handleReadable(const std::shared_ptr<Connection>& conn);
  void dispatchFrame(const std::shared_ptr<Connection>& conn,
                     proto::Frame&& frame);
  /// The least-loaded shard (pickLeastLoadedShard over the shards'
  /// queueDepth()). Called from the single I/O thread.
  std::size_t pickShard();
  void collectorLoop(Shard& shard);
  void closeConnection(std::uint64_t connId);
  /// Blocking write of a full frame (poll()s out EAGAIN); false once the
  /// peer is gone.
  static bool writeFrame(Connection& conn,
                         const std::vector<std::uint8_t>& bytes);

  NetServerConfig cfg_;
  std::shared_ptr<ModelRegistry> registry_;
  std::shared_ptr<ServeMetrics> metrics_;

  int listenFd_ = -1;
  int epollFd_ = -1;
  int wakeFd_ = -1;  ///< eventfd: stop() kicks the epoll wait
  std::uint16_t port_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> nextShard_{0};
  std::vector<std::size_t> depthScratch_;  ///< I/O-thread-only, preallocated

  std::unordered_map<std::uint64_t, std::shared_ptr<Connection>> conns_;
  std::unordered_map<int, std::uint64_t> fdToConn_;
  std::uint64_t nextConnId_ = 1;

  std::thread ioThread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  // Net-layer counters (live in the shared metrics registry).
  obs::Counter* connsAccepted_ = nullptr;
  obs::Counter* connsClosed_ = nullptr;
  obs::Counter* framesIn_ = nullptr;
  obs::Counter* protocolErrors_ = nullptr;
  obs::Counter* repliesOut_ = nullptr;
  obs::Counter* errorsOut_ = nullptr;
  obs::Gauge* openConns_ = nullptr;
};

}  // namespace artsci::serve
