#include "serve/net_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/trace.hpp"

namespace artsci::serve {

namespace {

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ARTSCI_CHECK_MSG(flags >= 0, "fcntl(F_GETFL): " << std::strerror(errno));
  ARTSCI_CHECK_MSG(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                   "fcntl(F_SETFL): " << std::strerror(errno));
}

void epollAdd(int epollFd, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ARTSCI_CHECK_MSG(::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) == 0,
                   "epoll_ctl(ADD): " << std::strerror(errno));
}

}  // namespace

std::size_t pickLeastLoadedShard(const std::size_t* depths, std::size_t count,
                                 std::uint64_t hint) {
  const std::size_t start = static_cast<std::size_t>(hint % count);
  std::size_t best = start;
  std::size_t bestDepth = depths[start];
  for (std::size_t i = 1; i < count && bestDepth > 0; ++i) {
    const std::size_t k = (start + i) % count;
    if (depths[k] < bestDepth) {  // strict less: ties keep the earlier shard
      best = k;
      bestDepth = depths[k];
    }
  }
  return best;
}

NetServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

NetServer::NetServer(NetServerConfig cfg,
                     std::shared_ptr<ModelRegistry> registry)
    : cfg_(std::move(cfg)),
      registry_(std::move(registry)),
      metrics_(std::make_shared<ServeMetrics>()) {
  ARTSCI_EXPECTS_MSG(registry_ != nullptr, "net server needs a registry");
  ARTSCI_EXPECTS(cfg_.shards >= 1);

  obs::Registry& reg = metrics_->registry();
  connsAccepted_ = &reg.counter("net.connections_accepted");
  connsClosed_ = &reg.counter("net.connections_closed");
  framesIn_ = &reg.counter("net.frames_in");
  protocolErrors_ = &reg.counter("net.protocol_errors");
  repliesOut_ = &reg.counter("net.replies_out");
  errorsOut_ = &reg.counter("net.errors_out");
  openConns_ = &reg.gauge("net.open_connections");

  // --- listen socket ------------------------------------------------------
  listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ARTSCI_CHECK_MSG(listenFd_ >= 0, "socket(): " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  ARTSCI_CHECK_MSG(
      ::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) == 1,
      "bad bind address '" << cfg_.host << "'");
  ARTSCI_CHECK_MSG(::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                   "bind(" << cfg_.host << ":" << cfg_.port
                           << "): " << std::strerror(errno));
  ARTSCI_CHECK_MSG(::listen(listenFd_, 128) == 0,
                   "listen(): " << std::strerror(errno));
  socklen_t len = sizeof(addr);
  ARTSCI_CHECK(::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                             &len) == 0);
  port_ = ntohs(addr.sin_port);
  setNonBlocking(listenFd_);

  // --- epoll + wakeup -----------------------------------------------------
  epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
  ARTSCI_CHECK_MSG(epollFd_ >= 0, "epoll_create1: " << std::strerror(errno));
  wakeFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  ARTSCI_CHECK_MSG(wakeFd_ >= 0, "eventfd: " << std::strerror(errno));
  epollAdd(epollFd_, listenFd_, EPOLLIN);
  epollAdd(epollFd_, wakeFd_, EPOLLIN);

  // --- shards -------------------------------------------------------------
  shards_.reserve(cfg_.shards);
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    ServerConfig scfg;
    scfg.policy = cfg_.policy;
    // Distinct seed stream per shard so posterior draws never correlate
    // across shards.
    scfg.seed = cfg_.seed + 0x5bf03635ULL * (s + 1);
    scfg.metrics = metrics_;
    auto shard = std::make_unique<Shard>();
    shard->server = std::make_unique<InferenceServer>(scfg, registry_);
    shards_.push_back(std::move(shard));
  }
  depthScratch_.resize(shards_.size(), 0);
  for (auto& shard : shards_)
    shard->collector = std::thread([this, &shard] { collectorLoop(*shard); });

  ioThread_ = std::thread([this] { ioLoop(); });
  log::info("serve.net", "listening on ", cfg_.host, ":", port_, " with ",
            cfg_.shards, " shard(s)");
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wakeFd_, &one, sizeof(one));
  if (ioThread_.joinable()) ioThread_.join();

  // Drain order: every request already dispatched to a shard resolves its
  // future, then each collector flushes its FIFO of replies — only after
  // that do connections close. Nothing accepted is lost.
  for (auto& shard : shards_) shard->server->shutdown();
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->stopped = true;
    }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_)
    if (shard->collector.joinable()) shard->collector.join();

  for (auto& [id, conn] : conns_) conn->closed.store(true);
  conns_.clear();  // destructors close the fds
  fdToConn_.clear();
  openConns_->set(0);
  if (listenFd_ >= 0) ::close(listenFd_);
  if (epollFd_ >= 0) ::close(epollFd_);
  if (wakeFd_ >= 0) ::close(wakeFd_);
  listenFd_ = epollFd_ = wakeFd_ = -1;
}

ServeMetrics::Report NetServer::metrics() const {
  ServeMetrics::Report rep = metrics_->report();
  rep.queueDepth = 0;
  for (const auto& shard : shards_)
    rep.queueDepth += shard->server->metrics().queueDepth;
  return rep;
}

void NetServer::ioLoop() {
  std::array<epoll_event, 64> events;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epollFd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      log::warn("serve.net", "epoll_wait: ", std::strerror(errno),
                ", exiting");
      return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeFd_) continue;  // stop() kicked us; loop condition exits
      if (fd == listenFd_) {
        for (;;) {
          const int cfd = ::accept4(listenFd_, nullptr, nullptr,
                                    SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (cfd < 0) break;  // EAGAIN: accepted everything pending
          const int one = 1;
          ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          auto conn = std::make_shared<Connection>();
          conn->fd = cfd;
          conn->id = nextConnId_++;
          conns_.emplace(conn->id, conn);
          fdToConn_.emplace(cfd, conn->id);
          epollAdd(epollFd_, cfd, EPOLLIN);
          connsAccepted_->add();
          openConns_->set(static_cast<double>(conns_.size()));
        }
        continue;
      }
      const auto it = fdToConn_.find(fd);
      if (it == fdToConn_.end()) continue;  // closed earlier this wake
      // Copy the shared_ptr: handleReadable may close the connection and
      // erase the map entry a reference would still point into.
      const std::shared_ptr<Connection> conn = conns_.at(it->second);
      handleReadable(conn);
    }
  }
}

void NetServer::handleReadable(const std::shared_ptr<Connection>& conn) {
  TRACE_SCOPE("serve", "net_read");
  std::uint8_t buf[1 << 16];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->decoder.feed(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    eof = true;  // ECONNRESET and friends
    break;
  }

  proto::Frame frame;
  while (conn->decoder.next(frame)) {
    framesIn_->add();
    dispatchFrame(conn, std::move(frame));
  }
  if (conn->decoder.failed()) {
    // Framing is gone: one best-effort error reply, then hang up.
    protocolErrors_->add();
    errorsOut_->add();
    writeFrame(*conn, proto::encodeError(0, proto::ErrorCode::kBadRequest,
                                         conn->decoder.error()));
    closeConnection(conn->id);
    return;
  }
  if (eof) closeConnection(conn->id);
}

void NetServer::dispatchFrame(const std::shared_ptr<Connection>& conn,
                              proto::Frame&& frame) {
  if (!frame.isRequest()) {
    // Clients must not send reply frames; treat as a protocol violation.
    protocolErrors_->add();
    errorsOut_->add();
    writeFrame(*conn,
               proto::encodeError(frame.requestId,
                                  proto::ErrorCode::kBadRequest,
                                  "only request frames are accepted"));
    closeConnection(conn->id);
    return;
  }
  const bool isPredict = frame.type == proto::MsgType::kPredictSpectrum;
  // Validate at the edge so garbage payloads never enter serve accounting.
  const bool valid =
      isPredict ? (!frame.values.empty() && frame.values.size() % 6 == 0)
                : !frame.values.empty();
  if (!valid) {
    errorsOut_->add();
    writeFrame(*conn,
               proto::encodeError(
                   frame.requestId, proto::ErrorCode::kBadRequest,
                   isPredict ? "PredictSpectrum payload must be a non-empty "
                               "flattened [points x 6] cloud"
                             : "InvertSpectrum payload must be a non-empty "
                               "spectrum"));
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    // Counted as submitted and rejected, as InferenceServer::submit counts
    // a request to a shut-down server: every answer has a submission.
    const Endpoint endpoint =
        isPredict ? Endpoint::kPredictSpectrum : Endpoint::kInvertSpectrum;
    metrics_->recordSubmitted(endpoint);
    metrics_->recordRejected(endpoint);
    errorsOut_->add();
    writeFrame(*conn, proto::encodeError(frame.requestId,
                                         proto::ErrorCode::kShuttingDown,
                                         "server is stopping"));
    return;
  }
  const std::uint64_t deadline = frame.meta;  // 0 = none
  Shard& shard = *shards_[pickShard()];
  PendingReply p;
  p.conn = conn;
  p.requestId = frame.requestId;
  p.future =
      isPredict
          ? shard.server->predictSpectrum(std::move(frame.values), deadline)
          : shard.server->invertSpectrum(std::move(frame.values), deadline);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.pending.push_back(std::move(p));
  }
  shard.cv.notify_one();
}

std::size_t NetServer::pickShard() {
  if (shards_.size() == 1) return 0;
  const std::uint64_t hint =
      nextShard_.fetch_add(1, std::memory_order_relaxed);
  // Snapshot the per-shard queue depths (the counts the batchers already
  // maintain), then pick the shallowest; the rotating hint both spreads
  // ties and keeps the scan O(shards) worst case.
  for (std::size_t s = 0; s < shards_.size(); ++s)
    depthScratch_[s] = shards_[s]->server->queueDepth();
  return pickLeastLoadedShard(depthScratch_.data(), depthScratch_.size(),
                              hint);
}

void NetServer::collectorLoop(Shard& shard) {
  for (;;) {
    PendingReply p;
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      shard.cv.wait(lock,
                    [&] { return shard.stopped || !shard.pending.empty(); });
      if (shard.pending.empty()) return;  // stopped and fully flushed
      p = std::move(shard.pending.front());
      shard.pending.pop_front();
    }
    std::vector<std::uint8_t> bytes;
    try {
      InferenceResult res = p.future.get();
      bytes = proto::encodeReply(p.requestId, res.snapshotVersion,
                                 static_cast<std::uint32_t>(res.batchSize),
                                 res.values);
      repliesOut_->add();
    } catch (const ShedError& e) {
      bytes = proto::encodeError(p.requestId, proto::ErrorCode::kShed,
                                 e.what());
      errorsOut_->add();
    } catch (const DeadlineError& e) {
      bytes = proto::encodeError(p.requestId,
                                 proto::ErrorCode::kDeadlineExceeded,
                                 e.what());
      errorsOut_->add();
    } catch (const ShutdownError& e) {
      bytes = proto::encodeError(p.requestId,
                                 proto::ErrorCode::kShuttingDown, e.what());
      errorsOut_->add();
    } catch (const std::exception& e) {
      bytes = proto::encodeError(p.requestId, proto::ErrorCode::kInternal,
                                 e.what());
      errorsOut_->add();
    }
    writeFrame(*p.conn, bytes);
  }
}

void NetServer::closeConnection(std::uint64_t connId) {
  const auto it = conns_.find(connId);
  if (it == conns_.end()) return;
  const std::shared_ptr<Connection>& conn = it->second;
  conn->closed.store(true);
  ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  fdToConn_.erase(conn->fd);
  conns_.erase(it);  // fd closes when in-flight replies drop the last ref
  connsClosed_->add();
  openConns_->set(static_cast<double>(conns_.size()));
}

bool NetServer::writeFrame(Connection& conn,
                           const std::vector<std::uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(conn.writeMutex);
  std::size_t off = 0;
  int stalls = 0;
  while (off < bytes.size()) {
    if (conn.closed.load(std::memory_order_acquire)) return false;
    const ssize_t n = ::send(conn.fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      stalls = 0;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Backpressure: the peer is slow. Wait for drainage, but give up on
      // a peer that stops reading entirely (~5 s) so shutdown can't hang.
      pollfd pfd{conn.fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
      if (++stalls >= 50) {
        conn.closed.store(true);
        return false;
      }
      continue;
    }
    conn.closed.store(true);  // EPIPE / ECONNRESET: peer is gone
    return false;
  }
  return true;
}

}  // namespace artsci::serve
