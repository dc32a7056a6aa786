#include "serve/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/metrics.hpp"

namespace artsci::serve {

NetClient::NetClient(const std::string& host, std::uint16_t port,
                     NetClientOptions options)
    : host_(host),
      port_(port),
      options_(options),
      jitterRng_(options.jitterSeed) {
  connectSocket();
}

void NetClient::connectSocket() {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ARTSCI_CHECK_MSG(fd_ >= 0, "socket(): " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  ARTSCI_CHECK_MSG(::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) == 1,
                   "bad address '" << host_ << "'");

  const auto fail = [&](const std::string& what) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    // Transport failures (peer down, refused) must be retryable —
    // RuntimeError, not a contract violation.
    throw RuntimeError("connect(" + host_ + ":" + std::to_string(port_) +
                       "): " + what +
                       (err != 0 ? std::string(": ") + std::strerror(err)
                                 : std::string()));
  };

  if (options_.connectTimeoutMillis == 0) {
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      fail("failed");
  } else {
    // Deadline-bounded connect: non-blocking connect + poll(POLLOUT) +
    // SO_ERROR, then back to blocking mode for the simple I/O paths.
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      if (errno != EINPROGRESS) fail("failed");
      pollfd pfd{fd_, POLLOUT, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(options_.connectTimeoutMillis));
      if (ready == 0) {
        ::close(fd_);
        fd_ = -1;
        throw NetTimeoutError("connect(" + host_ + ":" +
                              std::to_string(port_) + ") timed out after " +
                              std::to_string(options_.connectTimeoutMillis) +
                              " ms");
      }
      if (ready < 0) fail("poll failed");
      int soError = 0;
      socklen_t len = sizeof(soError);
      ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soError, &len);
      if (soError != 0) {
        errno = soError;
        fail("failed");
      }
    }
    ::fcntl(fd_, F_SETFL, flags);
  }

  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.recvTimeoutMillis > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(options_.recvTimeoutMillis / 1000);
    tv.tv_usec =
        static_cast<suseconds_t>((options_.recvTimeoutMillis % 1000) * 1000);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
}

NetClient::~NetClient() {
  if (fd_ >= 0) ::close(fd_);
}

void NetClient::sendBytes(const void* data, std::size_t n) {
  ARTSCI_CHECK_MSG(fd_ >= 0, "send on closed client");
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd_, p + off, n - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0)
      throw RuntimeError(std::string("send(): ") +
                         (w == 0 ? "connection closed"
                                 : std::strerror(errno)));
    off += static_cast<std::size_t>(w);
  }
}

proto::Frame NetClient::recvFrame() {
  proto::Frame frame;
  std::uint8_t buf[1 << 14];
  for (;;) {
    if (decoder_.next(frame)) return frame;
    ARTSCI_CHECK_MSG(!decoder_.failed(),
                     "protocol violation from server: " << decoder_.error());
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      throw NetTimeoutError("no reply within " +
                            std::to_string(options_.recvTimeoutMillis) +
                            " ms recv deadline");
    // EOF/reset is an expected peer-side condition, not a contract bug.
    if (n <= 0)
      throw RuntimeError(std::string("connection lost while awaiting frame: ") +
                         (n == 0 ? "closed by server" : std::strerror(errno)));
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
}

void NetClient::shutdownWrite() { ::shutdown(fd_, SHUT_WR); }

NetReply NetClient::roundTripOnce(proto::MsgType type,
                                  const std::vector<ml::Real>& values,
                                  std::uint64_t deadlineMicros,
                                  std::uint64_t id) {
  sendFrame(proto::encodeRequest(type, id, deadlineMicros, values));
  proto::Frame f = recvFrame();
  ARTSCI_CHECK_MSG(f.requestId == id, "reply id " << f.requestId
                                                  << " != request id " << id);
  if (f.type == proto::MsgType::kError)
    throw NetError(static_cast<proto::ErrorCode>(f.aux), f.message);
  ARTSCI_CHECK_MSG(f.type == proto::MsgType::kReply,
                   "unexpected frame type from server");
  NetReply r;
  r.values = std::move(f.values);
  r.requestId = f.requestId;
  r.snapshotVersion = f.meta;
  r.batchSize = f.aux;
  return r;
}

NetReply NetClient::roundTrip(proto::MsgType type,
                              const std::vector<ml::Real>& values,
                              std::uint64_t deadlineMicros) {
  const std::uint64_t id = nextId_++;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return roundTripOnce(type, values, deadlineMicros, id);
    } catch (const NetError&) {
      throw;  // the server answered — retrying would duplicate the request
    } catch (const RuntimeError&) {
      // Transport failure (timeout, reset, refused reconnect): the server
      // never replied. Retry with fresh connection state — the old socket
      // may hold half a frame, so the decoder must be rebuilt too.
      if (attempt >= options_.maxRetries) throw;
      obs::Registry::global().counter("net.retries").add();
      const std::uint64_t expo = std::min(
          options_.backoffMaxMillis,
          options_.backoffBaseMillis << std::min<std::size_t>(attempt, 16));
      // Jitter in [0.5, 1.0) de-synchronizes clients hammering a
      // recovering server.
      const auto backoff = static_cast<std::uint64_t>(
          static_cast<double>(expo) * jitterRng_.uniform(0.5, 1.0));
      if (backoff > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      if (fd_ >= 0) ::close(fd_);
      fd_ = -1;
      decoder_ = proto::FrameDecoder();
      connectSocket();
    }
  }
}

NetReply NetClient::predictSpectrum(const std::vector<ml::Real>& cloud,
                                    std::uint64_t deadlineMicros) {
  return roundTrip(proto::MsgType::kPredictSpectrum, cloud, deadlineMicros);
}

NetReply NetClient::invertSpectrum(const std::vector<ml::Real>& spectrum,
                                   std::uint64_t deadlineMicros) {
  return roundTrip(proto::MsgType::kInvertSpectrum, spectrum, deadlineMicros);
}

}  // namespace artsci::serve
