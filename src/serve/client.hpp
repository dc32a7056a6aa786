/// \file client.hpp
/// A minimal blocking TCP client for the ASV1 protocol (protocol.hpp).
/// One connection, synchronous request/reply round-trips — the shape the
/// conformance tests and the load generator need. Also exposes the raw
/// frame plumbing (sendBytes/sendFrame/recvFrame) so tests can write
/// torn, pipelined, or malformed byte streams directly.
///
/// Fault tolerance (NetClientOptions): connect and recv deadlines turn a
/// hung server into a typed NetTimeoutError instead of an indefinite
/// block, and `maxRetries > 0` makes predictSpectrum/invertSpectrum
/// transparently reconnect and resend after transport failures with
/// bounded jittered-exponential backoff. Replies the server actually
/// produced (including kError frames) are never retried — retrying only
/// ever re-asks a question the server never answered, so the server-side
/// exactly-one-reply invariant is preserved end to end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/tensor.hpp"
#include "serve/protocol.hpp"

namespace artsci::serve {

/// The server answered with a kError frame; `code` says why.
class NetError : public RuntimeError {
 public:
  NetError(proto::ErrorCode code, const std::string& message)
      : RuntimeError(std::string(proto::errorCodeName(code)) + ": " +
                     message),
        code_(code) {}
  proto::ErrorCode code() const { return code_; }

 private:
  proto::ErrorCode code_;
};

/// A connect or receive deadline expired (NetClientOptions timeouts).
class NetTimeoutError : public RuntimeError {
 public:
  using RuntimeError::RuntimeError;
};

/// One server reply, already decoded.
struct NetReply {
  std::vector<ml::Real> values;
  std::uint64_t requestId = 0;
  std::uint64_t snapshotVersion = 0;
  std::uint32_t batchSize = 0;
};

/// Timeout / retry policy. Defaults reproduce the original client: block
/// forever, never retry.
struct NetClientOptions {
  std::uint64_t connectTimeoutMillis = 0;  ///< 0 = blocking connect
  std::uint64_t recvTimeoutMillis = 0;     ///< 0 = block for the reply
  /// Transport-failure retries per round-trip (reconnect + resend). 0
  /// disables. Only timeouts and connection failures are retried, never
  /// kError replies.
  std::size_t maxRetries = 0;
  std::uint64_t backoffBaseMillis = 5;  ///< doubles per attempt...
  std::uint64_t backoffMaxMillis = 200; ///< ...capped here
  std::uint64_t jitterSeed = 0x7ab1eULL;  ///< deterministic jitter stream
};

class NetClient {
 public:
  /// Connects to host:port (blocking by default); throws RuntimeError on
  /// connect failure, NetTimeoutError when the connect deadline expires.
  /// Reply frames are capped at proto::kDefaultMaxPayloadBytes.
  NetClient(const std::string& host, std::uint16_t port,
            NetClientOptions options = {});
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Round-trip: send a PredictSpectrum request, block for its reply.
  /// Throws NetError if the server answers kError, NetTimeoutError when
  /// the recv deadline expires (after retries), RuntimeError if the
  /// connection drops (after retries).
  NetReply predictSpectrum(const std::vector<ml::Real>& cloud,
                           std::uint64_t deadlineMicros = 0);
  /// Round-trip for InvertSpectrum; same error contract.
  NetReply invertSpectrum(const std::vector<ml::Real>& spectrum,
                          std::uint64_t deadlineMicros = 0);

  // --- raw plumbing (tests, pipelined load generation) -------------------

  /// Send an encoded request frame without waiting for the reply.
  void sendFrame(const std::vector<std::uint8_t>& bytes) {
    sendBytes(bytes.data(), bytes.size());
  }
  /// Write arbitrary bytes — torn frames, garbage, partial headers.
  /// Throws RuntimeError when the connection is gone.
  void sendBytes(const void* data, std::size_t n);
  /// Block until one full frame arrives (reply or error, as sent).
  /// Throws NetTimeoutError when the recv deadline expires, RuntimeError
  /// on EOF/reset or a protocol violation from the server side.
  proto::Frame recvFrame();

  /// Half-close the write side (server sees EOF, replies still readable).
  void shutdownWrite();

 private:
  void connectSocket();
  NetReply roundTrip(proto::MsgType type, const std::vector<ml::Real>& values,
                     std::uint64_t deadlineMicros);
  NetReply roundTripOnce(proto::MsgType type,
                         const std::vector<ml::Real>& values,
                         std::uint64_t deadlineMicros, std::uint64_t id);

  std::string host_;
  std::uint16_t port_ = 0;
  NetClientOptions options_;
  Rng jitterRng_;
  int fd_ = -1;
  std::uint64_t nextId_ = 1;
  proto::FrameDecoder decoder_;
};

}  // namespace artsci::serve
