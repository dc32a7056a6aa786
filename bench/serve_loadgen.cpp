/// Open-loop load generator for the TCP serving front end (src/serve):
/// offers a fixed request rate over real sockets — senders pace by the
/// clock, never by replies, so queueing delay shows up as tail latency the
/// way it does for production clients — and reports p50/p99/p99.9 per
/// endpoint across a sweep of offered QPS.
///
///   ./bench/bench_serve_loadgen [points=32] [requests=2000] [shards=1]
///                               [qps=1000,2000,4000] [deadline_us=0]
///                               [json=<path>]
///
/// Acceptance mode (CI gate; also reachable as `acceptance=1`):
///
///   ./bench/bench_serve_loadgen --acceptance --json BENCH_serve_loadgen.json
///
/// measures saturated closed-loop throughput at 1 shard vs `shards=4`
/// (cores pinned) and reports their ratio without gating it: perfbench's
/// serve_mixed workload catches sharding switched off end to end. It
/// gates a bounded p99 at the high shard count and hot-swap safety:
/// snapshots republish continuously during the 4-shard run and every
/// request must be answered.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/model.hpp"
#include "serve/client.hpp"
#include "serve/net_server.hpp"

using namespace artsci;
namespace proto = artsci::serve::proto;

namespace {

using Clock = std::chrono::steady_clock;

/// A wedged server must fail the bench, not hang CI: generous-but-finite
/// connect/recv deadlines on every load-generator connection
/// (serve/client.hpp timeout options). Retries stay off — a lost reply
/// should show up in the numbers, not be papered over.
serve::NetClientOptions loadgenClientOptions() {
  serve::NetClientOptions opts;
  opts.connectTimeoutMillis = 2'000;
  opts.recvTimeoutMillis = 10'000;
  return opts;
}

struct RunResult {
  double offeredQps = 0;   ///< what the sender tried to offer
  double achievedQps = 0;  ///< replies per wall-clock second
  double p50 = 0, p99 = 0, p999 = 0;  ///< end-to-end micros (successes)
  std::size_t ok = 0, shed = 0, deadline = 0, errors = 0;
};

/// One open-loop run: a sender paces `requests` frames at `offeredQps`
/// over a single connection while a reader drains replies and stamps
/// end-to-end latency. Senders never wait for replies — overload turns
/// into queueing delay and sheds, exactly what the sweep wants to see.
RunResult openLoopRun(std::uint16_t port, proto::MsgType type,
                      const std::vector<ml::Real>& payload, long requests,
                      double offeredQps, std::uint64_t deadlineMicros) {
  serve::NetClient client("127.0.0.1", port, loadgenClientOptions());
  std::vector<Clock::time_point> sentAt(static_cast<std::size_t>(requests));
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(requests));
  RunResult res;
  res.offeredQps = offeredQps;

  std::thread reader([&] {
    for (long i = 0; i < requests; ++i) {
      proto::Frame f;
      try {
        f = client.recvFrame();
      } catch (const RuntimeError&) {
        res.errors += static_cast<std::size_t>(requests - i);
        return;
      }
      const auto now = Clock::now();
      if (f.type == proto::MsgType::kReply) {
        ++res.ok;
        const auto& t0 = sentAt[static_cast<std::size_t>(f.requestId - 1)];
        latencies.push_back(
            std::chrono::duration<double, std::micro>(now - t0).count());
      } else if (static_cast<proto::ErrorCode>(f.aux) ==
                 proto::ErrorCode::kShed) {
        ++res.shed;
      } else if (static_cast<proto::ErrorCode>(f.aux) ==
                 proto::ErrorCode::kDeadlineExceeded) {
        ++res.deadline;
      } else {
        ++res.errors;
      }
    }
  });

  const auto start = Clock::now();
  const double periodUs = 1e6 / offeredQps;
  for (long i = 0; i < requests; ++i) {
    // Absolute schedule: send i fires at start + i*period regardless of
    // how long earlier sends took (open loop, no coordinated omission).
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(
                    static_cast<std::int64_t>(periodUs * i)));
    sentAt[static_cast<std::size_t>(i)] = Clock::now();
    client.sendFrame(proto::encodeRequest(
        type, static_cast<std::uint64_t>(i) + 1, deadlineMicros, payload));
  }
  reader.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  res.achievedQps = static_cast<double>(res.ok) / seconds;
  if (!latencies.empty()) {
    res.p50 = stats::quantile(latencies, 0.50);
    res.p99 = stats::quantile(latencies, 0.99);
    res.p999 = stats::quantile(latencies, 0.999);
  }
  return res;
}

/// Saturated closed-loop throughput: `clients` connections each pipeline
/// `perClient` requests and drain replies; returns total replies/s. Used
/// by the acceptance gate where the question is capacity, not tail shape.
double saturatedQps(std::uint16_t port, const std::vector<ml::Real>& payload,
                    int clients, long perClient, double* p99Out) {
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> lats(static_cast<std::size_t>(clients));
  std::atomic<long> completed{0};
  Timer timer;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::NetClient client("127.0.0.1", port, loadgenClientOptions());
      std::vector<Clock::time_point> sentAt(
          static_cast<std::size_t>(perClient));
      std::thread reader([&] {
        for (long i = 0; i < perClient; ++i) {
          const proto::Frame f = client.recvFrame();
          if (f.type != proto::MsgType::kReply) continue;
          lats[static_cast<std::size_t>(c)].push_back(
              std::chrono::duration<double, std::micro>(
                  Clock::now() -
                  sentAt[static_cast<std::size_t>(f.requestId - 1)])
                  .count());
          completed.fetch_add(1);
        }
      });
      for (long i = 0; i < perClient; ++i) {
        sentAt[static_cast<std::size_t>(i)] = Clock::now();
        client.sendFrame(proto::encodeRequest(
            proto::MsgType::kPredictSpectrum,
            static_cast<std::uint64_t>(i) + 1, 0, payload));
      }
      reader.join();
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = timer.seconds();
  if (p99Out != nullptr) {
    std::vector<double> all;
    for (auto& l : lats) all.insert(all.end(), l.begin(), l.end());
    *p99Out = all.empty() ? 0.0 : stats::quantile(all, 0.99);
  }
  return static_cast<double>(completed.load()) / seconds;
}

serve::NetServerConfig serverConfig(std::size_t shards, long requests) {
  serve::NetServerConfig cfg;
  cfg.shards = shards;
  cfg.policy.maxBatch = 32;
  cfg.policy.maxQueueDepth = static_cast<std::size_t>(requests) + 64;
  cfg.pinCores = shards > 1;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  Config cli = Config::fromArgs(argc, argv);
  // Accept the documented `--acceptance [--json <path>]` flag style on top
  // of the repo's key=value convention.
  const auto& pos = cli.positional();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (pos[i] == "--acceptance") cli.set("acceptance", "1");
    if (pos[i] == "--json" && i + 1 < pos.size())
      cli.set("json", pos[i + 1]);
  }

  const bool acceptance = cli.getBool("acceptance", false);
  // Acceptance wants compute-bound requests (worker scaling is the thing
  // under test, not framing throughput): default to the pipeline's
  // 128-point clouds there, smaller ones for the latency sweep.
  const long points = cli.getInt("points", acceptance ? 128 : 32);
  const long requests = cli.getInt("requests", 2000);
  const std::size_t shards =
      static_cast<std::size_t>(cli.getInt("shards", 1));
  const std::uint64_t deadlineUs =
      static_cast<std::uint64_t>(cli.getInt("deadline_us", 0));
  const double p99BoundMs = cli.getDouble("p99_bound_ms", 500.0);
  const std::string jsonPath = cli.getString("json", "");

  Rng rng(1);
  core::ArtificialScientistModel model(
      core::ArtificialScientistModel::Config::reduced(), rng);
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->publish(core::cloneForInference(model), "loadgen");

  std::vector<ml::Real> cloud(static_cast<std::size_t>(points) * 6);
  for (auto& v : cloud) v = rng.normal();
  const long S = model.config().spectrumDim;
  std::vector<ml::Real> spectrum(static_cast<std::size_t>(S), 0.2);

  if (!acceptance) {
    // --- open-loop QPS sweep, per endpoint ------------------------------
    std::vector<double> qpsLevels;
    {
      std::string spec = cli.getString("qps", "1000,2000,4000");
      std::size_t from = 0;
      while (from < spec.size()) {
        std::size_t comma = spec.find(',', from);
        if (comma == std::string::npos) comma = spec.size();
        qpsLevels.push_back(std::stod(spec.substr(from, comma - from)));
        from = comma + 1;
      }
    }
    serve::NetServer server(serverConfig(shards, requests), registry);
    std::printf("serve_loadgen: reduced model, %ld-point clouds, %ld "
                "requests per level, %zu shard(s)\n\n",
                points, requests, shards);
    std::printf("%-8s %10s %12s %10s %10s %10s %6s %6s\n", "endpoint",
                "offered", "achieved", "p50(us)", "p99(us)", "p99.9(us)",
                "shed", "ddl");
    std::FILE* jf = nullptr;
    if (!jsonPath.empty()) {
      jf = std::fopen(jsonPath.c_str(), "w");
      if (jf == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", jsonPath.c_str());
        return 2;
      }
      std::fprintf(jf, "{\n  \"bench\": \"serve_loadgen\",\n"
                       "  \"shards\": %zu,\n  \"points\": %ld,\n"
                       "  \"sweep\": [\n", shards, points);
    }
    bool first = true;
    struct EndpointCase {
      const char* name;
      proto::MsgType type;
      const std::vector<ml::Real>& payload;
    };
    const EndpointCase cases[] = {
        {"predict", proto::MsgType::kPredictSpectrum, cloud},
        {"invert", proto::MsgType::kInvertSpectrum, spectrum}};
    for (const auto& [name, type, payload] : cases) {
      // Warm-up: engine construction off the clock.
      openLoopRun(server.port(), type, payload, 32, 1000.0, 0);
      for (double qps : qpsLevels) {
        const RunResult r = openLoopRun(server.port(), type, payload,
                                        requests, qps, deadlineUs);
        std::printf("%-8s %10.0f %12.0f %10.0f %10.0f %10.0f %6zu %6zu\n",
                    name, r.offeredQps, r.achievedQps, r.p50, r.p99, r.p999,
                    r.shed, r.deadline);
        if (jf != nullptr) {
          std::fprintf(jf,
                       "%s    {\"endpoint\": \"%s\", \"offered_qps\": %.0f, "
                       "\"achieved_qps\": %.1f, \"p50_us\": %.1f, "
                       "\"p99_us\": %.1f, \"p999_us\": %.1f, "
                       "\"shed\": %zu, \"deadline\": %zu}",
                       first ? "" : ",\n", name, r.offeredQps, r.achievedQps,
                       r.p50, r.p99, r.p999, r.shed, r.deadline);
          first = false;
        }
      }
    }
    if (jf != nullptr) {
      std::fprintf(jf, "\n  ]\n}\n");
      std::fclose(jf);
    }
    return 0;
  }

  // --- acceptance gate ---------------------------------------------------
  const int clients = 4;
  const long perClient = cli.getInt("per_client", 1500);
  std::printf("serve_loadgen acceptance: reduced model, %ld-point clouds, "
              "%d pipelined clients x %ld requests\n\n",
              points, clients, perClient);

  double qps1 = 0, qps4 = 0, p99_1 = 0, p99_4 = 0;
  {
    serve::NetServer one(serverConfig(1, clients * perClient), registry);
    saturatedQps(one.port(), cloud, 1, 64, nullptr);  // warm-up
    qps1 = saturatedQps(one.port(), cloud, clients, perClient, &p99_1);
  }
  std::printf("1 shard : %8.0f req/s  (p99 %.1f ms)\n", qps1, p99_1 / 1e3);

  // The 4-shard leg doubles as the hot-swap soak: snapshots republish
  // continuously under live socket load; the gate below requires every
  // request answered and completions intact.
  std::atomic<bool> swapping{true};
  (void)shards;  // acceptance fixes the shard counts at 1 and 4
  std::uint64_t submittedBefore = 0, answered = 0, submitted = 0;
  {
    serve::NetServer four(serverConfig(4, clients * perClient), registry);
    saturatedQps(four.port(), cloud, 1, 64, nullptr);  // warm-up
    submittedBefore = four.metrics().predict.submitted;
    std::thread publisher([&] {
      auto alt = core::cloneForInference(model);
      while (swapping.load()) {
        registry->publish(alt, "hot-swap");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    qps4 = saturatedQps(four.port(), cloud, clients, perClient, &p99_4);
    swapping.store(false);
    publisher.join();
    const auto rep = four.metrics();
    submitted = rep.predict.submitted - submittedBefore;
    answered = rep.predict.completed + rep.predict.rejected +
               rep.predict.shed + rep.predict.deadlineTimeouts -
               submittedBefore;
  }
  std::printf("4 shards: %8.0f req/s  (p99 %.1f ms, hot-swapping "
              "throughout)\n\n",
              qps4, p99_4 / 1e3);

  const double ratio = qps4 / qps1;
  const bool p99Pass = p99_4 / 1e3 <= p99BoundMs;
  const bool swapPass =
      answered == submitted &&
      submitted >= static_cast<std::uint64_t>(clients * perClient);
  std::printf("multi-worker scaling: %.2fx (reported, not gated)\n", ratio);
  std::printf("p99 at 4 shards: %.1f ms (bound %.0f ms: %s)\n", p99_4 / 1e3,
              p99BoundMs, p99Pass ? "PASS" : "FAIL");
  std::printf("hot-swap accounting: %llu/%llu answered (%s)\n",
              static_cast<unsigned long long>(answered),
              static_cast<unsigned long long>(submitted),
              swapPass ? "PASS" : "FAIL");

  if (!jsonPath.empty()) {
    std::FILE* f = std::fopen(jsonPath.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", jsonPath.c_str());
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"serve_loadgen\",\n"
                 "  \"setup\": \"reduced_model_%ldpt_4clients_pipelined\",\n"
                 "  \"qps_1shard\": %.1f,\n"
                 "  \"qps_4shard\": %.1f,\n"
                 "  \"ratio\": %.4f,\n"
                 "  \"p99_ms_4shard\": %.2f,\n"
                 "  \"p99_bound_ms\": %.1f,\n"
                 "  \"hot_swap_answered\": %llu,\n"
                 "  \"hot_swap_submitted\": %llu,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 points, qps1, qps4, ratio, p99_4 / 1e3, p99BoundMs,
                 static_cast<unsigned long long>(answered),
                 static_cast<unsigned long long>(submitted),
                 p99Pass && swapPass ? "true" : "false");
    std::fclose(f);
  }
  return p99Pass && swapPass ? 0 : 1;
}
