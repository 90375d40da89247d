// serve-mix: one forked compile daemon (the shape of `cfdc --serve`),
// driven by two closed-loop clients — each sends its next compile only
// after the previous reply. Requests are a seeded, skewed draw over small
// Helmholtz variants, so repeats (cache reads) mix with first-seen
// variants (compile, then publish to the stage and flow caches). Every
// response is checked against an in-process compile of the same
// request made during setup. Set-up also warms each client connection
// with one compile outside the mix, so the timed latencies are those
// of a running daemon, not of its start-up.
//
// The daemon runs without a disk store. On a virtual disk, a store fed
// at this workload's rate (over a thousand entry files a second) slows
// file creation three- to fourfold within seconds, and that drift, not
// the daemon, set the spread of every timing here. The store's publish
// and load paths are replayed by the traced chain-sweep run.
#include "Bench.h"
#include "Inputs.h"
#include "Replay.h"

#include "core/Session.h"
#include "serve/Client.h"
#include "serve/Server.h"

#include <algorithm>
#include <csignal>
#include <limits>
#include <map>
#include <optional>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

namespace {

constexpr int kRequestsPerRound = 240;
/// Closed-loop clients, and daemon workers. Each request hops through
/// four threads (client, daemon reader, worker, responder); with as
/// many requests in flight as cores, the tail latency times the host's
/// scheduler rather than the daemon's cold compiles.
constexpr int kMaxClients = 2;
/// The warm-up compile: a Helmholtz extent outside the mix (4..16), so
/// it shares no cache entry with a timed request.
constexpr int kWarmUpExtent = 3;

cfd::serve::Server* gDaemonServer = nullptr;

extern "C" void onDaemonStopSignal(int) {
  if (gDaemonServer != nullptr)
    gDaemonServer->requestStop(); // async-signal-safe
}

/// A forked daemon process; the destructor stops and reaps it, so no
/// exit path leaves it running.
class Daemon {
public:
  Daemon(std::string socket, int workers)
      : socket_(std::move(socket)), workers_(workers) {}
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Forks the daemon and waits until it accepts connections. Must run
  /// while this process has no other threads.
  bool start(std::string& error) {
    pid_ = ::fork();
    if (pid_ < 0) {
      error = "fork failed";
      return false;
    }
    if (pid_ == 0)
      serve();
    const auto start = Clock::now();
    while (millisSince(start) < 15000) {
      if (cfd::serve::Client::connect(socket_).ok())
        return true;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        error = "daemon exited before accepting";
        return false;
      }
      ::usleep(1000);
    }
    error = "daemon did not accept within 15 s";
    return false;
  }

  /// SIGTERM (graceful drain), bounded wait, SIGKILL, reap. Idempotent.
  void stop() {
    if (pid_ <= 0)
      return;
    ::kill(pid_, SIGTERM);
    const auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (millisSince(start) > 5000) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(1000);
    }
    pid_ = -1;
  }

private:
  [[noreturn]] void serve() {
    const int devNull = ::open("/dev/null", O_WRONLY);
    if (devNull >= 0) {
      ::dup2(devNull, STDOUT_FILENO);
      ::dup2(devNull, STDERR_FILENO);
      ::close(devNull);
    }
    {
      cfd::Session session(cfd::SessionOptions{.workers = workers_});
      cfd::serve::Server server(session, {.socketPath = socket_});
      if (!server.start().ok())
        ::_exit(1);
      gDaemonServer = &server;
      std::signal(SIGTERM, onDaemonStopSignal);
      server.join();
      gDaemonServer = nullptr;
    }
    // _exit: the child must not flush the parent's stdio buffers.
    ::_exit(0);
  }

  const std::string socket_;
  const int workers_;
  pid_t pid_ = -1;
};

/// What an in-process compile of one variant produced.
struct Reference {
  std::string cCode;
  std::string mnemosyne;
  double kernelCycles = 0;
};

struct Outcome {
  bool answered = false;
  double latencyMs = 0;
  cfd::serve::Request request;
  std::optional<cfd::serve::Response> response;
};

cfd::serve::Request compileRequest(const ServeVariant& variant,
                                   std::int64_t id) {
  cfd::serve::Request request;
  request.kind = cfd::serve::RequestKind::Compile;
  request.id = id;
  request.source = helmholtzSource(variant.extent);
  request.params = variant.params;
  request.artifacts = {"c", "mnemosyne"};
  return request;
}

/// Set-up: opens one connection per client and sends a compile on each
/// at once, so the fresh daemon's first requests (copy-on-write faults,
/// thread and allocator start-up) stay out of the timed latencies.
bool warmUp(const std::string& socket,
            std::vector<cfd::serve::Client>& connections) {
  std::vector<char> ok(connections.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections.size(); ++c)
    threads.emplace_back([&, c] {
      auto client = cfd::serve::Client::connect(socket);
      if (!client.ok())
        return;
      connections[c] = std::move(*client);
      const auto reply = connections[c].call(compileRequest(
          {kWarmUpExtent, {{"unroll", "1"}, {"sharing", "0"}, {"m", "1"}}},
          kRequestsPerRound + 1 + static_cast<std::int64_t>(c)));
      ok[c] = reply.ok() && reply->ok;
    });
  for (std::thread& thread : threads)
    thread.join();
  return std::all_of(ok.begin(), ok.end(), [](char c) { return c != 0; });
}

std::int64_t counter(const cfd::json::Value& status, const char* group,
                     const char* name) {
  return status.at(group).at(name).asInt();
}

struct DaemonStatus {
  cfd::json::Value value;
  std::int64_t calls = 0; ///< status requests it took
};

/// The daemon's status once every request but the status itself is
/// answered. The daemon counts a response after writing it, so a client
/// can hold its reply before the count moves; this asks again (for up to
/// a second) until the counts settle, and returns the last status.
std::optional<DaemonStatus> daemonStatus(const std::string& socket) {
  auto client = cfd::serve::Client::connect(socket);
  if (!client.ok())
    return std::nullopt;
  DaemonStatus status;
  while (status.calls < 1000) {
    cfd::serve::Request request;
    request.kind = cfd::serve::RequestKind::Status;
    const auto reply = client->call(request);
    if (!reply.ok() || !reply->ok)
      return std::nullopt;
    status.value = reply->result;
    ++status.calls;
    if (counter(status.value, "server", "responses_sent") + 1 ==
        counter(status.value, "server", "requests_received"))
      break;
    ::usleep(1000);
  }
  return status;
}

} // namespace

WorkloadResult runServeMix(const RunOptions& options, Tracer& tracer) {
  WorkloadResult result;
  const int clientCount = std::min(kMaxClients, options.threads);
  std::vector<double> setupSeconds, throughput, p50Ms, p99Ms, coldMs,
      bestCycles;
  std::vector<double> compileMs, overheadMs, firstSeen;
  std::vector<double> flowHits, flowMisses, stageHits, stageMisses;
  std::vector<double> protocolErrors;
  std::vector<Outcome> lastRound;
  std::vector<ServeVariant> lastDraw;
  double lastLoadMs = 0;

  const auto runStart = Clock::now();
  for (int round = 0; keepGoing(round, runStart, options.seconds); ++round) {
    const auto setupStart = Clock::now();
    const std::string dir = "serve" + std::to_string(round);
    freshDirectory(dir);
    const std::string socket = dir + "/d.sock";
    const std::vector<ServeVariant> draw =
        drawServeMix(options.seed, round, kRequestsPerRound);
    Daemon daemon(socket, clientCount);
    std::string error;
    if (!daemon.start(error)) {
      result.attempted += kRequestsPerRound;
      result.fail(error, kRequestsPerRound);
      break;
    }
    std::map<std::string, Reference> references;
    {
      cfd::Session local(cfd::SessionOptions{.workers = 1});
      for (const ServeVariant& variant : draw) {
        if (references.count(variant.key()) != 0)
          continue;
        cfd::CompileRequest request(helmholtzSource(variant.extent));
        for (const auto& [key, value] : variant.params)
          request.set(key, value);
        request.materialize(cfd::Artifacts::CCode | cfd::Artifacts::Mnemosyne);
        const auto compiled = local.compile(request);
        Reference& reference = references[variant.key()];
        if (compiled.ok())
          reference = {compiled->cCode(), compiled->mnemosyneConfig(),
                       static_cast<double>(
                           compiled->flow().kernelReport().totalCycles)};
      }
    }
    std::vector<cfd::serve::Client> connections(
        static_cast<std::size_t>(clientCount));
    const bool warm = warmUp(socket, connections);
    const auto before = daemonStatus(socket);
    if (!warm || !before) {
      result.attempted += kRequestsPerRound;
      result.fail("daemon warm-up failed", kRequestsPerRound);
      break;
    }
    setupSeconds.push_back(millisSince(setupStart) / 1000.0);

    // Closed loop: client c sends requests c, c + T, c + 2T, ... one at
    // a time.
    std::vector<Outcome> outcomes(draw.size());
    const auto loadStart = Clock::now();
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < clientCount; ++c)
        clients.emplace_back([&, c] {
          cfd::serve::Client& client = connections[static_cast<std::size_t>(c)];
          for (std::size_t i = static_cast<std::size_t>(c); i < draw.size();
               i += static_cast<std::size_t>(clientCount)) {
            Outcome& outcome = outcomes[i];
            const auto id = static_cast<std::int64_t>(i + 1);
            outcome.request = compileRequest(draw[i], id);
            ScopedSpan span(tracer, "serve.call", 0, id);
            const auto sent = Clock::now();
            auto reply = client.call(outcome.request);
            outcome.latencyMs = millisSince(sent);
            if (!reply.ok())
              return; // connection lost: the rest count as unanswered
            outcome.answered = true;
            outcome.response = std::move(*reply);
          }
        });
      for (std::thread& client : clients)
        client.join();
    }
    const double loadMs = millisSince(loadStart);
    const auto after = daemonStatus(socket);

    // Output checks: every id answered once, by a response equal to
    // the in-process compile.
    result.attempted += static_cast<std::int64_t>(draw.size());
    double roundColdMs = 0;
    std::vector<double> latencies;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < draw.size(); ++i) {
      const Outcome& outcome = outcomes[i];
      const auto id = static_cast<std::int64_t>(i + 1);
      if (!outcome.answered || !outcome.response) {
        result.fail("request " + std::to_string(id) + " unanswered");
        continue;
      }
      const cfd::serve::Response& response = *outcome.response;
      const Reference& reference = references.at(draw[i].key());
      if (response.id != id || !response.ok ||
          !response.result.contains("artifacts") ||
          response.result.at("artifacts").at("c").asString() !=
              reference.cCode ||
          response.result.at("artifacts").at("mnemosyne").asString() !=
              reference.mnemosyne) {
        result.fail("request " + std::to_string(id) + " (" + draw[i].key() +
                    ") differs from the in-process compile");
        continue;
      }
      const double serverMs = response.result.at("compile_ms").asDouble();
      if (!response.result.at("cache_hit").asBool())
        roundColdMs += serverMs;
      latencies.push_back(outcome.latencyMs);
      compileMs.push_back(serverMs);
      overheadMs.push_back(outcome.latencyMs - serverMs);
      best = std::min(best, reference.kernelCycles);
    }
    const auto requests = static_cast<std::int64_t>(draw.size());
    if (!after) {
      result.fail("status request failed");
    } else {
      // Counts since the set-up status. Each status request is received
      // but not yet answered when it reports, so both counts grow by the
      // timed requests plus the status requests made after set-up.
      const auto grew = [&](const char* group, const char* name) {
        return counter(after->value, group, name) -
               counter(before->value, group, name);
      };
      const std::int64_t received = grew("server", "requests_received");
      const std::int64_t sent = grew("server", "responses_sent");
      if (received != requests + after->calls ||
          sent != requests + after->calls)
        result.fail("daemon received " + std::to_string(received) +
                    " requests and sent " + std::to_string(sent) +
                    " responses for " + std::to_string(requests));
      const auto cacheGrew = [&](const char* cache, const char* name) {
        return static_cast<double>(
            counter(after->value.at("stats"), cache, name) -
            counter(before->value.at("stats"), cache, name));
      };
      flowHits.push_back(cacheGrew("flow_cache", "hits"));
      flowMisses.push_back(cacheGrew("flow_cache", "misses"));
      stageHits.push_back(cacheGrew("stage_cache", "hits"));
      stageMisses.push_back(cacheGrew("stage_cache", "misses"));
      protocolErrors.push_back(static_cast<double>(
          counter(after->value, "server", "protocol_errors")));
    }
    connections.clear();
    daemon.stop();
    p50Ms.push_back(percentile(latencies, 50));
    p99Ms.push_back(percentile(latencies, 99));
    throughput.push_back(static_cast<double>(requests) * 1000.0 / loadMs);
    coldMs.push_back(roundColdMs);
    bestCycles.push_back(best);
    firstSeen.push_back(static_cast<double>(references.size()) /
                        static_cast<double>(requests));
    if (tracer.enabled()) {
      lastRound = std::move(outcomes);
      lastDraw = draw;
      lastLoadMs = loadMs;
    }
  }

  // Percentiles per round, median over rounds: a burst of host load
  // that spans a few rounds moves neither.
  setEndToEnd(result, median(setupSeconds), median(throughput),
              median(p50Ms), median(p99Ms), median(coldMs),
              median(bestCycles));
  if (!tracer.enabled())
    return result;

  // Wire cost, replayed on the last round's messages: the client-side
  // Request::encode and Response::parse the closed loop went through.
  double encodeUs = 0, decodeUs = 0, bytes = 0;
  std::size_t messages = 0;
  for (const Outcome& outcome : lastRound) {
    if (!outcome.response)
      continue;
    std::string line;
    {
      ScopedSpan span(tracer, "serve.encode", 0, outcome.request.id);
      const auto start = Clock::now();
      line = outcome.request.encode();
      encodeUs += millisSince(start) * 1000.0;
    }
    const std::string reply = outcome.response->encode();
    {
      ScopedSpan span(tracer, "serve.decode", 0, outcome.request.id);
      const auto start = Clock::now();
      const auto parsed = cfd::serve::Response::parse(reply);
      decodeUs += millisSince(start) * 1000.0;
      if (!parsed.ok())
        result.fail("response " + std::to_string(outcome.request.id) +
                    " does not parse back");
    }
    bytes += static_cast<double>(line.size() + reply.size() + 2);
    ++messages;
  }
  const double count = std::max<double>(1, static_cast<double>(messages));

  StageReplay replay(tracer);
  std::map<std::string, bool> seen;
  for (std::size_t i = 0; i < lastDraw.size(); ++i) {
    if (seen[lastDraw[i].key()])
      continue;
    seen[lastDraw[i].key()] = true;
    cfd::FlowOptions flowOptions;
    for (const auto& [key, value] : lastDraw[i].params)
      cfd::applyTuneParam(flowOptions, key, value);
    replay.replay(helmholtzSource(lastDraw[i].extent), flowOptions,
                  static_cast<std::int64_t>(i + 1));
  }
  addTraceLayers(result, tracer, replay.counts());

  const double hits = median(flowHits);
  const double misses = median(flowMisses);
  result.layer("core.parallel_efficiency",
               replay.counts().stageMillis /
                   (lastLoadMs * static_cast<double>(clientCount)),
               "ratio");
  result.layer("serve.encode_us", encodeUs / count, "us");
  result.layer("serve.decode_us", decodeUs / count, "us");
  result.layer("serve.bytes_per_request", bytes / count, "B");
  result.layer("serve.compile_ms_p50", percentile(compileMs, 50), "ms");
  result.layer("serve.overhead_ms_p50", percentile(overheadMs, 50), "ms");
  result.layer("serve.overhead_ms_p99", percentile(overheadMs, 99), "ms");
  result.layer("serve.first_seen_frac", median(firstSeen), "ratio");
  result.layer("serve.protocol_errors", median(protocolErrors), "count");
  result.layer("core.flow_hits", hits, "count");
  result.layer("core.flow_misses", misses, "count");
  result.layer("core.flow_hit_frac",
               hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  result.layer("core.stage_hits", median(stageHits), "count");
  result.layer("core.stage_misses", median(stageMisses), "count");
  // The replay covers the last round's variants, so its ratio uses that
  // round's misses.
  result.layer("core.stage_useful_ratio",
               !stageMisses.empty() && stageMisses.back() > 0
                   ? static_cast<double>(replay.counts().distinctKeys) /
                         stageMisses.back()
                   : 0,
               "ratio");
  return result;
}

} // namespace perfbench
