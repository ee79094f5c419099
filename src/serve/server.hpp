#pragma once

/// \file server.hpp
/// The daemon's socket machinery around `serve::Service`: listeners
/// (Unix-domain and/or localhost TCP), one reader thread per
/// connection, and a single batcher thread that micro-batches queued
/// solve requests onto the shared worker pool.
///
/// Thread model:
///   * the `run()` caller polls the listeners, accepts connections and
///     spawns readers;
///   * each reader parses frames and either answers directly (parse
///     errors, pings) or enqueues the solve on the batch queue;
///   * the batcher drains the queue in micro-batches — up to
///     `batch_max` requests, waiting at most `batch_window_ms` for
///     companions once one request is pending — executes them through
///     `Service::execute` (which fans the union of their jobs over the
///     JobQueue worker pool), and writes each response back on its
///     connection under a per-connection write lock.
///
/// Shutdown (SIGTERM via `external_stop`, an `op:"shutdown"` request,
/// `--max-requests`, or idle timeout) drains rather than drops: stop
/// accepting, half-close every connection for reading (pending
/// responses still go out), join the readers, let the batcher finish
/// the queue, then close.  A client that vanishes mid-request only
/// fails its own writes — the daemon never dies on a dead peer.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/scenario.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/heartbeat.hpp"
#include "util/socket.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace npd::serve {

struct ServerOptions {
  /// Unix-domain socket path ("" = no Unix listener).
  std::string unix_path;
  /// Localhost TCP port (-1 = no TCP listener, 0 = ephemeral).
  int tcp_port = -1;
  /// Worker threads for solve execution (0 = all cores).
  Index threads = 0;
  /// Daemon base seed for derived request seeds.
  std::uint64_t seed = 42;
  /// Micro-batch bounds: at most `batch_max` solves per batch, waiting
  /// at most `batch_window_ms` for companions once one is queued.
  /// `batch_max` 1 disables batching.
  Index batch_max = 16;
  double batch_window_ms = 1.0;
  /// Stop after this many solve responses (0 = unlimited).
  std::int64_t max_requests = 0;
  /// Stop after this long with no connections and no queued work
  /// (0 = never) — how tests guarantee a daemon cannot outlive them.
  double idle_timeout_ms = 0.0;
  /// External shutdown flag (the tool's signal handler sets it).
  const std::atomic<bool>* external_stop = nullptr;
  /// Optional heartbeat rail: responses count as jobs done.
  heartbeat::ProgressCounters* progress = nullptr;
};

class Server {
 public:
  Server(const engine::ScenarioRegistry& registry, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind and listen on the configured endpoints.  Throws
  /// `std::runtime_error` on bind failure.  After `start` returns the
  /// endpoints accept connections (they queue until `run`).
  void start();

  /// Actual TCP port after `start` (ephemeral ports resolved); -1 when
  /// no TCP listener was configured.
  [[nodiscard]] int tcp_port() const { return tcp_port_; }

  /// Serve until shutdown, then drain.  Returns the number of solve
  /// responses sent.
  std::int64_t run();

  /// Thread-safe shutdown request (also reachable via
  /// `ServerOptions::external_stop`).
  void request_shutdown();

  [[nodiscard]] const ServiceCounters& counters() const {
    return service_.counters();
  }
  [[nodiscard]] std::int64_t responses_sent() const {
    return responses_sent_.load(std::memory_order_relaxed);
  }

 private:
  /// One accepted connection; readers and the batcher share it via
  /// shared_ptr so responses can outlive the reader.
  struct Connection {
    net::Fd fd;
    std::mutex write_mutex;
    std::atomic<bool> open{true};

    bool write(const std::string& payload);
  };

  struct QueuedSolve {
    std::shared_ptr<Connection> connection;
    Request request;
    /// Monotonic enqueue time (`clock_` seconds) — the start of the
    /// `serve.latency_seconds` histogram observation made when the
    /// response is written.  Telemetry only.
    double enqueue_s = 0.0;
  };

  void reader_loop(const std::shared_ptr<Connection>& connection);
  void batcher_loop();
  void handle_accept(const net::Fd& listener);
  [[nodiscard]] bool should_stop() const;
  /// Build the live answer to an `op:"stats"` request: uptime, queue
  /// depth, connection/response counts, and the current `npd.metrics/1`
  /// snapshot.  Called from reader threads; never touches the batch
  /// queue beyond one depth read.
  [[nodiscard]] Json stats_response(const Request& request);

  const engine::ScenarioRegistry& registry_;
  ServerOptions options_;
  Service service_;

  net::Fd unix_listener_;
  net::Fd tcp_listener_;
  int tcp_port_ = -1;
  bool started_ = false;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<QueuedSolve> queue_;
  /// No reader will enqueue again (set after readers are joined); the
  /// batcher exits once this is up and the queue is empty.
  bool readers_done_ = false;

  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> readers_;
  std::atomic<Index> open_connections_{0};

  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> responses_sent_{0};

  /// Idle tracking: monotonic seconds since server construction of the
  /// last accept or response.
  Timer clock_;
  std::atomic<double> last_activity_s_{0.0};
};

}  // namespace npd::serve
