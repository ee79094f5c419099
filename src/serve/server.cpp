#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "util/metrics.hpp"

namespace npd::serve {

namespace {

/// Listener poll granularity: the latency of noticing a stop flag or an
/// idle timeout, not of serving a request.
constexpr int kPollMs = 50;

}  // namespace

bool Server::Connection::write(const std::string& payload) {
  const std::lock_guard<std::mutex> lock(write_mutex);
  if (!open.load(std::memory_order_relaxed)) {
    return false;
  }
  if (!net::write_frame(fd, payload)) {
    // The peer vanished; remember it so later responses on this
    // connection are dropped instead of re-attempted.
    open.store(false, std::memory_order_relaxed);
    return false;
  }
  return true;
}

Server::Server(const engine::ScenarioRegistry& registry,
               ServerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      service_(registry_, ServiceConfig{options_.seed, options_.threads}) {}

Server::~Server() {
  if (!options_.unix_path.empty() && started_) {
    (void)::unlink(options_.unix_path.c_str());
  }
}

void Server::start() {
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    throw std::runtime_error(
        "npd_serve: no endpoint configured (need --socket and/or --tcp)");
  }
  if (!options_.unix_path.empty()) {
    unix_listener_ = net::listen_unix(options_.unix_path);
  }
  if (options_.tcp_port >= 0) {
    tcp_listener_ = net::listen_tcp_localhost(options_.tcp_port, &tcp_port_);
  }
  started_ = true;
}

bool Server::should_stop() const {
  if (stop_.load(std::memory_order_relaxed)) {
    return true;
  }
  return options_.external_stop != nullptr &&
         options_.external_stop->load(std::memory_order_relaxed);
}

void Server::request_shutdown() {
  stop_.store(true, std::memory_order_relaxed);
  queue_cv_.notify_all();
}

void Server::handle_accept(const net::Fd& listener) {
  net::Fd accepted = accept_connection(listener);
  if (!accepted.valid()) {
    return;  // transient (EINTR, peer gone before accept) — keep serving
  }
  auto connection = std::make_shared<Connection>();
  connection->fd = std::move(accepted);
  open_connections_.fetch_add(1, std::memory_order_relaxed);
  last_activity_s_.store(clock_.elapsed_seconds(), std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(connection);
    readers_.emplace_back([this, connection] { reader_loop(connection); });
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& connection) {
  while (true) {
    const std::optional<std::string> frame = net::read_frame(connection->fd);
    if (!frame.has_value()) {
      break;  // EOF, torn frame, or half-closed for shutdown
    }
    Json doc;
    try {
      doc = Json::parse(*frame);
    } catch (const std::exception& error) {
      (void)connection->write(
          make_error_response("", std::string("bad frame: ") + error.what())
              .dump());
      continue;
    }
    Request request;
    try {
      request = parse_request(doc);
    } catch (const std::exception& error) {
      // Echo the id when the malformed request at least carried one.
      const Json* id = doc.find("id");
      (void)connection->write(
          make_error_response(
              id != nullptr && id->is_string() ? id->as_string() : "",
              error.what())
              .dump());
      continue;
    }
    if (request.op == Op::Ping) {
      (void)connection->write(make_control_response(request).dump());
      continue;
    }
    if (request.op == Op::Shutdown) {
      (void)connection->write(make_control_response(request).dump());
      request_shutdown();
      continue;
    }
    if (request.op == Op::Stats) {
      // Answered inline on the reader thread — a stats probe must never
      // enter (or wait on) the solve batch queue.
      (void)connection->write(stats_response(request).dump());
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      queue_.push_back(QueuedSolve{connection, std::move(request),
                                   clock_.elapsed_seconds()});
      metrics::gauge("serve.queue.depth",
                     static_cast<std::int64_t>(queue_.size()));
    }
    queue_cv_.notify_all();
  }
  connection->open.store(false, std::memory_order_relaxed);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::batcher_loop() {
  while (true) {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    queue_cv_.wait(lock, [this] { return readers_done_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (readers_done_) {
        return;
      }
      continue;
    }
    const Index batch_max = std::max<Index>(options_.batch_max, 1);
    if (options_.batch_window_ms > 0.0 &&
        static_cast<Index>(queue_.size()) < batch_max) {
      // Hold the first request briefly so companions can share the
      // batch; a full batch or shutdown cuts the wait short.
      queue_cv_.wait_for(
          lock,
          std::chrono::duration<double, std::milli>(options_.batch_window_ms),
          [this, batch_max] {
            return static_cast<Index>(queue_.size()) >= batch_max ||
                   readers_done_;
          });
    }
    std::vector<QueuedSolve> batch;
    const Index take =
        std::min<Index>(static_cast<Index>(queue_.size()), batch_max);
    batch.reserve(static_cast<std::size_t>(take));
    for (Index i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    metrics::gauge("serve.queue.depth",
                   static_cast<std::int64_t>(queue_.size()));
    lock.unlock();

    std::vector<Request> requests;
    requests.reserve(batch.size());
    for (const QueuedSolve& item : batch) {
      requests.push_back(item.request);
    }
    std::vector<Json> responses;
    try {
      responses = service_.execute(requests);
    } catch (const std::exception& error) {
      // Defensive: Service already maps per-request failures to error
      // responses, so this only fires on an internal bug — answer
      // everyone rather than dying silently.
      responses.clear();
      for (const Request& request : requests) {
        responses.push_back(make_error_response(request.id, error.what()));
      }
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      (void)batch[i].connection->write(responses[i].dump());
    }
    if (metrics::enabled()) {
      const double now_s = clock_.elapsed_seconds();
      for (const QueuedSolve& item : batch) {
        metrics::observe("serve.latency_seconds", now_s - item.enqueue_s);
      }
    }
    const auto sent = responses_sent_.fetch_add(
                          static_cast<std::int64_t>(batch.size()),
                          std::memory_order_relaxed) +
                      static_cast<std::int64_t>(batch.size());
    last_activity_s_.store(clock_.elapsed_seconds(),
                           std::memory_order_relaxed);

    if (options_.progress != nullptr) {
      options_.progress->add_done(static_cast<std::int64_t>(batch.size()));
      options_.progress->set_current(batch.back().request.scenario, -1);
    }
    if (options_.max_requests > 0 && sent >= options_.max_requests) {
      request_shutdown();
    }
  }
}

std::int64_t Server::run() {
  if (!started_) {
    throw std::runtime_error("npd_serve: Server::run before start");
  }
  std::thread batcher([this] { batcher_loop(); });

  std::vector<pollfd> fds;
  if (unix_listener_.valid()) {
    fds.push_back(pollfd{unix_listener_.get(), POLLIN, 0});
  }
  if (tcp_listener_.valid()) {
    fds.push_back(pollfd{tcp_listener_.get(), POLLIN, 0});
  }

  while (!should_stop()) {
    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollMs);
    if (ready > 0) {
      std::size_t slot = 0;
      if (unix_listener_.valid()) {
        if ((fds[slot].revents & POLLIN) != 0) {
          handle_accept(unix_listener_);
        }
        ++slot;
      }
      if (tcp_listener_.valid() && (fds[slot].revents & POLLIN) != 0) {
        handle_accept(tcp_listener_);
      }
    }
    if (options_.idle_timeout_ms > 0.0 &&
        open_connections_.load(std::memory_order_relaxed) == 0) {
      bool queue_empty = false;
      {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        queue_empty = queue_.empty();
      }
      const double idle_s =
          clock_.elapsed_seconds() -
          last_activity_s_.load(std::memory_order_relaxed);
      if (queue_empty && idle_s * 1e3 > options_.idle_timeout_ms) {
        request_shutdown();
      }
    }
  }

  // Graceful drain.  Stop accepting; half-close every connection for
  // reading so the readers see EOF after the frames already in flight
  // (their responses still go out on the write side); then let the
  // batcher finish the queue.
  unix_listener_.close();
  tcp_listener_.close();
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& connection : connections_) {
      if (connection->fd.valid()) {
        (void)::shutdown(connection->fd.get(), SHUT_RD);
      }
    }
  }
  for (std::thread& reader : readers_) {
    reader.join();
  }
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    readers_done_ = true;
  }
  queue_cv_.notify_all();
  batcher.join();
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.clear();
  }
  if (!options_.unix_path.empty()) {
    (void)::unlink(options_.unix_path.c_str());
  }
  return responses_sent_.load(std::memory_order_relaxed);
}

Json Server::stats_response(const Request& request) {
  Json response = make_control_response(request);
  Json stats = Json::object();
  stats.set("uptime_seconds", clock_.elapsed_seconds());
  std::int64_t queue_depth = 0;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_depth = static_cast<std::int64_t>(queue_.size());
  }
  stats.set("queue_depth", queue_depth);
  stats.set("open_connections",
            static_cast<std::int64_t>(
                open_connections_.load(std::memory_order_relaxed)));
  stats.set("responses_sent",
            responses_sent_.load(std::memory_order_relaxed));
  stats.set("metrics", metrics::snapshot_json(metrics::snapshot()));
  response.set("stats", std::move(stats));
  return response;
}

}  // namespace npd::serve
