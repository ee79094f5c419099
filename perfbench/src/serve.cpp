// The serving workload: serve_small.
//
// One single-threaded client process drives an `npd_serve --threads 2`
// daemon it spawns itself, over at most two Unix-socket connections,
// with the default `solver_sweep` n=80 greedy request mix:
//
//   1. set-up: spawn the daemon and time spawn -> first answered ping,
//      several times (each extra daemon is shut down and reaped);
//   2. a discarded closed-loop warm-up;
//   3. an open loop at a fixed rate on one connection, every request
//      timed from its scheduled due time (so a client or server stall
//      is charged to every request it delays), with the generator's
//      own lateness (send time minus due time) reported;
//   4. a closed loop at concurrency 2 (both connections);
//   5. shutdown and reap; the daemon's peak RSS comes from wait4.
//
// Every response must be `status:"ok"` and answer the request sent in
// that position, and a sample of the served reports must be
// byte-identical to the offline `build_report` at the echoed seed.
// The traced run adds the per-layer split: `op:"stats"` histogram and
// counter deltas, in-process `Service::execute` on the same mix, and
// the decomposed replay of the sampled requests.

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "engine/builtin_scenarios.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/metrics.hpp"
#include "util/socket.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace npd;

/// The default `npd_loadgen --mix`: solver_sweep at n = 80 (greedy).
constexpr const char* kScenario = "solver_sweep";
constexpr const char* kMixParams = "n_lo=80;n_hi=80";
constexpr Index kDaemonThreads = 2;
/// Client connections: the open loop uses the first, the closed loop both.
constexpr int kConnections = 2;
constexpr int kSetupSpawns = 45;
/// Daemons the measured phases are spread over.
constexpr int kRounds = 3;
constexpr int kPings = 200;
/// Served reports checked against the offline build_report.
constexpr std::size_t kSampleEvery = 97;

std::string solve_payload(const std::string& id) {
  std::string payload = R"({"schema":"npd.request/1","id":")";
  payload += id;
  payload += R"(","op":"solve","scenario":")";
  payload += kScenario;
  payload += R"(","params":")";
  payload += kMixParams;
  payload += R"("})";
  return payload;
}

std::string control_payload(const std::string& id, const std::string& op) {
  Json request = Json::object();
  request.set("schema", std::string(serve::kRequestSchema))
      .set("id", id)
      .set("op", op);
  return request.dump();
}

/// The daemon under test, spawned as a child and always reaped.
class Daemon {
 public:
  Daemon(const Options& options, std::uint64_t seed)
      : socket_(options.socket_path) {
    (void)::unlink(socket_.c_str());
    const std::string threads = std::to_string(kDaemonThreads);
    const std::string seed_text = std::to_string(seed);
    std::vector<std::string> args = {options.serve_exe,
                                     "--socket", socket_,
                                     "--threads", threads,
                                     "--seed", seed_text,
                                     "--idle-timeout-ms", "60000",
                                     "--quiet"};
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    spawn_clock_.reset();
    pid_ = ::fork();
    if (pid_ < 0) {
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      // Die with the client; keep the client's stdout for its result.
      (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
      (void)::dup2(STDERR_FILENO, STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      (void)::kill(pid_, SIGKILL);
      int status = 0;
      (void)::waitpid(pid_, &status, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Ping until the daemon answers; seconds from spawn to the answer.
  double wait_ready() {
    while (spawn_clock_.elapsed_seconds() < 20.0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("npd_serve exited during start-up");
      }
      try {
        const net::Fd fd = net::connect_unix(socket_);
        if (net::write_frame(fd, control_payload("ready", "ping")) &&
            net::read_frame(fd).has_value()) {
          return spawn_clock_.elapsed_seconds();
        }
      } catch (const std::exception&) {
        // Not listening yet.
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    throw std::runtime_error("npd_serve not ready after 20 s");
  }

  /// Ask the daemon to drain and exit, and reap it.  Returns its peak
  /// resident set in MiB, read just before the shutdown request.
  double shutdown() {
    const double rss_mb = peak_rss_mb(std::to_string(pid_));
    {
      const net::Fd fd = net::connect_unix(socket_);
      if (!net::write_frame(fd, control_payload("bye", "shutdown")) ||
          !net::read_frame(fd).has_value()) {
        throw std::runtime_error("npd_serve did not acknowledge shutdown");
      }
    }
    const Timer timer;
    while (timer.elapsed_seconds() < 20.0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          throw std::runtime_error("npd_serve exited abnormally");
        }
        return rss_mb;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("npd_serve did not exit after shutdown");
  }

  [[nodiscard]] const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  Timer spawn_clock_;
  pid_t pid_ = -1;
};

/// Wait until `fds` are readable or `timeout_s` passes (µs resolution).
void wait_readable(std::vector<pollfd>& fds, double timeout_s) {
  timeout_s = std::max(0.0, timeout_s);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>(
      (timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
  for (pollfd& fd : fds) {
    fd.revents = 0;
  }
  (void)::ppoll(fds.data(), fds.size(), &ts, nullptr);
}

/// One measured phase: what was sent, what came back, and when.
struct Phase {
  std::vector<std::string> ids;       ///< per request, in send order
  std::vector<std::string> replies;   ///< in send order; empty = unanswered
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;    ///< open loop only
  double elapsed_s = 0.0;
  double queue_depth_max = 0.0;
  std::size_t sent = 0;
};

Json request_stats(const net::Fd& fd) {
  if (!net::write_frame(fd, control_payload("stats", "stats"))) {
    throw std::runtime_error("stats request failed");
  }
  const std::optional<std::string> reply = net::read_frame(fd);
  if (!reply.has_value()) {
    throw std::runtime_error("stats reply missing");
  }
  return Json::parse(*reply).at("stats");
}

/// Open loop: request i is due at i/qps; responses arrive in send order
/// on one connection.  `stats_fd` is polled for the queue depth without
/// blocking the generator: at most one stats request is in flight, and
/// its reply is read when it lands and parsed after the phase.
Phase open_loop(const net::Fd& fd, const net::Fd& stats_fd, double qps,
                double seconds, const std::string& prefix) {
  Phase phase;
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::floor(seconds * qps)));
  std::vector<std::string> payloads;
  payloads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    phase.ids.push_back(prefix + std::to_string(i));
    payloads.push_back(solve_payload(phase.ids.back()));
  }
  const auto due = [qps](std::size_t i) {
    return static_cast<double>(i) / qps;
  };
  const std::string stats_payload = control_payload("stats", "stats");
  std::vector<std::string> stats_replies;
  bool stats_pending = false;
  std::vector<pollfd> fds{{fd.get(), POLLIN, 0}, {stats_fd.get(), POLLIN, 0}};
  double next_stats = 0.0;
  const Timer clock;
  while (phase.replies.size() < count) {
    double now = clock.elapsed_seconds();
    while (phase.sent < count && due(phase.sent) <= now) {
      phase.lateness_ms.push_back((now - due(phase.sent)) * 1e3);
      if (!net::write_frame(fd, payloads[phase.sent])) {
        throw std::runtime_error("open loop: send failed");
      }
      ++phase.sent;
      now = clock.elapsed_seconds();
    }
    if (!stats_pending && now >= next_stats && phase.sent < count) {
      if (!net::write_frame(stats_fd, stats_payload)) {
        throw std::runtime_error("stats request failed");
      }
      stats_pending = true;
      next_stats = now + 0.05;
    }
    if (now > seconds + 10.0) {
      break;  // unanswered requests are counted as failed
    }
    const double wait =
        phase.sent < count
            ? (stats_pending ? due(phase.sent)
                             : std::min(due(phase.sent), next_stats)) -
                  now
            : 0.05;
    wait_readable(fds, wait);
    if ((fds[0].revents & POLLIN) != 0) {
      std::optional<std::string> reply = net::read_frame(fd);
      if (!reply.has_value()) {
        break;
      }
      const double latency = clock.elapsed_seconds() -
                             due(phase.replies.size());
      phase.latency_ms.push_back(latency * 1e3);
      phase.replies.push_back(std::move(*reply));
    } else if ((fds[0].revents & (POLLERR | POLLHUP)) != 0) {
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) {
      std::optional<std::string> reply = net::read_frame(stats_fd);
      if (!reply.has_value()) {
        throw std::runtime_error("stats reply missing");
      }
      stats_replies.push_back(std::move(*reply));
      stats_pending = false;
    }
  }
  phase.elapsed_s = clock.elapsed_seconds();
  if (stats_pending) {
    std::optional<std::string> reply = net::read_frame(stats_fd);
    if (!reply.has_value()) {
      throw std::runtime_error("stats reply missing");
    }
    stats_replies.push_back(std::move(*reply));
  }
  for (const std::string& reply : stats_replies) {
    phase.queue_depth_max = std::max(
        phase.queue_depth_max,
        static_cast<double>(
            Json::parse(reply).at("stats").at("queue_depth").as_int()));
  }
  return phase;
}

/// Closed loop: one request in flight per connection.
Phase closed_loop(const std::vector<const net::Fd*>& conns, double seconds,
                  const std::string& prefix) {
  Phase phase;
  const std::size_t width = conns.size();
  std::vector<std::size_t> in_flight(width, 0);  // request seq per conn
  std::vector<double> sent_at(width, 0.0);
  std::vector<bool> busy(width, false);
  std::vector<pollfd> fds;
  for (const net::Fd* conn : conns) {
    fds.push_back({conn->get(), POLLIN, 0});
  }
  const Timer clock;
  const auto send = [&](std::size_t c) {
    phase.ids.push_back(prefix + std::to_string(phase.sent));
    phase.replies.emplace_back();  // filled when the reply lands
    in_flight[c] = phase.sent++;
    busy[c] = true;
    sent_at[c] = clock.elapsed_seconds();
    if (!net::write_frame(*conns[c], solve_payload(phase.ids.back()))) {
      throw std::runtime_error("closed loop: send failed");
    }
  };
  for (std::size_t c = 0; c < width; ++c) {
    send(c);
  }
  while (std::find(busy.begin(), busy.end(), true) != busy.end() &&
         clock.elapsed_seconds() < seconds + 10.0) {
    wait_readable(fds, 0.05);
    for (std::size_t c = 0; c < width; ++c) {
      if ((fds[c].revents & POLLIN) == 0) {
        continue;
      }
      busy[c] = false;
      std::optional<std::string> reply = net::read_frame(*conns[c]);
      if (!reply.has_value()) {
        continue;
      }
      const double now = clock.elapsed_seconds();
      phase.latency_ms.push_back((now - sent_at[c]) * 1e3);
      phase.replies[in_flight[c]] = std::move(*reply);
      phase.elapsed_s = now;
      if (now < seconds) {
        send(c);
      }
    }
  }
  return phase;
}

/// A parsed, checked response.
struct Checked {
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  double successes = 0.0;
  double overlap = 0.0;
  std::vector<Json> samples;  ///< responses picked for the offline check
};

/// Check every reply of `phase`: parses, answers its request, status ok.
void check_phase(const Phase& phase, Checked& checked, Result& result) {
  const std::size_t answered =
      std::min(phase.replies.size(), phase.ids.size());
  for (std::size_t i = 0; i < phase.ids.size(); ++i) {
    bool ok = false;
    if (i < answered && !phase.replies[i].empty()) {
      try {
        Json doc = Json::parse(phase.replies[i]);
        ok = doc.at("status").as_string() == "ok" &&
             doc.at("id").as_string() == phase.ids[i];
        if (ok) {
          const Json& cell = doc.at("report")
                                 .at("scenarios")
                                 .at(std::size_t{0})
                                 .at("aggregates")
                                 .at("cells")
                                 .at(std::size_t{0});
          const Json& metrics = cell.at("metrics");
          checked.successes += metrics.at("success").at("mean").as_double();
          checked.overlap += metrics.at("overlap").at("mean").as_double();
          if ((checked.ok + checked.failed) % kSampleEvery == 0) {
            checked.samples.push_back(std::move(doc));
          }
        }
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (ok) {
      ++checked.ok;
    } else {
      ++checked.failed;
    }
    result.attempt(ok);
  }
  if (checked.failed > 0) {
    result.fail(std::to_string(checked.failed) +
                " served requests failed, were refused or went unanswered");
  }
}

/// The offline solve of one served request: plan, execute, report.
struct Offline {
  engine::BatchPlan plan;
  std::vector<engine::JobResult> results;
  std::string core;
  double queue_s = 0.0;
  double report_s = 0.0;
};

Offline solve_offline(const engine::ScenarioRegistry& registry,
                      std::uint64_t seed) {
  engine::BatchRequest request;
  request.scenario_names = {kScenario};
  request.config = engine::EngineConfig{seed, 1, 1};
  request.overrides = {{kScenario, "n_lo", "80"}, {kScenario, "n_hi", "80"}};
  Offline offline;
  offline.plan = engine::plan_batch(registry, request);
  engine::JobQueue queue;
  for (const engine::Job& job : offline.plan.jobs) {
    (void)queue.push(job);
  }
  Timer timer;
  offline.results = queue.run(1);
  offline.queue_s = timer.elapsed_seconds();
  timer.reset();
  const engine::RunReport report =
      engine::build_report(offline.plan, offline.results, 1);
  offline.report_s = timer.elapsed_seconds();
  offline.core = report.to_json(false).dump();
  return offline;
}

const metrics::HistogramValue* find_histogram(
    const metrics::MetricsSnapshot& snapshot, const std::string& name) {
  for (const metrics::HistogramValue& histogram : snapshot.histograms) {
    if (histogram.name == name) {
      return &histogram;
    }
  }
  return nullptr;
}

std::int64_t counter_of(const metrics::MetricsSnapshot& snapshot,
                        const std::string& name) {
  for (const metrics::CounterValue& counter : snapshot.counters) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  return 0;
}

/// Bucket counts of histogram `name` recorded between two snapshots.
std::vector<double> histogram_delta(const metrics::MetricsSnapshot& before,
                                    const metrics::MetricsSnapshot& after,
                                    const std::string& name) {
  std::vector<double> counts(metrics::kHistogramBuckets + 1, 0.0);
  const metrics::HistogramValue* end = find_histogram(after, name);
  const metrics::HistogramValue* start = find_histogram(before, name);
  for (std::size_t i = 0; end != nullptr && i < counts.size(); ++i) {
    counts[i] = static_cast<double>(
        end->buckets.at(i) - (start != nullptr ? start->buckets.at(i) : 0));
  }
  return counts;
}

/// Quantile `q` of power-of-two bucket counts, interpolated linearly
/// within the bucket (so resolved only to within a factor of two).
double bucket_quantile(const std::vector<double>& counts, double q) {
  double total = 0.0;
  for (const double count : counts) {
    total += count;
  }
  const double rank = q * total;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0.0 && cumulative + counts[i] >= rank) {
      const int bucket = std::min(static_cast<int>(i),
                                  metrics::kHistogramBuckets - 1);
      const double lo =
          bucket == 0 ? 0.0 : metrics::histogram_bound(bucket - 1);
      const double hi = metrics::histogram_bound(bucket);
      return lo + (rank - cumulative) / counts[i] * (hi - lo);
    }
    cumulative += counts[i];
  }
  return 0.0;
}

/// One daemon's share of the run: spawn, warm up, open loop, closed
/// loop, shut down.  Spreading the run over several daemons averages
/// out how one process happens to be placed on the cores.
struct Round {
  Phase open;
  Phase closed;
  /// `serve.latency_seconds` bucket counts over the open loop.
  std::vector<double> server_latency;
  double requests = 0.0;  ///< served solves in the open loop
  double batches = 0.0;   ///< micro-batches in the open loop
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double rss_mb = 0.0;
  /// Ping round trips: frame I/O and the reader thread, no queueing.
  std::vector<double> ping_ms;
};

Round run_round(const Options& options, std::uint64_t seed, int index,
                double seconds, std::vector<double>& setup_samples) {
  const std::string tag = std::to_string(index) + "-";
  Round round;
  Daemon daemon(options, seed);
  setup_samples.push_back(daemon.wait_ready());
  {
    const net::Fd a = net::connect_unix(daemon.socket());
    const net::Fd b = net::connect_unix(daemon.socket());
    (void)closed_loop({&a, &b}, std::min(0.3, seconds / 4.0), "w" + tag);
    const std::string ping = control_payload("ping", "ping");
    for (int i = 0; i < kPings; ++i) {
      const Timer timer;
      if (!net::write_frame(b, ping) || !net::read_frame(b).has_value()) {
        throw std::runtime_error("ping failed");
      }
      round.ping_ms.push_back(timer.elapsed_ms());
    }
    const metrics::MetricsSnapshot before =
        metrics::snapshot_from_json(request_stats(b).at("metrics"));
    round.open = open_loop(a, b, options.open_qps, seconds / 2.0, "o" + tag);
    const metrics::MetricsSnapshot after_open =
        metrics::snapshot_from_json(request_stats(b).at("metrics"));
    round.closed = closed_loop({&a, &b}, seconds / 2.0, "c" + tag);
    const metrics::MetricsSnapshot after_closed =
        metrics::snapshot_from_json(request_stats(b).at("metrics"));

    round.server_latency =
        histogram_delta(before, after_open, "serve.latency_seconds");
    round.requests = static_cast<double>(
        counter_of(after_open, "serve.requests") -
        counter_of(before, "serve.requests"));
    round.batches =
        static_cast<double>(counter_of(after_open, "serve.batches") -
                            counter_of(before, "serve.batches"));
    round.cache_hits = static_cast<double>(
        counter_of(after_closed, "serve.design_cache.hit"));
    round.cache_misses = static_cast<double>(
        counter_of(after_closed, "serve.design_cache.miss"));
  }
  round.rss_mb = daemon.shutdown();
  return round;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

Result run_serve_workload(const Options& options) {
  Result result;
  if (options.serve_exe.empty() || options.socket_path.empty() ||
      options.open_qps <= 0.0) {
    throw std::invalid_argument(
        "serve_small needs --serve-exe, --socket and --open-qps > 0");
  }
  const std::uint64_t seed = engine_seed(options.seed);

  // Set-up samples: extra daemons spawned and shut down, plus each
  // round's daemon.
  std::vector<double> setup_samples;
  for (int i = 0; i < kSetupSpawns; ++i) {
    Daemon daemon(options, seed);
    setup_samples.push_back(daemon.wait_ready());
    (void)daemon.shutdown();
  }
  std::vector<Round> rounds;
  for (int i = 0; i < kRounds; ++i) {
    rounds.push_back(run_round(options, seed, i,
                               options.seconds * 0.9 / kRounds, setup_samples));
  }

  Checked checked;
  std::vector<double> open_ms;
  std::vector<double> lateness_ms;
  std::vector<double> closed_ms;
  std::vector<double> ping_ms;
  std::vector<double> server_latency(metrics::kHistogramBuckets + 1, 0.0);
  double closed_answers = 0.0;
  double closed_s = 0.0;
  double peak_rss_mb = 0.0;
  double queue_depth_max = 0.0;
  double requests = 0.0;
  double batches = 0.0;
  double cache_hits = 0.0;
  double cache_lookups = 0.0;
  for (const Round& round : rounds) {
    check_phase(round.open, checked, result);
    check_phase(round.closed, checked, result);
    append(open_ms, round.open.latency_ms);
    append(lateness_ms, round.open.lateness_ms);
    append(closed_ms, round.closed.latency_ms);
    append(ping_ms, round.ping_ms);
    for (std::size_t i = 0; i < server_latency.size(); ++i) {
      server_latency[i] += round.server_latency[i];
    }
    closed_answers += static_cast<double>(round.closed.latency_ms.size());
    closed_s += round.closed.elapsed_s;
    peak_rss_mb = std::max(peak_rss_mb, round.rss_mb);
    queue_depth_max = std::max(queue_depth_max, round.open.queue_depth_max);
    requests += round.requests;
    batches += round.batches;
    cache_hits += round.cache_hits;
    cache_lookups += round.cache_hits + round.cache_misses;
  }

  // Sampled served reports against the offline build_report.
  engine::ScenarioRegistry registry;
  engine::register_builtin_scenarios(registry);
  std::vector<Offline> offline;
  for (const Json& sample : checked.samples) {
    const auto echoed =
        static_cast<std::uint64_t>(sample.at("seed").as_int());
    offline.push_back(solve_offline(registry, echoed));
    const bool same = offline.back().core == sample.at("report").dump();
    result.attempt(same);
    if (!same) {
      result.fail("served report differs from the offline build_report at "
                  "seed " + std::to_string(echoed));
    }
  }

  const double client_p50 = quantile(open_ms, 0.50);
  if (!options.trace) {
    const double answered = static_cast<double>(checked.ok);
    // Medians, not totals or tails: on a shared host, vCPU steal stalls
    // the client or the daemon for milliseconds at a time, which moves
    // sums and open-loop percentiles from p75 up by tens of percent
    // between runs.  The tail percentiles go to stderr only.
    const double round_trip_s = median(closed_ms) / 1e3;
    result.metric("setup_s", median(setup_samples), "s");
    result.metric("wall_s", round_trip_s, "s");
    result.metric("peak_rss_mb", peak_rss_mb, "MB");
    result.metric("overlap_mean",
                  answered > 0.0 ? checked.overlap / answered : 0.0, "frac");
    result.metric("req_per_s",
                  static_cast<double>(kConnections) / round_trip_s, "1/s");
    result.metric("lat_p50_ms", client_p50, "ms");
    (void)std::fprintf(
        stderr,
        "npd_perfbench: serve_small: %d daemons; open loop %zu latencies "
        "p50/p75/p90/p95/p99 %.4f/%.4f/%.4f/%.4f/%.4f ms, lateness p99 %.4f "
        "ms; closed loop %.0f responses, %.1f req/s overall, round trip p50 "
        "%.4f ms; %zu set-ups (p10/p50/p90 %.4g/%.4g/%.4g s)\n",
        kRounds, open_ms.size(), client_p50, quantile(open_ms, 0.75),
        quantile(open_ms, 0.90), quantile(open_ms, 0.95),
        quantile(open_ms, 0.99), quantile(lateness_ms, 0.99),
        closed_answers,
        closed_answers / closed_s, round_trip_s * 1e3, setup_samples.size(),
        quantile(setup_samples, 0.1), median(setup_samples),
        quantile(setup_samples, 0.9));
    return result;
  }

  // Traced run: the per-layer split of one served request.
  LayerReport report;
  report.success_rate =
      checked.ok > 0 ? checked.successes / static_cast<double>(checked.ok)
                     : 0.0;
  report.serve_server_p50_ms = bucket_quantile(server_latency, 0.50) * 1e3;
  report.serve_server_p99_ms = bucket_quantile(server_latency, 0.99) * 1e3;
  report.serve_batch_size_mean = batches > 0.0 ? requests / batches : 0.0;
  report.serve_queue_depth_max = queue_depth_max;
  report.serve_design_cache_hit_frac =
      cache_lookups > 0.0 ? cache_hits / cache_lookups : 0.0;
  report.serve_transport_ms =
      std::max(0.0, client_p50 - report.serve_server_p50_ms);
  report.serve_ping_rtt_ms = median(ping_ms);
  report.client_lateness_p99_ms = quantile(lateness_ms, 0.99);

  // In-process Service::execute on the sampled requests.
  {
    serve::ServiceConfig config;
    config.server_seed = seed;
    config.threads = kDaemonThreads;
    serve::Service service(registry, config);
    std::vector<double> execute_ms;
    std::vector<double> parse_us;
    std::vector<double> dump_us;
    std::vector<double> bytes;
    for (const Json& sample : checked.samples) {
      const serve::Request request = serve::parse_request(
          Json::parse(solve_payload(sample.at("id").as_string())));
      Timer timer;
      const std::vector<Json> responses = service.execute({request});
      execute_ms.push_back(timer.elapsed_ms());
      if (responses.at(0).at("report").dump() != sample.at("report").dump()) {
        result.fail("in-process Service::execute differs from the served "
                    "report for " + request.id);
      }
      timer.reset();
      const std::string text = sample.dump();
      dump_us.push_back(timer.elapsed_seconds() * 1e6);
      timer.reset();
      (void)Json::parse(text);
      parse_us.push_back(timer.elapsed_seconds() * 1e6);
      bytes.push_back(static_cast<double>(text.size()));
    }
    report.serve_execute_ms = median(execute_ms);
    report.util_json_parse_us = median(parse_us);
    report.util_json_dump_us = median(dump_us);
    report.util_json_s = report.util_json_dump_us / 1e6;
    report.util_report_bytes = median(bytes);
  }

  // Decomposed replay of the sampled requests' jobs, per request.
  Layers layers;
  std::vector<double> queue_s;
  std::vector<double> busy_s;
  std::vector<double> report_s;
  std::vector<double> job_ms;
  for (const Offline& solved : offline) {
    const Json core = Json::parse(solved.core);
    // A checking pass first (decomposed instance == make_instance), then
    // the timed pass.
    (void)replay_jobs(solved.plan, core, solved.results, true, result);
    layers.add(replay_jobs(solved.plan, core, solved.results, false, result));
    queue_s.push_back(solved.queue_s);
    report_s.push_back(solved.report_s);
    double busy = 0.0;
    for (const engine::JobResult& job : solved.results) {
      busy += job.wall_seconds;
      job_ms.push_back(job.wall_seconds * 1e3);
    }
    busy_s.push_back(busy);
  }
  layers.scale(1.0 /
               std::max<double>(1.0, static_cast<double>(offline.size())));
  report.layers = layers;
  report.engine_queue_s = median(queue_s);
  report.engine_job_busy_s = median(busy_s);
  if (report.engine_queue_s > 0.0) {
    report.engine_busy_frac = report.engine_job_busy_s / report.engine_queue_s;
    report.trace_overhead_ratio = layers.wall_s / report.engine_queue_s;
  }
  report.engine_job_p50_ms = quantile(job_ms, 0.5);
  report.engine_job_max_ms = quantile(job_ms, 1.0);
  report.engine_report_s = median(report_s);

  // Shares of the client's open-loop p50 latency.
  const double unit = client_p50 / 1e3;
  const double compute = layers.truth_s + layers.graph_s + layers.measure_s +
                         layers.greedy_s + layers.amp_s + layers.dist_greedy_s;
  if (unit > 0.0) {
    report.share_pooling = (layers.truth_s + layers.graph_s) / unit;
    report.share_noise = layers.measure_s / unit;
    report.share_solve = (compute - layers.truth_s - layers.graph_s -
                          layers.measure_s) / unit;
    report.share_engine = report.engine_report_s / unit;
    report.share_util = report.util_json_s / unit;
    report.share_serve =
        std::max(0.0, unit - report.serve_ping_rtt_ms / 1e3 - compute -
                          report.engine_report_s - report.util_json_s) /
        unit;
    report.share_transport = report.serve_ping_rtt_ms / 1e3 / unit;
  }
  emit_layer_metrics(report, result);
  return result;
}

}  // namespace perfbench
