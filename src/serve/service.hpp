#pragma once

/// \file service.hpp
/// The socket-free heart of the serving daemon: take a micro-batch of
/// parsed requests, resolve each one's scenario parameters, expand their
/// jobs, run *all* of them on one shared `JobQueue`, and fold each
/// request's slice back into its own `npd.response/1` document.
///
/// Determinism is inherited from the engine wholesale: every job's seed
/// is derived before execution from the request's base seed (explicit,
/// or `derive_request_seed(server_seed, id)`), so which requests happen
/// to share a micro-batch, the batch window, and the worker thread
/// count can never change a response's deterministic core.  Each
/// response embeds a `RunReport::to_json(false)` — byte-identical to
/// the offline `npd_run --no-perf --seed <seed>` report for the same
/// configuration, which is exactly what `tools.serve_roundtrip`
/// verifies with `cmp`.
///
/// A job that throws mid-solve fails only its own request (the run
/// closure is wrapped; the first exception message becomes that
/// request's error response) — one poisoned request in a micro-batch
/// must not take down its neighbours, let alone the daemon.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "engine/scenario.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/types.hpp"

namespace npd::serve {

struct ServiceConfig {
  /// Daemon base seed; requests without an explicit seed derive theirs
  /// from this and their id.
  std::uint64_t server_seed = 42;
  /// Worker threads for the shared JobQueue (0 = all cores).
  Index threads = 0;
};

/// Monotonic service totals, readable concurrently from the heartbeat
/// thread while the batch executor updates them.
struct ServiceCounters {
  std::atomic<std::int64_t> requests{0};  ///< solve requests answered
  std::atomic<std::int64_t> batches{0};   ///< micro-batches executed
  std::atomic<std::int64_t> jobs{0};      ///< engine jobs run
  std::atomic<std::int64_t> errors{0};    ///< error responses built
};

/// Canonical configuration hash: FNV-1a (hex) over the compact dump of
/// `{"schema":"npd.serve_config/1","scenario":...,"params":{...}}`.  It
/// names a *configuration*, not a result: responses echo it so clients
/// can correlate requests that asked for the same design.
[[nodiscard]] std::string config_hash(std::string_view scenario_name,
                                      const engine::ScenarioParams& params);

/// One service instance over one scenario registry.  `execute` is not
/// thread-safe (the daemon funnels every micro-batch through a single
/// batcher thread); the counters are.
class Service {
 public:
  Service(const engine::ScenarioRegistry& registry, ServiceConfig config);

  /// Execute one micro-batch.  Responses come back in request order,
  /// one per request; solve failures (unknown scenario, bad parameters,
  /// a throwing solver) become `status:"error"` responses.  Ping and
  /// shutdown requests are acknowledged without touching the engine.
  [[nodiscard]] std::vector<Json> execute(const std::vector<Request>& requests);

  /// Convenience for the unbatched path (and tests).
  [[nodiscard]] Json execute_one(const Request& request);

  [[nodiscard]] const ServiceCounters& counters() const { return counters_; }

 private:
  const engine::ScenarioRegistry& registry_;
  ServiceConfig config_;
  ServiceCounters counters_;
};

}  // namespace npd::serve
