#pragma once

/// \file common.hpp
/// Shared pieces of npd_perfbench: run options, the result
/// document every workload prints, order statistics, and the per-layer
/// ledger filled by the traced replay.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "util/json.hpp"
#include "util/types.hpp"

namespace perfbench {

using npd::Index;
using npd::Json;

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Batch workloads run in two kinds of process: "main" (the timed
  /// batches or the traced split) and "rss" (see batch.cpp).
  std::string part = "main";
  /// "full" (the committed sizes) or "tiny" (the smoke-test sizes; no
  /// committed expectations apply).
  std::string size = "full";
  /// Committed per-seed expectations (`expectations.json`).
  std::string expectations_path;
  /// Print the observed expectation record instead of checking it.
  bool record = false;
  /// serve_small only: the daemon binary, its socket, the open-loop rate.
  std::string serve_exe;
  std::string socket_path;
  double open_qps = 0.0;
};

/// Number of committed input seeds; `--seed s` selects input set
/// `s mod kSeedSlots`, so every seed has a committed expectation.
inline constexpr std::uint64_t kSeedSlots = 16;

/// The engine / daemon base seed for benchmark seed `seed`.
[[nodiscard]] inline std::uint64_t engine_seed(std::uint64_t seed) {
  return 20221000 + seed % kSeedSlots;
}

/// The result document: correctness verdict, operation counts, metrics.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a failed check; the run is then reported incorrect.
  void fail(const std::string& message);
  /// Count one attempted operation, failed or not.
  void attempt(bool ok);

  [[nodiscard]] bool correct() const { return errors_.empty(); }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }
  [[nodiscard]] Json to_json() const;

  /// `--record` output: the observed expectation record for this seed.
  Json record = Json::object();

 private:
  Json metrics_ = Json::object();
  std::vector<std::string> errors_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// Linear-interpolated quantile `q` in [0, 1] (0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Peak resident set (VmHWM) in MiB of process `pid` ("self" = this
/// process); 0 when unreadable.
[[nodiscard]] double peak_rss_mb(const std::string& pid);

/// Per-layer time and work of one traced replay pass, per unit of work
/// (one batch, or one served request).
struct Layers {
  double truth_s = 0.0;
  double graph_s = 0.0;
  double measure_s = 0.0;
  double standardize_s = 0.0;
  double greedy_s = 0.0;
  double amp_s = 0.0;
  double dist_greedy_s = 0.0;
  /// Wall time of the whole replay pass.
  double wall_s = 0.0;

  // Work counts (whole numbers, kept as doubles so a pass average and a
  // per-request mean scale like the timings).
  double jobs = 0.0;
  double successes = 0.0;
  double edges = 0.0;
  double measurements = 0.0;
  double amp_jobs = 0.0;
  double amp_iterations = 0.0;
  double amp_converged = 0.0;
  double dense_mb = 0.0;
  double net_rounds = 0.0;
  double net_messages = 0.0;
  double net_bytes = 0.0;
  /// Jobs whose (seed, n, m, design) repeats an earlier job's.
  double dup_builds = 0.0;

  /// Replay time minus the standardize calls the replay adds on top of
  /// the solver's own (the traced-only extra work).
  [[nodiscard]] double effective_wall_s() const {
    return wall_s - standardize_s;
  }
  void add(const Layers& other);
  void scale(double factor);
};

/// Replay every job of `plan` single-threaded through the decomposed
/// layer calls (truth, graph, measurement, solve), timing each from the
/// outside.  Checks each replayed job's success/overlap against the
/// engine's `results`, and with `check_instances` also that the
/// decomposed instance equals `core::make_instance`.  Mismatches are
/// recorded on `result`.
[[nodiscard]] Layers replay_jobs(
    const npd::engine::BatchPlan& plan, const Json& report_core,
    const std::vector<npd::engine::JobResult>& results, bool check_instances,
    Result& result);

/// Every per-layer metric of a traced run; layers a workload does not
/// exercise read 0.  `share_*` is each layer's share of the unit's time.
struct LayerReport {
  Layers layers;
  /// Mean exact success over the unit's solves.  Varies by about 14%
  /// between seeds on atlas_regular, so it is checked exactly per seed
  /// rather than bounded as an end-to-end metric.
  double success_rate = 0.0;
  double engine_queue_s = 0.0;
  double engine_job_busy_s = 0.0;
  double engine_busy_frac = 0.0;
  double engine_job_p50_ms = 0.0;
  double engine_job_max_ms = 0.0;
  double engine_report_s = 0.0;
  double util_json_s = 0.0;
  double util_report_bytes = 0.0;
  double util_json_parse_us = 0.0;
  double util_json_dump_us = 0.0;
  double serve_server_p50_ms = 0.0;
  double serve_server_p99_ms = 0.0;
  double serve_batch_size_mean = 0.0;
  double serve_queue_depth_max = 0.0;
  double serve_design_cache_hit_frac = 0.0;
  double serve_execute_ms = 0.0;
  double serve_transport_ms = 0.0;
  double serve_ping_rtt_ms = 0.0;
  double client_lateness_p99_ms = 0.0;
  double trace_overhead_ratio = 0.0;
  double share_pooling = 0.0;
  double share_noise = 0.0;
  double share_amp = 0.0;
  double share_solve = 0.0;
  double share_engine = 0.0;
  double share_util = 0.0;
  double share_serve = 0.0;
  double share_transport = 0.0;
};

/// Emit every per-layer metric of `report` onto `result`.
void emit_layer_metrics(const LayerReport& report, Result& result);

/// The batch workloads (fig6_paper, atlas_regular).
[[nodiscard]] Result run_batch_workload(const Options& options);

/// The serving workload (serve_small).
[[nodiscard]] Result run_serve_workload(const Options& options);

}  // namespace perfbench
