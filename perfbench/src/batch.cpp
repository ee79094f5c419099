// The batch workloads: fig6_paper and atlas_regular.
//
// Untraced run ("main" part): one discarded warm-up batch, then batches
// (JobQueue::run, build_report, RunReport::to_json + dump) rotating over
// 8 input sets until the time budget is spent, with registry +
// plan_batch set-ups timed between them.  Every batch is checked: the
// report parses, has the committed cell and job counts, its success
// count equals the committed expectation for its seed, and its
// deterministic core repeats.  The "rss" part runs one checked batch
// single-threaded in its own process for the peak resident set.
//
// Traced run: the engine split from a few multi-threaded batches, then
// single-threaded replays of every job through the decomposed layer
// calls, each timed from the outside (see common.hpp `replay_jobs`).

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "engine/builtin_scenarios.hpp"
#include "util/file.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace npd;

/// Engine worker threads: the 4 cores of the machine the benchmark was
/// tuned on (nproc).
constexpr Index kThreads = 4;

engine::BatchRequest batch_request(const Options& options,
                                   std::uint64_t seed) {
  const bool tiny = options.size == "tiny";
  engine::BatchRequest request;
  request.config.seed = engine_seed(seed);
  request.config.threads = kThreads;
  if (options.workload == "fig6_paper") {
    // fig6 at its defaults: n=1000, paper design, greedy;amp.
    request.scenario_names = {"fig6"};
    request.config.reps = tiny ? 1 : 2;
    if (tiny) {
      request.overrides = {{"fig6", "n", "200"}, {"fig6", "m_max", "100"}};
    }
    return request;
  }
  if (options.workload == "atlas_regular") {
    request.scenario_names = {"phase_atlas"};
    request.config.reps = tiny ? 1 : 8;
    request.overrides = {
        {"phase_atlas", "designs", "regular:6"},
        {"phase_atlas", "solvers", "amp;greedy;dist_greedy"},
        {"phase_atlas", "channels", "z:0.1;gauss:1"},
        {"phase_atlas", "n_lo", tiny ? "200" : "1000"},
        {"phase_atlas", "n_hi", tiny ? "200" : "4000"},
        {"phase_atlas", "n_ppd", "3"},
    };
    return request;
  }
  throw std::invalid_argument("unknown batch workload '" + options.workload +
                              "'");
}

/// Registry + plan; the plan borrows the registry's scenarios.
struct Planned {
  std::unique_ptr<engine::ScenarioRegistry> registry;
  engine::BatchPlan plan;
};

Planned set_up(const engine::BatchRequest& request) {
  Planned planned;
  planned.registry = std::make_unique<engine::ScenarioRegistry>();
  engine::register_builtin_scenarios(*planned.registry);
  planned.plan = engine::plan_batch(*planned.registry, request);
  return planned;
}

/// One executed batch and its phase timings.
struct Batch {
  double wall_s = 0.0;
  double queue_s = 0.0;
  double report_s = 0.0;
  double json_s = 0.0;
  std::vector<engine::JobResult> results;
  /// Per job: time from the batch start until its result was complete.
  std::vector<double> done_ms;
  std::string dump;
  /// `to_json(false)` bytes, taken after the timed section.
  std::string core;
};

Batch run_batch(const engine::BatchPlan& plan, Index threads) {
  Batch batch;
  batch.done_ms.assign(plan.jobs.size(), 0.0);
  const Timer total;
  engine::JobQueue queue;
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    // Each job stamps its own slot; the slots are read after the join.
    engine::Job job = plan.jobs[i];
    job.run = [inner = std::move(job.run), clock = &total,
               slot = &batch.done_ms[i]](rand::Rng& rng) {
      engine::Metrics metrics = inner(rng);
      *slot = clock->elapsed_ms();
      return metrics;
    };
    (void)queue.push(std::move(job));
  }
  Timer timer;
  batch.results = queue.run(threads);
  batch.queue_s = timer.elapsed_seconds();
  timer.reset();
  engine::RunReport report = engine::build_report(plan, batch.results, threads);
  batch.report_s = timer.elapsed_seconds();
  timer.reset();
  engine::stamp_perf(report, total.elapsed_seconds());
  batch.dump = report.to_json(true).dump();
  batch.json_s = timer.elapsed_seconds();
  batch.wall_s = total.elapsed_seconds();
  batch.core = report.to_json(false).dump();
  return batch;
}

/// Sum of one per-job metric over a batch (successes for "success").
double sum_of(const std::vector<engine::JobResult>& results,
              const std::string& name) {
  double sum = 0.0;
  for (const engine::JobResult& job : results) {
    for (const engine::Metric& metric : job.metrics) {
      if (metric.name == name) {
        sum += metric.value;
      }
    }
  }
  return sum;
}

/// The committed expectation for this workload and seed, if any.
std::optional<Json> load_expectation(const Options& options,
                                     std::uint64_t seed) {
  if (options.size != "full" || options.expectations_path.empty() ||
      options.record) {
    return std::nullopt;
  }
  const std::optional<std::string> text =
      try_read_file(options.expectations_path);
  if (!text.has_value()) {
    return std::nullopt;
  }
  const Json doc = Json::parse(*text);
  const Json* workload = doc.find(options.workload);
  if (workload == nullptr) {
    return std::nullopt;
  }
  const Json* entry =
      workload->find(std::to_string(engine_seed(seed)));
  return entry == nullptr ? std::nullopt : std::optional<Json>(*entry);
}

/// Compare an observed count against the committed expectation.
void expect_count(const std::optional<Json>& expected, const char* key,
                  double count, Result& result, bool& ok) {
  if (!expected.has_value()) {
    return;
  }
  const std::int64_t observed = std::llround(count);
  const Json* value = expected->find(key);
  if (value == nullptr || value->as_int() != observed ||
      count != static_cast<double>(observed)) {
    result.fail(std::string("expectation '") + key + "': observed " +
                std::to_string(observed) + ", committed " +
                (value == nullptr ? std::string("none") : value->dump()));
    ok = false;
  }
}

/// Check one batch; returns false (and records why) on any failure.
bool check_batch(const Batch& batch, const std::string& first_core,
                 const std::optional<Json>& expected, Result& result) {
  bool ok = true;
  try {
    const Json doc = Json::parse(batch.dump);
    const Json& scenario = doc.at("scenarios").at(std::size_t{0});
    expect_count(expected, "cells",
                 static_cast<double>(
                     scenario.at("aggregates").at("cells").size()),
                 result, ok);
    expect_count(expected, "jobs", scenario.at("jobs").as_double(), result,
                 ok);
  } catch (const std::exception& error) {
    result.fail(std::string("report does not parse: ") + error.what());
    ok = false;
  }
  expect_count(expected, "successes", sum_of(batch.results, "success"),
               result, ok);
  if (!first_core.empty() && batch.core != first_core) {
    result.fail("deterministic report core differs between batches");
    ok = false;
  }
  return ok;
}

void record_counts(Result& result, const Batch& batch) {
  const Json doc = Json::parse(batch.core);
  const Json& scenario = doc.at("scenarios").at(std::size_t{0});
  result.record.set("jobs", scenario.at("jobs").as_int())
      .set("cells", static_cast<std::int64_t>(
                        scenario.at("aggregates").at("cells").size()))
      .set("successes", std::llround(sum_of(batch.results, "success")));
}

/// `load_expectation`, failing the run when a full-size seed has none.
std::optional<Json> expectation_for(const Options& options,
                                    std::uint64_t seed, Result& result) {
  std::optional<Json> expected = load_expectation(options, seed);
  if (!expected.has_value() && options.size == "full" && !options.record) {
    result.fail("no committed expectation for workload " + options.workload +
                " at engine seed " + std::to_string(engine_seed(seed)));
  }
  return expected;
}

/// One input set of an untraced run and its timed batches.
struct Input {
  Planned planned;
  std::optional<Json> expected;
  std::string first_core;
  std::vector<double> walls;
  double overlap_mean = 0.0;
};

constexpr int kSetupsPerBatch = 11;
/// Input sets an untraced run rotates over: seeds s, s+1, ..., s+7.
/// AMP's convergence makes one set's cost differ by up to 20% between
/// seeds on atlas_regular; rotating keeps the run-to-run spread a
/// property of the code rather than of the seed.
constexpr std::uint64_t kInputSets = 8;
constexpr int kEngineRepeats = 3;

}  // namespace

Result run_batch_workload(const Options& options) {
  Result result;
  const engine::BatchRequest request = batch_request(options, options.seed);
  const std::optional<Json> expected = expectation_for(options, options.seed,
                                                       result);

  const Planned planned = set_up(request);
  const engine::BatchPlan& plan = planned.plan;
  const Index threads = kThreads;

  // Part "rss": one checked batch on one thread in this fresh process.
  // Its peak is a property of the jobs; with 4 threads it would also
  // depend on which jobs happen to overlap (about +-10% on fig6_paper).
  if (options.part == "rss") {
    const Batch batch = run_batch(plan, 1);
    result.attempt(check_batch(batch, "", expected, result));
    result.metric("peak_rss_mb", peak_rss_mb("self"), "MB");
    return result;
  }

  // Warm-up: allocator growth and cold caches, discarded.
  const Batch warm = run_batch(plan, threads);
  result.attempt(check_batch(warm, "", expected, result));
  if (options.record) {
    record_counts(result, warm);
  }

  if (!options.trace) {
    std::vector<Input> inputs(kInputSets);
    for (std::uint64_t k = 0; k < kInputSets; ++k) {
      Input& input = inputs[k];
      input.planned = set_up(batch_request(options, options.seed + k));
      input.expected = k == 0 ? expected
                              : expectation_for(options, options.seed + k,
                                                result);
    }
    std::vector<double> busies;
    std::vector<double> job_ms;
    std::vector<double> setup_samples;
    const Timer clock;
    for (std::size_t i = 0;
         i < kInputSets || clock.elapsed_seconds() < options.seconds; ++i) {
      Input& input = inputs[i % kInputSets];
      const Batch batch = run_batch(input.planned.plan, threads);
      result.attempt(
          check_batch(batch, input.first_core, input.expected, result));
      if (input.first_core.empty()) {
        input.first_core = batch.core;
        input.overlap_mean = sum_of(batch.results, "overlap") /
                             static_cast<double>(batch.results.size());
      }
      input.walls.push_back(batch.wall_s);
      double busy = 0.0;
      for (const engine::JobResult& job : batch.results) {
        busy += job.wall_seconds;
      }
      busies.push_back(busy);
      job_ms.insert(job_ms.end(), batch.done_ms.begin(), batch.done_ms.end());
      // Set-ups between batches, not in a burst at process start: a
      // fresh process's first set-ups are bimodal (about 15 vs 24 us on
      // fig6_paper), set-ups among the real work repeat within a few %.
      for (int k = 0; k < kSetupsPerBatch; ++k) {
        const Timer timer;
        const Planned again = set_up(request);
        setup_samples.push_back(timer.elapsed_seconds());
      }
    }
    double wall = 0.0;
    double overlap = 0.0;
    std::size_t batches = 0;
    for (const Input& input : inputs) {
      wall += median(input.walls) / kInputSets;
      overlap += input.overlap_mean / kInputSets;
      batches += input.walls.size();
    }
    result.metric("setup_s", median(setup_samples), "s");
    result.metric("wall_s", wall, "s");
    result.metric("overlap_mean", overlap, "frac");
    const auto jobs = static_cast<double>(warm.results.size());
    result.metric("req_per_s", jobs / wall, "1/s");
    result.metric("lat_p50_ms", quantile(job_ms, 0.50), "ms");
    (void)std::fprintf(
        stderr,
        "npd_perfbench: %s: %zu batches over %d input sets, %zu job "
        "completion times; summed job time per batch p10/p50/p90 "
        "%.4f/%.4f/%.4f s; %zu set-ups p10/p50/p90 %.4g/%.4g/%.4g s\n",
        options.workload.c_str(), batches, static_cast<int>(kInputSets),
        job_ms.size(), quantile(busies, 0.1), median(busies),
        quantile(busies, 0.9), setup_samples.size(),
        quantile(setup_samples, 0.1), median(setup_samples),
        quantile(setup_samples, 0.9));
    return result;
  }

  const std::string& first_core = warm.core;
  // Traced run, part 1: the engine/report/json split at full threads.
  LayerReport report;
  std::vector<double> queue_s;
  std::vector<double> busy_s;
  std::vector<double> report_s;
  std::vector<double> json_s;
  std::vector<double> job_ms;
  for (int i = 0; i < kEngineRepeats; ++i) {
    const Batch batch = run_batch(plan, threads);
    result.attempt(check_batch(batch, first_core, expected, result));
    double busy = 0.0;
    for (const engine::JobResult& job : batch.results) {
      busy += job.wall_seconds;
      job_ms.push_back(job.wall_seconds * 1e3);
    }
    queue_s.push_back(batch.queue_s);
    busy_s.push_back(busy);
    report_s.push_back(batch.report_s);
    json_s.push_back(batch.json_s);
  }
  report.engine_queue_s = median(queue_s);
  report.engine_job_busy_s = median(busy_s);
  report.engine_busy_frac =
      report.engine_job_busy_s /
      (report.engine_queue_s * static_cast<double>(threads));
  report.engine_job_p50_ms = quantile(job_ms, 0.5);
  report.engine_job_max_ms = quantile(job_ms, 1.0);
  report.engine_report_s = median(report_s);
  report.util_json_s = median(json_s);
  report.util_report_bytes = static_cast<double>(warm.dump.size());
  {
    const Json doc = Json::parse(warm.dump);
    std::vector<double> parse_us;
    std::vector<double> dump_us;
    for (int i = 0; i < 5; ++i) {
      Timer timer;
      const Json parsed = Json::parse(warm.dump);
      parse_us.push_back(timer.elapsed_seconds() * 1e6);
      timer.reset();
      const std::string text = doc.dump();
      dump_us.push_back(timer.elapsed_seconds() * 1e6);
      if (parsed.size() != doc.size() || text.size() != warm.dump.size()) {
        result.fail("report JSON does not round-trip");
      }
    }
    report.util_json_parse_us = median(parse_us);
    report.util_json_dump_us = median(dump_us);
  }

  // Part 2: the untraced single-threaded reference for the overhead.
  const Batch single = run_batch(plan, 1);
  result.attempt(check_batch(single, first_core, expected, result));

  // Part 3: replays.  The first pass also checks every decomposed
  // instance against core::make_instance; the timed passes repeat until
  // the budget is spent, and their work counts must repeat exactly.
  const Json core_doc = Json::parse(first_core);
  const Layers counts = replay_jobs(plan, core_doc, warm.results, true, result);
  Layers layers;
  int passes = 0;
  const Timer clock;
  while (passes == 0 || clock.elapsed_seconds() < options.seconds / 2.0) {
    const Layers pass =
        replay_jobs(plan, core_doc, warm.results, false, result);
    if (pass.edges != counts.edges ||
        pass.measurements != counts.measurements ||
        pass.amp_iterations != counts.amp_iterations ||
        pass.net_messages != counts.net_messages ||
        pass.successes != counts.successes) {
      result.fail("replay work counts differ between passes");
    }
    layers.add(pass);
    ++passes;
  }
  layers.scale(1.0 / passes);
  result.attempt(result.correct());
  report.layers = layers;
  report.success_rate = layers.successes / layers.jobs;

  bool ok = true;
  expect_count(expected, "edges", layers.edges, result, ok);
  expect_count(expected, "measurements", layers.measurements, result, ok);
  expect_count(expected, "amp_iterations", layers.amp_iterations, result, ok);
  expect_count(expected, "netsim_messages", layers.net_messages, result, ok);
  expect_count(expected, "successes", layers.successes, result, ok);
  if (options.record) {
    result.record.set("edges", std::llround(layers.edges))
        .set("measurements", std::llround(layers.measurements))
        .set("amp_iterations", std::llround(layers.amp_iterations))
        .set("netsim_messages", std::llround(layers.net_messages));
  }

  report.trace_overhead_ratio = layers.wall_s / single.queue_s;
  const double unit = layers.effective_wall_s() + report.engine_report_s +
                      report.util_json_s;
  report.share_pooling = (layers.truth_s + layers.graph_s) / unit;
  report.share_noise = layers.measure_s / unit;
  report.share_amp = layers.amp_s / unit;
  report.share_solve = (layers.greedy_s + layers.dist_greedy_s) / unit;
  report.share_engine = report.engine_report_s / unit;
  report.share_util = report.util_json_s / unit;
  emit_layer_metrics(report, result);
  return result;
}

}  // namespace perfbench
