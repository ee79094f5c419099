#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "amp/preprocess.hpp"
#include "core/evaluation.hpp"
#include "core/instance.hpp"
#include "noise/channel.hpp"
#include "pooling/ground_truth.hpp"
#include "pooling/pooling_graph.hpp"
#include "solve/channel_spec.hpp"
#include "solve/design_spec.hpp"
#include "solve/reconstructor.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace npd;

/// Everything needed to rebuild one job from outside the engine.
struct JobSpec {
  Index n = 0;
  Index k = 0;
  Index m = 0;
  std::string design;
  /// Channel spec label; fig6 cells carry only `p` (a Z-channel).
  std::string channel;
  bool z_channel = false;
  double p = 0.0;
  std::string solver;
};

/// Read each cell's coordinates from the deterministic report: the
/// aggregate metadata names n, k, m, design, channel and solver for
/// every scenario the benchmark runs (fig6 keeps n and theta in params).
std::vector<JobSpec> cell_specs(const engine::BatchPlan& plan,
                                const Json& report_core) {
  const Json& scenario = report_core.at("scenarios").at(std::size_t{0});
  const Json& cells = scenario.at("aggregates").at("cells");
  const bool fig6 = plan.scenarios.front().scenario->name() == "fig6";
  std::vector<JobSpec> specs;
  specs.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Json& cell = cells.at(c);
    JobSpec spec;
    spec.m = static_cast<Index>(cell.at("m").as_int());
    spec.design = cell.at("design").as_string();
    spec.solver = cell.at("solver").as_string();
    if (fig6) {
      const Json& params = scenario.at("params");
      spec.n = static_cast<Index>(params.at("n").as_int());
      spec.k = pooling::sublinear_k(spec.n, params.at("theta").as_double());
      spec.z_channel = true;
      spec.p = cell.at("p").as_double();
    } else {
      spec.n = static_cast<Index>(cell.at("n").as_int());
      spec.k = static_cast<Index>(cell.at("k").as_int());
      spec.channel = cell.at("channel").as_string();
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::unique_ptr<noise::NoiseChannel> make_channel(const JobSpec& spec) {
  return spec.z_channel ? noise::make_z_channel(spec.p)
                        : solve::parse_channel_spec(spec.channel).make();
}

bool same_instance(const core::Instance& a, const core::Instance& b) {
  if (a.graph.num_agents() != b.graph.num_agents() ||
      a.graph.num_queries() != b.graph.num_queries() ||
      a.graph.num_edges() != b.graph.num_edges() ||
      a.truth.bits != b.truth.bits || a.truth.ones != b.truth.ones ||
      a.results != b.results) {
    return false;
  }
  for (Index j = 0; j < a.graph.num_queries(); ++j) {
    const auto qa = a.graph.query_multiset(j);
    const auto qb = b.graph.query_multiset(j);
    if (!std::equal(qa.begin(), qa.end(), qb.begin(), qb.end())) {
      return false;
    }
  }
  return true;
}

double metric_of(const engine::JobResult& job, const std::string& name) {
  for (const engine::Metric& metric : job.metrics) {
    if (metric.name == name) {
      return metric.value;
    }
  }
  return std::nan("");
}

}  // namespace

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  Json entry = Json::object();
  entry.set("value", std::isfinite(value) ? value : 0.0).set("unit", unit);
  metrics_.set(name, std::move(entry));
}

void Result::fail(const std::string& message) {
  errors_.push_back(message);
}

void Result::attempt(bool ok) {
  ++attempted_;
  if (!ok) {
    ++failed_;
  }
}

Json Result::to_json() const {
  Json doc = Json::object();
  // A run that attempted nothing measured nothing: report it as one
  // failed operation rather than as a vacuous success.
  doc.set("correct", correct() && attempted_ > 0)
      .set("attempted", std::max<std::int64_t>(attempted_, 1))
      .set("failed", attempted_ == 0 ? std::int64_t{1} : failed_)
      .set("metrics", metrics_);
  return doc;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double peak_rss_mb(const std::string& pid) {
  // VmHWM, not getrusage's ru_maxrss: the latter also counts the parent's
  // pages a forked child held before it exec'd.
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

void Layers::add(const Layers& o) {
  truth_s += o.truth_s;
  graph_s += o.graph_s;
  measure_s += o.measure_s;
  standardize_s += o.standardize_s;
  greedy_s += o.greedy_s;
  amp_s += o.amp_s;
  dist_greedy_s += o.dist_greedy_s;
  wall_s += o.wall_s;
  jobs += o.jobs;
  successes += o.successes;
  edges += o.edges;
  measurements += o.measurements;
  amp_jobs += o.amp_jobs;
  amp_iterations += o.amp_iterations;
  amp_converged += o.amp_converged;
  dense_mb += o.dense_mb;
  net_rounds += o.net_rounds;
  net_messages += o.net_messages;
  net_bytes += o.net_bytes;
  dup_builds += o.dup_builds;
}

void Layers::scale(double factor) {
  for (double* field :
       {&truth_s, &graph_s, &measure_s, &standardize_s, &greedy_s, &amp_s,
        &dist_greedy_s, &wall_s, &jobs, &successes, &edges,
        &measurements, &amp_jobs, &amp_iterations, &amp_converged, &dense_mb,
        &net_rounds, &net_messages, &net_bytes, &dup_builds}) {
    *field *= factor;
  }
}

Layers replay_jobs(const engine::BatchPlan& plan, const Json& report_core,
                   const std::vector<engine::JobResult>& results,
                   bool check_instances, Result& result) {
  const std::vector<JobSpec> specs = cell_specs(plan, report_core);
  std::map<std::string, std::shared_ptr<const solve::Reconstructor>> solvers;
  std::set<std::tuple<std::uint64_t, Index, Index, std::string>> built;
  Layers layers;
  const Timer pass;
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    const engine::Job& job = plan.jobs[j];
    const JobSpec& spec = specs.at(static_cast<std::size_t>(job.cell));
    auto& solver = solvers[spec.solver];
    if (!solver) {
      solver = solve::builtin_solvers().make(spec.solver, "");
    }
    const auto channel = make_channel(spec);
    const pooling::GraphDesign design =
        solve::parse_design_spec(spec.design).instantiate(spec.n);
    if (!built.emplace(job.seed, spec.n, spec.m, spec.design).second) {
      ++layers.dup_builds;
    }

    rand::Rng rng(job.seed);
    Timer timer;
    core::Instance instance;
    instance.truth = pooling::make_ground_truth(spec.n, spec.k, rng);
    layers.truth_s += timer.elapsed_seconds();
    timer.reset();
    instance.graph = pooling::build_design_graph(spec.n, spec.m, design, rng);
    layers.graph_s += timer.elapsed_seconds();
    timer.reset();
    instance.results =
        core::measure_all(instance.graph, instance.truth, *channel, rng);
    layers.measure_s += timer.elapsed_seconds();

    if (check_instances) {
      rand::Rng fresh(job.seed);
      const core::Instance reference = core::make_instance(
          spec.n, spec.k, spec.m, design, *channel, fresh);
      if (!same_instance(instance, reference)) {
        result.fail("replay: decomposed instance differs from "
                    "core::make_instance for job " + std::to_string(j));
      }
    }

    if (spec.solver == "amp") {
      // The solver standardizes internally; a separate timed call splits
      // its time into standardize and iterate from the outside.
      const Index gamma = static_cast<Index>(
          std::llround(static_cast<double>(instance.graph.num_edges()) /
                       static_cast<double>(instance.m())));
      const noise::Linearization lin =
          channel->linearization(instance.n(), instance.k(), gamma);
      timer.reset();
      const amp::AmpProblem problem = amp::standardize(instance, lin);
      layers.standardize_s += timer.elapsed_seconds();
      (void)problem;
    }
    timer.reset();
    const solve::SolveResult solved = solver->solve(instance, *channel, rng);
    const double solve_s = timer.elapsed_seconds();
    if (spec.solver == "greedy") {
      layers.greedy_s += solve_s;
    } else if (spec.solver == "amp") {
      layers.amp_s += solve_s;
      ++layers.amp_jobs;
      layers.amp_iterations += static_cast<double>(solved.iterations);
      layers.amp_converged += solved.converged ? 1 : 0;
      layers.dense_mb += 8.0 * static_cast<double>(spec.m) *
                         static_cast<double>(spec.n) / 1e6;
    } else if (spec.solver == "dist_greedy") {
      layers.dist_greedy_s += solve_s;
    }
    if (solved.net.has_value()) {
      layers.net_rounds += static_cast<double>(solved.net->rounds);
      layers.net_messages += static_cast<double>(solved.net->messages);
      layers.net_bytes += static_cast<double>(solved.net->bytes);
    }

    ++layers.jobs;
    layers.edges += static_cast<double>(instance.graph.num_edges());
    layers.measurements += static_cast<double>(instance.m());
    const bool success = core::exact_success(solved.estimate, instance.truth);
    layers.successes += success ? 1 : 0;
    const double overlap = core::overlap(solved.estimate, instance.truth);
    const engine::JobResult& engine_job = results.at(j);
    if ((success ? 1.0 : 0.0) != metric_of(engine_job, "success") ||
        overlap != metric_of(engine_job, "overlap")) {
      result.fail("replay: job " + std::to_string(j) +
                  " success/overlap differs from the engine's JobResult");
    }
  }
  layers.wall_s = pass.elapsed_seconds();
  return layers;
}

void emit_layer_metrics(const LayerReport& r, Result& result) {
  const Layers& l = r.layers;
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  result.metric("quality.success_rate", r.success_rate, "frac");
  result.metric("pooling.graph_s", l.graph_s, "s");
  result.metric("pooling.truth_s", l.truth_s, "s");
  result.metric("pooling.edges", l.edges, "count");
  result.metric("pooling.ns_per_edge",
                per(l.graph_s * 1e9, l.edges), "ns");
  result.metric("pooling.dup_build_frac",
                per(l.dup_builds,
                    l.jobs),
                "frac");
  result.metric("noise.measure_s", l.measure_s, "s");
  result.metric("noise.measurements", l.measurements,
                "count");
  result.metric("amp.standardize_s", l.standardize_s, "s");
  result.metric("amp.iterate_s", std::max(0.0, l.amp_s - l.standardize_s),
                "s");
  result.metric("amp.iterations", l.amp_iterations,
                "count");
  result.metric("amp.converged_frac",
                per(l.amp_converged,
                    l.amp_jobs),
                "frac");
  result.metric("amp.dense_mb_computed", l.dense_mb, "MB");
  result.metric("solve.greedy_s", l.greedy_s, "s");
  result.metric("solve.amp_s", l.amp_s, "s");
  result.metric("solve.dist_greedy_s", l.dist_greedy_s, "s");
  result.metric("netsim.rounds", l.net_rounds, "count");
  result.metric("netsim.messages", l.net_messages,
                "count");
  result.metric("netsim.bytes", l.net_bytes, "B");
  result.metric("netsim.ns_per_message",
                per(l.dist_greedy_s * 1e9, l.net_messages),
                "ns");
  result.metric("engine.queue_s", r.engine_queue_s, "s");
  result.metric("engine.job_busy_s", r.engine_job_busy_s, "s");
  result.metric("engine.busy_frac", r.engine_busy_frac, "frac");
  result.metric("engine.job_p50_ms", r.engine_job_p50_ms, "ms");
  result.metric("engine.job_max_ms", r.engine_job_max_ms, "ms");
  result.metric("engine.report_s", r.engine_report_s, "s");
  result.metric("util.json_s", r.util_json_s, "s");
  result.metric("util.report_bytes", r.util_report_bytes, "B");
  result.metric("util.json_parse_us", r.util_json_parse_us, "us");
  result.metric("util.json_dump_us", r.util_json_dump_us, "us");
  result.metric("serve.server_p50_ms", r.serve_server_p50_ms, "ms");
  result.metric("serve.server_p99_ms", r.serve_server_p99_ms, "ms");
  result.metric("serve.batch_size_mean", r.serve_batch_size_mean, "count");
  result.metric("serve.queue_depth_max", r.serve_queue_depth_max, "count");
  result.metric("serve.design_cache_hit_frac", r.serve_design_cache_hit_frac,
                "frac");
  result.metric("serve.execute_ms", r.serve_execute_ms, "ms");
  result.metric("serve.transport_ms", r.serve_transport_ms, "ms");
  result.metric("serve.ping_rtt_ms", r.serve_ping_rtt_ms, "ms");
  result.metric("client.lateness_p99_ms", r.client_lateness_p99_ms, "ms");
  result.metric("trace.overhead_ratio", r.trace_overhead_ratio, "ratio");
  result.metric("share.pooling", r.share_pooling, "frac");
  result.metric("share.noise", r.share_noise, "frac");
  result.metric("share.amp", r.share_amp, "frac");
  result.metric("share.solve", r.share_solve, "frac");
  result.metric("share.engine", r.share_engine, "frac");
  result.metric("share.util", r.share_util, "frac");
  result.metric("share.serve", r.share_serve, "frac");
  result.metric("share.transport", r.share_transport, "frac");
}

}  // namespace perfbench
