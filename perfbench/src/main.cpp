// npd_perfbench — one benchmark run of one workload, in a fresh process.
//
//   npd_perfbench --workload fig6_paper --seed 3 --seconds 20 --trace 0
//   npd_perfbench --workload serve_small --seed 3 --seconds 20 --trace 1
//                 --serve-exe .bench_build/npd/tools/npd_serve
//                 --socket .bench_build/s.sock --open-qps 600
//
// Prints the checked result as one JSON line (the last line of
// stdout): end-to-end metrics with `--trace 0`, the per-layer split
// with `--trace 1`.  `perfbench/run.py` builds this binary and wraps it.

#include <cstdio>
#include <exception>

#include "common.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    npd::CliParser cli("npd_perfbench",
                       "Run one benchmark workload and print its checked "
                       "metrics as JSON.");
    const std::string& workload = cli.add_string(
        "workload", "", "fig6_paper | atlas_regular | serve_small");
    const long long& seed = cli.add_int("seed", 0, "workload seed (>= 0)");
    const double& seconds =
        cli.add_double("seconds", 10.0, "measurement budget in seconds");
    const long long& trace =
        cli.add_int("trace", 0, "1 = per-layer traced run, 0 = end to end");
    const std::string& part = cli.add_string(
        "part", "main", "batch workloads: main | rss");
    const std::string& size =
        cli.add_string("size", "full", "full | tiny (smoke-test sizes)");
    const std::string& expectations = cli.add_string(
        "expectations", "", "committed per-seed expectations (JSON)");
    const bool& record = cli.add_flag(
        "record", "print the observed expectation record instead");
    const std::string& serve_exe =
        cli.add_string("serve-exe", "", "serve_small: npd_serve binary");
    const std::string& socket_path =
        cli.add_string("socket", "", "serve_small: daemon socket path");
    const double& open_qps =
        cli.add_double("open-qps", 0.0, "serve_small: open-loop rate");
    cli.parse(argc, argv);
    if (seed < 0 || seconds <= 0.0 || (size != "full" && size != "tiny") ||
        (part != "main" && part != "rss")) {
      throw std::invalid_argument("need --seed >= 0, --seconds > 0, "
                                  "--size full|tiny and --part main|rss");
    }

    Options options;
    options.workload = workload;
    options.seed = static_cast<std::uint64_t>(seed);
    options.seconds = seconds;
    options.trace = trace != 0;
    options.size = size;
    options.part = part;
    options.expectations_path = expectations;
    options.record = record;
    options.serve_exe = serve_exe;
    options.socket_path = socket_path;
    options.open_qps = open_qps;

    const Result result = workload == "serve_small"
                              ? run_serve_workload(options)
                              : run_batch_workload(options);
    for (const std::string& error : result.errors()) {
      (void)std::fprintf(stderr, "npd_perfbench: check failed: %s\n",
                         error.c_str());
    }
    const npd::Json& doc = record ? result.record : result.to_json();
    (void)std::printf("%s\n", doc.dump().c_str());
    return record && !result.correct() ? 1 : 0;
  } catch (const std::exception& error) {
    (void)std::fprintf(stderr, "npd_perfbench: %s\n", error.what());
    return 1;
  }
}
