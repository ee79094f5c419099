// Tests for the serving subsystem (src/serve + the util/socket framing):
// protocol parsing and the derived-seed contract, the configuration
// hash, the Service's bit-identity with the offline engine (solo, batched,
// across thread counts), error isolation inside a micro-batch, the
// length-prefixed framing over a socketpair, and the load-generator's
// latency statistics.
//
// The daemon/socket integration (real processes, real sockets, killed
// clients) lives in the tools.serve_roundtrip ctest; these tests pin the
// library-level contracts the daemon is built from, plus the in-process
// daemon's resilience to malformed frames (truncated/oversize headers,
// non-JSON payloads, unknown ops).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/builtin_scenarios.hpp"
#include "engine/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/stats.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace npd::serve {
namespace {

// ------------------------------------------------------------- protocol

Json solve_request_doc(const std::string& id) {
  Json doc = Json::object();
  doc.set("schema", std::string(kRequestSchema))
      .set("id", id)
      .set("op", "solve")
      .set("scenario", "solver_sweep")
      .set("params", "n_lo=60;n_hi=60")
      .set("reps", std::int64_t{2});
  return doc;
}

TEST(ProtocolTest, ParsesFullSolveRequest) {
  Json doc = solve_request_doc("req-1");
  doc.set("seed", std::int64_t{99});
  const Request request = parse_request(doc);
  EXPECT_EQ(request.id, "req-1");
  EXPECT_EQ(request.op, Op::Solve);
  EXPECT_EQ(request.scenario, "solver_sweep");
  EXPECT_EQ(request.params, "n_lo=60;n_hi=60");
  EXPECT_EQ(request.reps, 2);
  ASSERT_TRUE(request.seed.has_value());
  EXPECT_EQ(*request.seed, 99u);
}

TEST(ProtocolTest, DefaultsOpSolveRepsOneNoSeed) {
  Json doc = Json::object();
  doc.set("schema", std::string(kRequestSchema))
      .set("id", "r")
      .set("scenario", "solver_sweep");
  const Request request = parse_request(doc);
  EXPECT_EQ(request.op, Op::Solve);
  EXPECT_EQ(request.reps, 1);
  EXPECT_TRUE(request.params.empty());
  EXPECT_FALSE(request.seed.has_value());
}

TEST(ProtocolTest, ParsesControlOps) {
  Json ping = Json::object();
  ping.set("schema", std::string(kRequestSchema))
      .set("id", "p")
      .set("op", "ping");
  EXPECT_EQ(parse_request(ping).op, Op::Ping);
  Json shutdown = Json::object();
  shutdown.set("schema", std::string(kRequestSchema))
      .set("id", "s")
      .set("op", "shutdown");
  EXPECT_EQ(parse_request(shutdown).op, Op::Shutdown);
  Json stats = Json::object();
  stats.set("schema", std::string(kRequestSchema))
      .set("id", "st")
      .set("op", "stats");
  EXPECT_EQ(parse_request(stats).op, Op::Stats);
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  Json wrong_schema = solve_request_doc("r");
  wrong_schema.set("schema", "npd.request/2");
  EXPECT_THROW((void)parse_request(wrong_schema), std::invalid_argument);

  Json no_id = solve_request_doc("");
  EXPECT_THROW((void)parse_request(no_id), std::invalid_argument);

  Json bad_op = solve_request_doc("r");
  bad_op.set("op", "solve_twice");
  EXPECT_THROW((void)parse_request(bad_op), std::invalid_argument);

  Json no_scenario = Json::object();
  no_scenario.set("schema", std::string(kRequestSchema)).set("id", "r");
  EXPECT_THROW((void)parse_request(no_scenario), std::invalid_argument);

  Json zero_reps = solve_request_doc("r");
  zero_reps.set("reps", std::int64_t{0});
  EXPECT_THROW((void)parse_request(zero_reps), std::invalid_argument);

  Json negative_seed = solve_request_doc("r");
  negative_seed.set("seed", std::int64_t{-4});
  EXPECT_THROW((void)parse_request(negative_seed), std::invalid_argument);
}

TEST(ProtocolTest, DerivedSeedIsPureAndIdSensitive) {
  const std::uint64_t a = derive_request_seed(42, "req-1");
  EXPECT_EQ(a, derive_request_seed(42, "req-1"));
  EXPECT_NE(a, derive_request_seed(42, "req-2"));
  EXPECT_NE(a, derive_request_seed(43, "req-1"));
}

TEST(ProtocolTest, DerivedSeedFitsSignedInt64) {
  // The decimal form must survive `npd_run --seed` (signed parse): the
  // top bit is always clear, and the values still spread.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t seed =
        derive_request_seed(42, "req-" + std::to_string(i));
    EXPECT_EQ(seed >> 63, 0u);
    seen.insert(seed);
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(ProtocolTest, ErrorAndControlResponseShapes) {
  const Json error = make_error_response("req-9", "boom");
  EXPECT_EQ(error.at("schema").as_string(), kResponseSchema);
  EXPECT_EQ(error.at("id").as_string(), "req-9");
  EXPECT_EQ(error.at("status").as_string(), "error");
  EXPECT_EQ(error.at("error").as_string(), "boom");

  Request ping;
  ping.id = "p";
  ping.op = Op::Ping;
  const Json ack = make_control_response(ping);
  EXPECT_EQ(ack.at("status").as_string(), "ok");
  EXPECT_EQ(ack.at("op").as_string(), "ping");

  Request stats;
  stats.id = "st";
  stats.op = Op::Stats;
  const Json stats_ack = make_control_response(stats);
  EXPECT_EQ(stats_ack.at("status").as_string(), "ok");
  EXPECT_EQ(stats_ack.at("op").as_string(), "stats");
}

// ------------------------------------------------------- config hash

engine::ScenarioRegistry& test_registry() {
  static engine::ScenarioRegistry registry = [] {
    engine::ScenarioRegistry r;
    engine::register_builtin_scenarios(r);
    return r;
  }();
  return registry;
}

TEST(ServiceTest, ConfigHashIsStableAndConfigSensitive) {
  const engine::Scenario* scenario = test_registry().find("solver_sweep");
  ASSERT_NE(scenario, nullptr);
  engine::ScenarioParams params(scenario->params());
  const std::string base = config_hash("solver_sweep", params);
  EXPECT_EQ(base, config_hash("solver_sweep", params));
  engine::ScenarioParams changed(scenario->params());
  changed.set_packed("n_lo=60");
  EXPECT_NE(base, config_hash("solver_sweep", changed));
}

// -------------------------------------------------- service bit-identity

Request solve_request(const std::string& id, std::uint64_t seed,
                      const std::string& params = "n_lo=60;n_hi=60",
                      Index reps = 1) {
  Request request;
  request.id = id;
  request.scenario = "solver_sweep";
  request.params = params;
  request.reps = reps;
  request.seed = seed;
  return request;
}

/// The offline reference: the same solve through the engine's plain
/// batch path, as the deterministic (no-perf) report bytes.
std::string offline_bytes(std::uint64_t seed, Index reps,
                          const std::vector<engine::ParamOverride>& overrides) {
  engine::BatchRequest request;
  request.scenario_names = {"solver_sweep"};
  request.config.seed = seed;
  request.config.reps = reps;
  request.config.threads = 1;
  request.overrides = overrides;
  return engine::run_batch(test_registry(), request)
      .to_json(false)
      .dump(2);
}

TEST(ServiceTest, ResponseReportMatchesOfflineRunBatch) {
  Service service(test_registry(), {42, 1});
  const Json response = service.execute_one(solve_request("r1", 7));
  EXPECT_EQ(response.at("status").as_string(), "ok");
  EXPECT_EQ(response.at("seed").as_int(), 7);
  const std::string served = response.at("report").dump(2);
  EXPECT_EQ(served,
            offline_bytes(7, 1,
                          {{"solver_sweep", "n_lo", "60"},
                           {"solver_sweep", "n_hi", "60"}}));
}

TEST(ServiceTest, DerivedSeedIsUsedAndEchoed) {
  Service service(test_registry(), {42, 1});
  Request request = solve_request("req-derive", 0);
  request.seed.reset();
  const Json response = service.execute_one(request);
  const std::uint64_t expected = derive_request_seed(42, "req-derive");
  EXPECT_EQ(static_cast<std::uint64_t>(response.at("seed").as_int()),
            expected);
}

TEST(ServiceTest, BatchedEqualsUnbatchedAcrossThreadCounts) {
  // One micro-batch of three requests on 4 threads vs each request
  // alone on 1 thread: every response's deterministic core must be
  // byte-identical (the engine's seed derivation does not care who
  // shares the worker pool).
  Service batched(test_registry(), {42, 4});
  Service solo(test_registry(), {42, 1});
  const std::vector<Request> requests = {
      solve_request("a", 7),
      solve_request("b", 7, "n_lo=60;n_hi=120", 2),
      solve_request("c", 8)};
  const std::vector<Json> together = batched.execute(requests);
  ASSERT_EQ(together.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Json alone = solo.execute_one(requests[i]);
    EXPECT_EQ(together[i].at("report").dump(2),
              alone.at("report").dump(2))
        << "request " << requests[i].id;
    EXPECT_EQ(together[i].at("config_hash").as_string(),
              alone.at("config_hash").as_string());
  }
  // The batch really was one batch.
  EXPECT_EQ(batched.counters().batches.load(), 1);
  EXPECT_EQ(batched.counters().requests.load(), 3);
}

TEST(ServiceTest, BadRequestFailsAloneInsideABatch) {
  Service service(test_registry(), {42, 2});
  std::vector<Request> requests = {solve_request("good-1", 7),
                                   solve_request("poisoned", 7),
                                   solve_request("good-2", 7)};
  requests[1].scenario = "no_such_scenario";
  const std::vector<Json> responses = service.execute(requests);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].at("status").as_string(), "ok");
  EXPECT_EQ(responses[1].at("status").as_string(), "error");
  EXPECT_NE(responses[1].at("error").as_string().find("unknown scenario"),
            std::string::npos);
  EXPECT_EQ(responses[2].at("status").as_string(), "ok");
  EXPECT_EQ(responses[0].at("report").dump(2),
            responses[2].at("report").dump(2));
  EXPECT_EQ(service.counters().errors.load(), 1);
}

TEST(ServiceTest, ControlOpsSkipTheEngine) {
  Service service(test_registry(), {42, 1});
  Request ping;
  ping.id = "p";
  ping.op = Op::Ping;
  const Json ack = service.execute_one(ping);
  EXPECT_EQ(ack.at("status").as_string(), "ok");
  EXPECT_EQ(service.counters().jobs.load(), 0);
  EXPECT_EQ(service.counters().requests.load(), 0);
}

// ---------------------------------------------------------------- framing

TEST(FramingTest, RoundTripsOverASocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::Fd a(fds[0]);
  net::Fd b(fds[1]);

  const std::string small = "{\"x\":1}";
  std::string big(100'000, 'y');
  ASSERT_TRUE(net::write_frame(a, small));
  ASSERT_TRUE(net::write_frame(a, ""));
  ASSERT_TRUE(net::write_frame(a, big));

  EXPECT_EQ(net::read_frame(b).value_or("?"), small);
  EXPECT_EQ(net::read_frame(b).value_or("?"), "");
  EXPECT_EQ(net::read_frame(b).value_or("?"), big);

  a.close();
  EXPECT_FALSE(net::read_frame(b).has_value());  // clean EOF
  EXPECT_FALSE(net::write_frame(b, small));      // peer gone, no SIGPIPE
}

// ------------------------------------------------- malformed daemon input

std::string test_socket_path() {
  static int counter = 0;
  return "/tmp/npd_serve_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(++counter) + ".sock";
}

ServerOptions harness_options(const std::string& path) {
  ServerOptions options;
  options.unix_path = path;
  options.threads = 1;
  options.batch_max = 1;
  return options;
}

/// An in-process daemon on a fresh Unix socket: `start()` in the
/// constructor (so connects never race the listener), `run()` on a
/// background thread, drained shutdown in the destructor.
struct ServerHarness {
  std::string path = test_socket_path();
  Server server{test_registry(), harness_options(path)};
  std::thread runner;

  ServerHarness() {
    server.start();
    runner = std::thread([this] { (void)server.run(); });
  }
  ~ServerHarness() {
    server.request_shutdown();
    runner.join();
    ::unlink(path.c_str());
  }
};

Json ping_doc(const std::string& id) {
  Json doc = Json::object();
  doc.set("schema", std::string(kRequestSchema)).set("id", id).set("op",
                                                                   "ping");
  return doc;
}

std::optional<Json> round_trip(const net::Fd& fd, const std::string& payload) {
  if (!net::write_frame(fd, payload)) {
    return std::nullopt;
  }
  const std::optional<std::string> reply = net::read_frame(fd);
  if (!reply.has_value()) {
    return std::nullopt;
  }
  return Json::parse(*reply);
}

/// The daemon-liveness probe every malformed-input test ends with: a
/// fresh connection must still answer a ping.
void expect_still_serving(const std::string& path, const std::string& tag) {
  const net::Fd client = net::connect_unix(path);
  const std::optional<Json> ack = round_trip(client, ping_doc(tag).dump());
  ASSERT_TRUE(ack.has_value()) << "daemon stopped answering after " << tag;
  EXPECT_EQ(ack->at("status").as_string(), "ok");
  EXPECT_EQ(ack->at("op").as_string(), "ping");
}

TEST(ServerMalformedInputTest, SurvivesTruncatedLengthPrefix) {
  ServerHarness harness;
  {
    // Two bytes of a four-byte length header, then EOF: a torn frame the
    // reader must treat as "connection done", not a crash.
    net::Fd client = net::connect_unix(harness.path);
    const unsigned char half_header[2] = {0x00, 0x00};
    ASSERT_EQ(::send(client.get(), half_header, sizeof(half_header),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(half_header)));
    client.close();
  }
  expect_still_serving(harness.path, "after-truncated-header");
}

TEST(ServerMalformedInputTest, SurvivesOversizeLengthHeader) {
  ServerHarness harness;
  {
    // A length header beyond kMaxFrameBytes is protocol corruption: the
    // reader drops the connection before sizing a buffer.
    net::Fd client = net::connect_unix(harness.path);
    const std::uint32_t oversize = net::kMaxFrameBytes + 1;
    const unsigned char header[4] = {
        static_cast<unsigned char>(oversize >> 24),
        static_cast<unsigned char>(oversize >> 16),
        static_cast<unsigned char>(oversize >> 8),
        static_cast<unsigned char>(oversize)};
    ASSERT_EQ(::send(client.get(), header, sizeof(header), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(header)));
  }
  expect_still_serving(harness.path, "after-oversize-header");
}

TEST(ServerMalformedInputTest, AnswersNonJsonPayloadWithErrorAndKeepsConnection) {
  ServerHarness harness;
  net::Fd client = net::connect_unix(harness.path);

  const std::optional<Json> error = round_trip(client, "this is { not json");
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->at("status").as_string(), "error");
  EXPECT_NE(error->at("error").as_string().find("bad frame"),
            std::string::npos);

  // The same connection keeps working after the bad payload...
  const std::optional<Json> ack = round_trip(client, ping_doc("p1").dump());
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->at("status").as_string(), "ok");
  // ...and so does the daemon as a whole.
  expect_still_serving(harness.path, "after-non-json-payload");
}

TEST(ServerMalformedInputTest, AnswersUnknownOpWithErrorEchoingTheId) {
  ServerHarness harness;
  net::Fd client = net::connect_unix(harness.path);

  Json doc = Json::object();
  doc.set("schema", std::string(kRequestSchema))
      .set("id", "weird-1")
      .set("op", "explode");
  const std::optional<Json> error = round_trip(client, doc.dump());
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->at("status").as_string(), "error");
  EXPECT_EQ(error->at("id").as_string(), "weird-1");

  const std::optional<Json> ack = round_trip(client, ping_doc("p2").dump());
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->at("status").as_string(), "ok");
  expect_still_serving(harness.path, "after-unknown-op");
}

// ------------------------------------------------------------- load stats

TEST(StatsTest, NearestRankPercentiles) {
  LatencyRecorder recorder;
  for (int ms = 1; ms <= 100; ++ms) {
    recorder.record(ms / 1000.0);
  }
  EXPECT_EQ(recorder.count(), 100);
  EXPECT_NEAR(recorder.percentile_ms(0.50), 50.0, 1e-9);
  EXPECT_NEAR(recorder.percentile_ms(0.95), 95.0, 1e-9);
  EXPECT_NEAR(recorder.percentile_ms(0.99), 99.0, 1e-9);
  EXPECT_NEAR(recorder.percentile_ms(1.0), 100.0, 1e-9);
  EXPECT_EQ(LatencyRecorder{}.percentile_ms(0.5), 0.0);
}

TEST(StatsTest, MergeFoldsSamples) {
  LatencyRecorder a;
  LatencyRecorder b;
  a.record(0.001);
  b.record(0.003);
  b.record(0.005);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_NEAR(a.percentile_ms(1.0), 5.0, 1e-9);
}

TEST(StatsTest, StatsJsonShapeAndHistogramTotal) {
  LoadStats stats;
  stats.mode = "closed";
  stats.concurrency = 4;
  stats.duration_seconds = 2.0;
  stats.requests = 3;
  stats.ok = 3;
  for (double s : {0.0005, 0.002, 5.0}) {
    stats.latency.record(s);
  }
  const Json doc = serve_stats_json(stats);
  EXPECT_EQ(doc.at("schema").as_string(), kStatsSchema);
  EXPECT_EQ(doc.at("requests").as_int(), 3);
  EXPECT_NEAR(doc.at("throughput_rps").as_double(), 1.5, 1e-9);
  EXPECT_EQ(doc.at("latency_ms").at("count").as_int(), 3);

  // Histogram buckets are non-cumulative and cover everything: their
  // counts sum to the sample count (the 5 s sample lands in a finite
  // 1-2-5 bucket; the null bucket catches only > 10 s).
  const Json& histogram = doc.at("histogram");
  std::int64_t total = 0;
  for (Index i = 0; i < static_cast<Index>(histogram.size()); ++i) {
    total += histogram.at(i).at("count").as_int();
  }
  EXPECT_EQ(total, 3);
  EXPECT_TRUE(histogram.at(histogram.size() - 1).at("le_ms").is_null());
}

TEST(StatsTest, TimelineBucketsBySecondAndMerges) {
  TimelineRecorder a;
  a.record(0.2, 0.001);
  a.record(0.9, 0.003);
  a.record(2.1, 0.010);  // second 1 completed nothing — stays sparse
  TimelineRecorder b;
  b.record(0.5, 0.005);
  a.merge(b);

  const Json timeline = a.timeline_json();
  ASSERT_EQ(timeline.size(), 2u);
  const Json& first = timeline.at(0);
  EXPECT_EQ(first.at("second").as_int(), 0);
  EXPECT_EQ(first.at("requests").as_int(), 3);
  EXPECT_NEAR(first.at("p50_ms").as_double(), 3.0, 1e-9);
  EXPECT_NEAR(first.at("p99_ms").as_double(), 5.0, 1e-9);
  const Json& second = timeline.at(1);
  EXPECT_EQ(second.at("second").as_int(), 2);
  EXPECT_EQ(second.at("requests").as_int(), 1);
  EXPECT_NEAR(second.at("p99_ms").as_double(), 10.0, 1e-9);

  // The timeline rides inside npd.serve_stats/1.
  LoadStats stats;
  stats.timeline = a;
  const Json doc = serve_stats_json(stats);
  EXPECT_EQ(doc.at("timeline").size(), 2u);
}

}  // namespace
}  // namespace npd::serve
