#include "util/heartbeat.hpp"

#include <chrono>
#include <type_traits>
#include <utility>

#include "util/file.hpp"

namespace npd::heartbeat {

namespace {

constexpr std::string_view kSchema = "npd.heartbeat/1";

}  // namespace

double now_unix_seconds() {
  // The telemetry layer's sanctioned wall-clock read (this TU is
  // allowlisted by npd_lint's no-wall-clock rule).  Exposed so callers
  // computing heartbeat lag never touch the clock themselves.
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

Json to_json(const Heartbeat& heartbeat) {
  Json doc = Json::object();
  doc.set("schema", std::string(kSchema))
      .set("shard", heartbeat.shard_index)
      .set("shards", heartbeat.shard_count)
      .set("jobs_done", heartbeat.jobs_done)
      .set("jobs_total", heartbeat.jobs_total)
      .set("cache_hits", heartbeat.cache_hits)
      .set("cache_misses", heartbeat.cache_misses)
      .set("scenario", heartbeat.scenario)
      .set("cell", heartbeat.cell)
      .set("updated_unix", heartbeat.updated_unix)
      .set("done", heartbeat.done);
  return doc;
}

std::optional<Heartbeat> from_json(const Json& doc) {
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchema) {
    return std::nullopt;
  }
  Heartbeat heartbeat;
  const auto read_int = [&](const char* key, auto& out) {
    const Json* value = doc.find(key);
    if (value == nullptr || value->type() != Json::Type::Int) {
      return false;
    }
    out = static_cast<std::decay_t<decltype(out)>>(value->as_int());
    return true;
  };
  if (!read_int("shard", heartbeat.shard_index) ||
      !read_int("shards", heartbeat.shard_count) ||
      !read_int("jobs_done", heartbeat.jobs_done) ||
      !read_int("jobs_total", heartbeat.jobs_total) ||
      !read_int("cache_hits", heartbeat.cache_hits) ||
      !read_int("cache_misses", heartbeat.cache_misses) ||
      !read_int("cell", heartbeat.cell)) {
    return std::nullopt;
  }
  const Json* scenario = doc.find("scenario");
  const Json* updated = doc.find("updated_unix");
  const Json* done = doc.find("done");
  if (scenario == nullptr || !scenario->is_string() || updated == nullptr ||
      !updated->is_number() || done == nullptr ||
      done->type() != Json::Type::Bool) {
    return std::nullopt;
  }
  heartbeat.scenario = scenario->as_string();
  heartbeat.updated_unix = updated->as_double();
  heartbeat.done = done->as_bool();
  return heartbeat;
}

bool write_heartbeat(const std::filesystem::path& path,
                     Heartbeat heartbeat) {
  heartbeat.updated_unix = now_unix_seconds();
  return write_file_atomically(path, to_json(heartbeat).dump(2) + "\n");
}

std::optional<Heartbeat> read_heartbeat(const std::filesystem::path& path) {
  const std::optional<std::string> text = try_read_file(path);
  if (!text.has_value()) {
    return std::nullopt;
  }
  try {
    return from_json(Json::parse(*text));
  } catch (const std::exception&) {
    return std::nullopt;  // malformed telemetry is "no heartbeat"
  }
}

void ProgressCounters::set_current(const std::string& scenario, Index cell) {
  const std::lock_guard<std::mutex> lock(current_mutex_);
  current_scenario_ = scenario;
  current_cell_ = cell;
}

void ProgressCounters::snapshot(Heartbeat& out) const {
  out.jobs_total = jobs_total_.load(std::memory_order_relaxed);
  out.jobs_done = jobs_done_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(current_mutex_);
  out.scenario = current_scenario_;
  out.cell = current_cell_;
}

HeartbeatWriter::HeartbeatWriter(std::filesystem::path path,
                                 Index shard_index, Index shard_count,
                                 const ProgressCounters& progress,
                                 int interval_ms)
    : path_(std::move(path)),
      shard_index_(shard_index),
      shard_count_(shard_count),
      progress_(progress),
      interval_ms_(interval_ms < 1 ? 1 : interval_ms) {
  write_once(false);  // announce liveness before the first interval
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                       [this] { return stopping_; })) {
        break;
      }
      lock.unlock();
      write_once(false);
      lock.lock();
    }
  });
}

HeartbeatWriter::~HeartbeatWriter() { stop(); }

void HeartbeatWriter::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) {
      return;
    }
    stopping_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  write_once(true);  // the terminal heartbeat
}

void HeartbeatWriter::write_once(bool done) {
  Heartbeat heartbeat;
  heartbeat.shard_index = shard_index_;
  heartbeat.shard_count = shard_count_;
  heartbeat.done = done;
  progress_.snapshot(heartbeat);
  (void)write_heartbeat(path_, std::move(heartbeat));
}

}  // namespace npd::heartbeat
