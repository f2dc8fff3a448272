#include "common.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/event_io.hpp"
#include "sim/log_io.hpp"

namespace v6sonar::benchx {

namespace {

std::string config_tag(const telescope::WorldConfig& cfg) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "s%llu_m%zu_t%g_x%g",
                static_cast<unsigned long long>(cfg.seed), cfg.deployment.machines,
                cfg.cast.megascanner_thinning, cfg.cast.session_scale);
  return buf;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::string cache_dir() {
  const char* env = std::getenv("V6SONAR_CACHE_DIR");
  const std::string dir = env ? env : ".v6sonar_cache";
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

std::string ensure_world_log(const telescope::WorldConfig& config) {
  const std::string path = cache_dir() + "/world_" + config_tag(config) + ".v6slog";
  if (std::filesystem::exists(path)) return path;

  std::printf("[cache] generating 15-month world log -> %s (one-time, ~1-2 min)\n",
              path.c_str());
  std::fflush(stdout);
  const auto t0 = std::chrono::steady_clock::now();
  telescope::CdnWorld world(config);
  const std::string tmp = path + ".tmp";
  {
    sim::LogWriter writer(tmp);
    world.run([&](const sim::LogRecord& r) { writer.write(r); });
    writer.close();
    std::printf("[cache] %llu records in %.1f s\n",
                static_cast<unsigned long long>(writer.written()), seconds_since(t0));
  }
  std::filesystem::rename(tmp, path);
  return path;
}

std::vector<core::ScanEvent> load_events(int len, const telescope::WorldConfig& config) {
  const std::string tag = cache_dir() + "/events_" + config_tag(config);
  const std::string path = tag + "_" + std::to_string(len) + ".v6ev";
  if (std::filesystem::exists(path)) return core::read_events(path);

  const std::string log = ensure_world_log(config);
  std::printf("[cache] detecting scans at /128,/64,/48,/32 (one-time)\n");
  std::fflush(stdout);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<core::DetectorConfig> configs;
  configs.reserve(kLevels.size());
  for (int l : kLevels) configs.push_back({.source_prefix_len = l});
  sim::MappedLogReader reader(log);
  auto events = core::detect_multi(reader, configs);
  for (std::size_t i = 0; i < kLevels.size(); ++i)
    core::write_events(tag + "_" + std::to_string(kLevels[i]) + ".v6ev", events[i]);
  std::printf("[cache] detection done in %.1f s\n", seconds_since(t0));
  for (std::size_t i = 0; i < kLevels.size(); ++i)
    if (kLevels[i] == len) return std::move(events[i]);
  throw std::invalid_argument("load_events: unsupported aggregation length");
}

WorldMeta::WorldMeta(const telescope::WorldConfig& config)
    : world_(std::make_unique<telescope::CdnWorld>(config)) {}

double WorldMeta::paper_equivalent(std::uint32_t asn, std::uint64_t packets) const {
  for (const auto& a : world_->actors())
    if (a.asn == asn && a.thinning > 0)
      return static_cast<double>(packets) / a.thinning;
  return static_cast<double>(packets);
}

void banner(const std::string& experiment, const std::string& paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper baseline: %s\n", paper_claim.c_str());
  std::printf("================================================================\n\n");
  std::fflush(stdout);
}

}  // namespace v6sonar::benchx
