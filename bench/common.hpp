// Shared harness for the experiment benches.
//
// Every bench regenerates one paper table or figure. The expensive
// part — simulating the 15-month world and detecting scans — is done
// once and cached on disk (a binary record log plus per-aggregation
// event files); reruns load in seconds. Delete the cache directory
// (default ".v6sonar_cache", override with V6SONAR_CACHE_DIR) to force
// regeneration, e.g. after changing the world configuration.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/scan_event.hpp"
#include "scanner/cast.hpp"
#include "telescope/world.hpp"

namespace v6sonar::benchx {

/// The aggregation ladder every CDN bench uses.
inline const std::vector<int> kLevels = {128, 64, 48, 32};

/// Path of the cached record log for the default full world; generates
/// it (one full world run) if absent. Prints progress to stdout.
[[nodiscard]] std::string ensure_world_log(const telescope::WorldConfig& config = {});

/// Cached scan events for aggregation level `len` over the default
/// world log (runs the detectors once for all levels if absent).
[[nodiscard]] std::vector<core::ScanEvent> load_events(
    int len, const telescope::WorldConfig& config = {});

/// World metadata (actor list, per-rank ASNs, registry) without
/// generating traffic. Cheap relative to the log itself.
class WorldMeta {
 public:
  explicit WorldMeta(const telescope::WorldConfig& config = {});

  [[nodiscard]] std::uint32_t asn_of_rank(int rank) const noexcept {
    return world_->asn_of_rank(rank);
  }
  [[nodiscard]] const sim::AsRegistry& registry() const noexcept {
    return world_->registry();
  }
  [[nodiscard]] const telescope::CdnTelescope& telescope() const noexcept {
    return world_->telescope();
  }
  [[nodiscard]] const scanner::Hitlist& hitlist() const noexcept { return world_->hitlist(); }

  /// Reweight a measured packet count by the actor's thinning factor
  /// to a paper-window-equivalent volume (0 thinning data -> raw).
  [[nodiscard]] double paper_equivalent(std::uint32_t asn, std::uint64_t packets) const;

 private:
  std::unique_ptr<telescope::CdnWorld> world_;
};

/// Standard bench preamble: a banner naming the experiment and the
/// paper baseline being reproduced.
void banner(const std::string& experiment, const std::string& paper_claim);

}  // namespace v6sonar::benchx
