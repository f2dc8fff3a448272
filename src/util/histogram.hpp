// Histograms used by the figure benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace v6sonar::util {

/// Log-binned 2-D histogram: values are assigned to bins by
/// floor(log10(v)) within [1, 10^decades). Used for the Fig. 1 heatmap
/// (x = #destination IPs targeted by a /64, y = #packets logged).
class LogHistogram2D {
 public:
  /// decades_x/decades_y: number of factor-of-10 bins on each axis.
  LogHistogram2D(std::size_t decades_x, std::size_t decades_y);

  /// Record a point; x and y must be >= 1 (0 is clamped to 1).
  void add(std::uint64_t x, std::uint64_t y, std::uint64_t weight = 1) noexcept;

  [[nodiscard]] std::uint64_t at(std::size_t bx, std::size_t by) const;
  [[nodiscard]] std::size_t bins_x() const noexcept { return dx_; }
  [[nodiscard]] std::size_t bins_y() const noexcept { return dy_; }
  [[nodiscard]] std::uint64_t total() const noexcept;

  /// ASCII-art rendering (one row per y decade, top = largest),
  /// with per-cell counts; used by bench_fig1_heatmap.
  [[nodiscard]] std::string render(const std::string& x_label,
                                   const std::string& y_label) const;

 private:
  [[nodiscard]] static std::size_t decade_of(std::uint64_t v, std::size_t max_bins) noexcept;
  std::size_t dx_;
  std::size_t dy_;
  std::vector<std::uint64_t> cells_;  // row-major [y][x]
};

}  // namespace v6sonar::util
