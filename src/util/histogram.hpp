// Histograms used by the figure benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace v6sonar::util {

/// Fixed-width 1-D histogram over integer bins [0, bins).
/// Out-of-range samples are clamped to the edge bins. Storage grows
/// only up to the highest bin used, so a wide histogram whose samples
/// sit in its low bins stays small and cheap to create and merge.
class Histogram1D {
 public:
  explicit Histogram1D(std::size_t bins) : bins_(bins) {}

  void add(std::size_t bin, std::uint64_t weight = 1) {
    if (bins_ == 0) return;
    if (bin >= bins_) bin = bins_ - 1;
    if (bin >= counts_.size()) counts_.resize(bin + 1, 0);
    counts_[bin] += weight;
  }

  /// Bin-wise sum of another histogram with the same bin count
  /// (mismatched widths are a programming error; the extra bins are
  /// clamped into the edge bin like any out-of-range sample).
  void merge(const Histogram1D& other) {
    for (std::size_t b = 0; b < other.counts_.size(); ++b)
      if (other.counts_[b] != 0) add(b, other.counts_[b]);
  }

  [[nodiscard]] std::uint64_t at(std::size_t bin) const {
    if (bin >= bins_) throw std::out_of_range("Histogram1D: bin out of range");
    return bin < counts_.size() ? counts_[bin] : 0;
  }
  [[nodiscard]] std::size_t bins() const noexcept { return bins_; }
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (auto c : counts_) t += c;
    return t;
  }
  /// Counts of bins [0, n) for some n <= bins(); every later bin is 0.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }

 private:
  std::size_t bins_;
  std::vector<std::uint64_t> counts_;
};

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
