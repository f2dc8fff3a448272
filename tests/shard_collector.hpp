// Per-shard event collection for ParallelScanPipeline tests: every
// shard's events land in their own vector, in the shard's order, and
// merged() rebuilds the serial event stream from them with the
// library merge (ParallelScanPipeline::merge_shard_events).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/event_sink.hpp"
#include "core/parallel_pipeline.hpp"

namespace v6sonar::core::testing {

class ShardCollector {
 public:
  /// The pipeline's per-shard sink factory.
  [[nodiscard]] ParallelScanPipeline::ShardSinkFactory factory() {
    return [this](std::size_t) -> EventSink& {
      shards_.push_back(std::make_unique<Shard>());
      return shards_.back()->sink;
    };
  }

  /// After pipe.flush(): the serial event stream. Consumes the shards.
  [[nodiscard]] std::vector<ScanEvent> merged(const ParallelScanPipeline& pipe) {
    std::vector<ScanEvent> out;
    VectorSink sink(out);
    std::vector<std::size_t> next(shards_.size(), 0);
    pipe.merge_shard_events(
        [&](std::size_t s, ScanEvent& ev) {
          if (next[s] == shards_[s]->events.size()) return false;
          ev = std::move(shards_[s]->events[next[s]++]);
          return true;
        },
        sink);
    return out;
  }

 private:
  struct Shard {
    std::vector<ScanEvent> events;
    VectorSink sink{events};
  };
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace v6sonar::core::testing
