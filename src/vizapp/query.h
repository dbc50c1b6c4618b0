// Query model for the visualization server (Section 2 / Section 5.2).
#pragma once

#include <cstdint>
#include <vector>

#include "vizapp/image.h"

namespace sv::viz {

enum class QueryType {
  /// A completely new image: every block is fetched. Bandwidth-sensitive.
  kComplete,
  /// The viewport moved slightly: only the excess blocks are fetched
  /// (modeled as one block, as in the paper's guarantee experiments).
  /// Latency-sensitive.
  kPartial,
  /// Magnification covering a small region: 4 data chunks (Section 5.2.2,
  /// third experiment).
  kZoom,
};

struct Query {
  QueryType type = QueryType::kComplete;
  /// Starting block for partial/zoom queries (wraps around the image).
  std::uint64_t start_block = 0;
  /// Chunk count for zoom queries (paper: 4).
  std::uint64_t zoom_chunks = 4;
};

/// Blocks a query must fetch from the blocked store.
[[nodiscard]] inline std::vector<std::uint64_t> plan_query(
    const BlockedImage& image, const Query& q) {
  std::vector<std::uint64_t> ids;
  switch (q.type) {
    case QueryType::kComplete:
      ids.reserve(image.block_count());
      for (std::uint64_t b = 0; b < image.block_count(); ++b) {
        ids.push_back(b);
      }
      break;
    case QueryType::kPartial:
      ids.push_back(q.start_block % image.block_count());
      break;
    case QueryType::kZoom: {
      const std::uint64_t n =
          std::min<std::uint64_t>(q.zoom_chunks, image.block_count());
      for (std::uint64_t i = 0; i < n; ++i) {
        ids.push_back((q.start_block + i) % image.block_count());
      }
      break;
    }
  }
  return ids;
}

/// Total bytes a query retrieves (whole blocks, including overfetch).
[[nodiscard]] inline std::uint64_t query_bytes(const BlockedImage& image,
                                               const Query& q) {
  std::uint64_t total = 0;
  for (auto b : plan_query(image, q)) total += image.block_size(b);
  return total;
}

}  // namespace sv::viz
