#include "shard/shard_router.h"

#include <sstream>

#include "core/logging.h"

namespace one4all {

ShardRouter::ShardRouter(const ShardMap* map) : map_(map) {
  O4A_CHECK(map != nullptr);
}

int ShardRouter::HomeShard(const GridMask& region) const {
  // The first set cell in row-major order is the lowest set bit of the
  // first nonzero packed word: a word scan, not a cell-by-cell sweep.
  const std::vector<uint64_t>& words = region.words();
  for (size_t i = 0; i < words.size(); ++i) {
    if (words[i] == 0) continue;
    const int64_t cell =
        static_cast<int64_t>(i) * 64 + __builtin_ctzll(words[i]);
    return map_->OwnerOfAtomicRow(cell / region.width());
  }
  return 0;  // empty region (planner validation rejects these)
}

std::vector<std::vector<int32_t>> ShardRouter::ScatterTerms(
    const std::vector<CombinationTerm>& terms) const {
  std::vector<std::vector<int32_t>> scattered(
      static_cast<size_t>(map_->num_shards()));
  for (size_t i = 0; i < terms.size(); ++i) {
    scattered[static_cast<size_t>(map_->OwnerOf(terms[i].grid))].push_back(
        static_cast<int32_t>(i));
  }
  return scattered;
}

std::string ShardRouter::DescribeSplit(const QueryPlan& plan) const {
  const size_t num_slots = plan.slot_regions.size();
  std::ostringstream out;
  out << "  4. shard scatter: " << map_->num_shards()
      << " band shards, terms evaluated by cell owner, series re-folded"
         " in canonical term order\n";
  for (size_t s = 0; s < num_slots; ++s) {
    const GridMask& region = plan.RegionForSlot(static_cast<int>(s));
    const std::vector<int64_t> split = map_->SplitRegionCells(region);
    out << "     slot " << s << ": home shard " << HomeShard(region)
        << ", atomic cells by shard [";
    for (size_t k = 0; k < split.size(); ++k) {
      if (k > 0) out << ", ";
      out << split[k];
    }
    out << "]\n";
  }
  return out.str();
}

}  // namespace one4all
