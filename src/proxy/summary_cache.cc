#include "src/proxy/summary_cache.h"

#include <algorithm>

#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {

const char* CacheSourceName(CacheSource source) {
  switch (source) {
    case CacheSource::kExtrapolated:
      return "extrapolated";
    case CacheSource::kPushed:
      return "pushed";
    case CacheSource::kPulled:
      return "pulled";
  }
  return "?";
}

SummaryCache::SummaryCache(size_t max_entries) : max_entries_(max_entries) {
  PRESTO_CHECK(max_entries_ > 0);
}

void SummaryCache::Insert(SimTime t, double value, CacheSource source,
                          SimTime inserted_at) {
  auto it = entries_.find(t);
  if (it != entries_.end()) {
    if (static_cast<uint8_t>(source) >= static_cast<uint8_t>(it->second.source)) {
      it->second = CachedValue{value, source, inserted_at};
      ++stats_.refinements;
    } else {
      ++stats_.downgrades_rejected;
    }
    return;
  }
  entries_.emplace(t, CachedValue{value, source, inserted_at});
  ++stats_.inserts;
  while (entries_.size() > max_entries_) {
    entries_.erase(entries_.begin());
    ++stats_.evictions;
  }
}

std::optional<std::pair<SimTime, CachedValue>> SummaryCache::Nearest(
    SimTime t, Duration max_gap) const {
  if (entries_.empty()) {
    return std::nullopt;
  }
  auto after = entries_.lower_bound(t);
  std::optional<std::pair<SimTime, CachedValue>> best;
  Duration best_gap = max_gap;
  if (after != entries_.end() && after->first - t <= best_gap) {
    best_gap = after->first - t;
    best = *after;
  }
  if (after != entries_.begin()) {
    auto before = std::prev(after);
    if (t - before->first <= best_gap) {
      best = *before;
    }
  }
  return best;
}

std::optional<std::pair<SimTime, CachedValue>> SummaryCache::Latest() const {
  if (entries_.empty()) {
    return std::nullopt;
  }
  return *entries_.rbegin();
}

std::vector<Sample> SummaryCache::Range(TimeInterval range) const {
  std::vector<Sample> out;
  for (auto it = entries_.lower_bound(range.start);
       it != entries_.end() && it->first < range.end; ++it) {
    out.push_back(Sample{it->first, it->second.value});
  }
  return out;
}

std::vector<SummaryCache::Entry> SummaryCache::RangeEntries(TimeInterval range) const {
  std::vector<Entry> out;
  for (auto it = entries_.lower_bound(range.start);
       it != entries_.end() && it->first < range.end; ++it) {
    out.push_back(
        Entry{it->first, it->second.value, it->second.source, it->second.inserted_at});
  }
  return out;
}

double SummaryCache::CoverageFraction(TimeInterval range,
                                      Duration expected_period) const {
  PRESTO_CHECK(expected_period > 0);
  const int64_t expected = std::max<int64_t>(1, range.Length() / expected_period);
  int64_t have = 0;
  for (auto it = entries_.lower_bound(range.start);
       it != entries_.end() && it->first < range.end; ++it) {
    ++have;
  }
  return std::min(1.0, static_cast<double>(have) / static_cast<double>(expected));
}

void SummaryCache::EvictBefore(SimTime t) {
  auto end = entries_.lower_bound(t);
  const size_t n = static_cast<size_t>(std::distance(entries_.begin(), end));
  entries_.erase(entries_.begin(), end);
  stats_.evictions += n;
}

}  // namespace presto

namespace presto {

template <typename Io>
void SummaryCache::CkptFields(Io& io) {
  io(entries_, stats_.inserts, stats_.refinements, stats_.downgrades_rejected,
     stats_.evictions);
}
PRESTO_CKPT_FIELDS(SummaryCache);

void SummaryCache::SaveState(ByteWriter& w) const { CkptWrite(w, *this); }
Status SummaryCache::LoadState(ByteReader& r) { return CkptRead(r, *this); }

}  // namespace presto
