#include "ensemble/cache.hpp"

#include <filesystem>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/file_io.hpp"
#include "obs/obs.hpp"

namespace dgr::ensemble {

namespace {

constexpr std::string_view kSpillMagic = "DSP1";
// A spill file is one waveform plus its key; anything larger is corrupt.
constexpr std::size_t kMaxSpillBytes = std::size_t{1} << 30;

}  // namespace

WaveformCache::WaveformCache(std::size_t capacity_bytes,
                             std::string spill_dir)
    : capacity_(capacity_bytes), spill_dir_(std::move(spill_dir)) {}

std::string WaveformCache::spill_path(const ScenarioKey& key) const {
  return spill_dir_ + "/" + key.hex() + ".wf";
}

std::shared_ptr<const Waveform> WaveformCache::get(const ScenarioKey& key,
                                                   bool* from_disk) {
  if (from_disk) *from_disk = false;
  if (auto wf = get_memory(key)) return wf;

  bool spill_failed = false;
  if (!spill_dir_.empty()) {
    // Disk fault-in happens unlocked; concurrent faults of the same key
    // both insert the identical content (idempotent).
    const std::string path = spill_path(key);
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
      std::shared_ptr<const Waveform> wf;
      try {
        const std::string body = read_file(path, kMaxSpillBytes);
        ByteReader r(body, "DSP1 spill file");
        r.magic(kSpillMagic);
        DGR_CHECK_MSG(r.raw(r.count(1)) == key.bytes,
                      "spill file " << path << " holds another key");
        wf = std::make_shared<const Waveform>(deserialize(r.raw(r.left())));
      } catch (const Error&) {
        spill_failed = true;
      }
      if (wf) {
        if (from_disk) *from_disk = true;
        std::unique_lock<std::mutex> lk(m_);
        ++stats_.hits_disk;
        obs::count("cache.hits_disk");
        insert_locked(lk, key, wf);
        return wf;
      }
    }
  }

  std::unique_lock<std::mutex> lk(m_);
  stats_.spill_failures += spill_failed;
  ++stats_.misses;
  obs::count("cache.misses");
  return nullptr;
}

std::shared_ptr<const Waveform> WaveformCache::get_memory(
    const ScenarioKey& key) {
  std::lock_guard<std::mutex> lk(m_);
  auto it = entries_.find(key.bytes);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru);  // promote to MRU
  ++stats_.hits_memory;
  obs::count("cache.hits_memory");
  return it->second.wf;
}

void WaveformCache::put(const ScenarioKey& key,
                        std::shared_ptr<const Waveform> wf) {
  std::unique_lock<std::mutex> lk(m_);
  ++stats_.insertions;
  insert_locked(lk, key, std::move(wf));
}

void WaveformCache::insert_locked(std::unique_lock<std::mutex>& lk,
                                  const ScenarioKey& key,
                                  std::shared_ptr<const Waveform> wf) {
  auto it = entries_.find(key.bytes);
  if (it != entries_.end()) {
    // Refresh in place (same content by construction — keys are content
    // hashes of the full input).
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  Entry e;
  e.key = key;
  e.wf = std::move(wf);
  e.bytes = e.wf->byte_size();
  lru_.push_front(key.bytes);
  e.lru = lru_.begin();
  stats_.bytes += e.bytes;
  entries_.emplace(key.bytes, std::move(e));
  stats_.entries = entries_.size();

  // Evict LRU entries until the budget holds; never evict the entry just
  // inserted (an oversized single waveform stays resident until the next
  // insert displaces it).
  std::vector<Entry> evicted;
  while (stats_.bytes > capacity_ && lru_.size() > 1) {
    const std::string& victim = lru_.back();
    auto vit = entries_.find(victim);
    stats_.bytes -= vit->second.bytes;
    evicted.push_back(std::move(vit->second));
    entries_.erase(vit);
    lru_.pop_back();
    ++stats_.evictions;
    obs::count("cache.evictions");
  }
  stats_.entries = entries_.size();
  if (evicted.empty()) return;

  // Spill writes run unlocked: a slow disk never blocks memory hits.
  lk.unlock();
  for (const Entry& e2 : evicted) {
    if (spill_dir_.empty()) continue;
    ByteWriter head(12 + e2.key.bytes.size());
    head.raw(kSpillMagic).u64(e2.key.bytes.size()).raw(e2.key.bytes);
    if (write_file_atomic(spill_path(e2.key),
                          {head.bytes(), serialize(*e2.wf)})) {
      std::lock_guard<std::mutex> lk2(m_);
      ++stats_.spills;
      obs::count("cache.spills");
    } else {
      std::lock_guard<std::mutex> lk2(m_);
      ++stats_.spill_failures;
    }
  }
}

WaveformCache::Stats WaveformCache::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  return stats_;
}

}  // namespace dgr::ensemble
