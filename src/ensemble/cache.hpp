#pragma once
/// \file cache.hpp
/// \brief Content-addressed waveform cache: an in-memory LRU with a byte
/// budget, optionally spilling evicted entries to disk (DSP1 files through
/// common/file_io.hpp, read back under a 1 GiB bound) and faulting them
/// back in on a later request. Keys are the full canonical scenario bytes — the 64-bit
/// content hash only names entries and spill files, so a hash collision can
/// never serve the wrong waveform (lookup compares the bytes, and a spill
/// file stores the key it was written for and is verified on load).
///
/// Thread safety: all operations are guarded by one internal mutex; disk
/// reads/writes happen outside it so a slow spill never blocks concurrent
/// memory hits.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "ensemble/scenario.hpp"

namespace dgr::ensemble {

class WaveformCache {
 public:
  struct Stats {
    std::uint64_t hits_memory = 0;  ///< served from the in-memory LRU
    std::uint64_t hits_disk = 0;    ///< faulted back in from a spill file
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t spills = 0;          ///< evictions written to disk
    std::uint64_t spill_failures = 0;  ///< unreadable/mismatched spill files
    std::size_t bytes = 0;             ///< current in-memory footprint
    std::size_t entries = 0;
  };

  /// `capacity_bytes` bounds the in-memory footprint (serialized size per
  /// entry); `spill_dir` enables on-disk spill when non-empty (the
  /// directory must exist).
  explicit WaveformCache(std::size_t capacity_bytes,
                         std::string spill_dir = "");

  /// Look up by content: memory first (promotes to most-recently-used),
  /// then the spill directory (verifies the stored key, promotes into
  /// memory). Returns nullptr on miss. `from_disk` (optional) is set to
  /// true iff the hit was faulted in from a spill file.
  std::shared_ptr<const Waveform> get(const ScenarioKey& key,
                                      bool* from_disk = nullptr);

  /// Memory-only lookup: like get() but never touches the spill
  /// directory, so it is cheap enough to call while holding
  /// latency-sensitive locks. A hit promotes to MRU and counts as a
  /// memory hit; a miss is NOT counted (this is a re-check, not a
  /// first-class lookup).
  std::shared_ptr<const Waveform> get_memory(const ScenarioKey& key);

  /// Insert (or refresh) an entry, then evict least-recently-used entries
  /// until the budget holds, spilling them to disk when enabled.
  void put(const ScenarioKey& key, std::shared_ptr<const Waveform> wf);

  std::size_t capacity_bytes() const { return capacity_; }
  const std::string& spill_dir() const { return spill_dir_; }
  Stats stats() const;

  /// Path a spilled entry for `key` lives at (exists only after a spill).
  std::string spill_path(const ScenarioKey& key) const;

 private:
  struct Entry {
    ScenarioKey key;
    std::shared_ptr<const Waveform> wf;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru;  // position in lru_ (front = MRU)
  };

  void insert_locked(std::unique_lock<std::mutex>& lk, const ScenarioKey& key,
                     std::shared_ptr<const Waveform> wf);

  std::size_t capacity_;
  std::string spill_dir_;
  mutable std::mutex m_;
  std::unordered_map<std::string, Entry> entries_;  // canonical bytes -> entry
  std::list<std::string> lru_;                      // canonical bytes, MRU first
  Stats stats_;
};

}  // namespace dgr::ensemble
