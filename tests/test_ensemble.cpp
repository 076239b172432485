/// \file test_ensemble.cpp
/// \brief Tests for the ensemble subsystem: canonical scenario encoding
/// (byte-for-byte double round-trip, hash determinism across thread counts,
/// distinct hashes over the Table IV space), the content-addressed waveform
/// cache (golden equivalence of hits vs recomputes, disk-spill round-trip,
/// LRU accounting, no rewrite of a spill file that exists), and the
/// ensemble driver (in-flight coalescing, one job queue at any concurrency
/// and lane count, drain).

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "ensemble/cache.hpp"
#include "ensemble/driver.hpp"
#include "ensemble/scenario.hpp"
#include "exec/parallel.hpp"
#include "perf/production.hpp"

namespace fs = std::filesystem;
using namespace dgr;
using namespace dgr::ensemble;

namespace {

/// The smallest scenario that still exercises the full pipeline (mesh
/// build, RK4, regrid, extraction). Keeps evolution tests fast.
ScenarioConfig tiny_scenario() {
  ScenarioConfig cfg;
  cfg.base_level = 1;
  cfg.finest_level = 2;
  cfg.domain_half = 8.0;
  cfg.steps = 2;
  cfg.extract_every = 1;
  cfg.extraction_radius = 3.0;
  return cfg;
}

/// A scratch directory that is removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag) {
    path = fs::temp_directory_path() /
           (std::string("dgr_ensemble_") + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

}  // namespace

// ------------------------------------------------------------ encoding

TEST(Scenario, EncodeDecodeRoundTripDefaults) {
  const ScenarioConfig cfg;
  const std::string bytes = encode(cfg);
  const ScenarioConfig back = decode(bytes);
  EXPECT_EQ(back, cfg);
  EXPECT_EQ(encode(back), bytes);
}

TEST(Scenario, EncodeRoundTripsAwkwardDoubles) {
  // Values printf-based encodings get wrong: negative zero, denormals,
  // last-ulp offsets, huge and tiny magnitudes.
  const double awkward[] = {
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(1.0, 2.0),
      std::nextafter(0.25, 0.0),
      1e308,
      -1e-308,
      2e-3 + std::numeric_limits<double>::epsilon(),
  };
  for (const double v : awkward) {
    ScenarioConfig cfg = tiny_scenario();
    cfg.eps = v;
    cfg.spin1[2] = v;
    const ScenarioConfig back = decode(encode(cfg));
    // Bitwise equality, not operator== (which treats -0.0 == +0.0).
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.eps),
              std::bit_cast<std::uint64_t>(v));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.spin1[2]),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Scenario, NegativeZeroChangesTheKey) {
  ScenarioConfig a = tiny_scenario(), b = tiny_scenario();
  a.spin1[0] = 0.0;
  b.spin1[0] = -0.0;
  // operator== says equal (IEEE), but the canonical bytes must differ:
  // the cache keys on bit patterns, never on printf output.
  EXPECT_EQ(a, b);
  EXPECT_NE(encode(a), encode(b));
}

TEST(Scenario, DecodeRejectsMalformedInput) {
  const std::string bytes = encode(tiny_scenario());
  EXPECT_THROW(decode(""), Error);
  EXPECT_THROW(decode(bytes.substr(0, bytes.size() - 1)), Error);
  EXPECT_THROW(decode(bytes + "x"), Error);
  std::string wrong_magic = bytes;
  wrong_magic[0] ^= 0x40;
  EXPECT_THROW(decode(wrong_magic), Error);
}

TEST(Scenario, HashIsDeterministicAcrossRunsAndLanes) {
  const ScenarioConfig cfg = tiny_scenario();
  const ScenarioKey ref = ScenarioKey::of(cfg);

  // Repeated sequential runs.
  for (int i = 0; i < 16; ++i) {
    const ScenarioKey k = ScenarioKey::of(cfg);
    EXPECT_EQ(k.hash, ref.hash);
    EXPECT_EQ(k.bytes, ref.bytes);
  }

  // Encoded concurrently on every pool lane: identical hashes no matter
  // which thread does the encoding.
  for (const int threads : {1, 2, 4}) {
    exec::ThreadPool::set_global_threads(threads);
    std::vector<std::uint64_t> hashes(64, 0);
    exec::parallel_for(0, 64, 1, [&](std::int64_t i, std::int64_t e) {
      for (; i < e; ++i) hashes[i] = ScenarioKey::of(cfg).hash;
    });
    for (const std::uint64_t h : hashes) EXPECT_EQ(h, ref.hash);
  }
  exec::ThreadPool::set_global_threads(exec::ThreadPool::configured_threads());
}

TEST(Scenario, Table4ConfigsHaveDistinctKeys) {
  const auto rows = perf::table4_configs();
  ASSERT_GE(rows.size(), 4u);
  std::vector<ScenarioKey> keys;
  for (const auto& row : rows)
    keys.push_back(ScenarioKey::of(scenario_from_table4(row)));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i].bytes, keys[j].bytes)
          << "table4 rows " << i << " and " << j << " encode identically";
      EXPECT_NE(keys[i].hash, keys[j].hash)
          << "table4 rows " << i << " and " << j << " collide";
    }
  }
}

TEST(Scenario, WaveformSerializeRoundTrip) {
  Waveform wf;
  wf.steps = 3;
  wf.regrids = 1;
  wf.t_final = 0.625;
  wf.psi4_22.l = 2;
  wf.psi4_22.m = 2;
  wf.psi4_22.radius = 3.0;
  for (int i = 0; i < 5; ++i) {
    wf.psi4_22.times.push_back(0.125 * i);
    wf.psi4_22.values.push_back({1e-3 * i, -2e-3 * i});
    wf.strain.push_back({-0.0, 1e-5 * i});
  }
  const std::string blob = serialize(wf);
  EXPECT_EQ(wf.byte_size(), blob.size());
  const Waveform back = deserialize(blob);
  EXPECT_EQ(back, wf);
  EXPECT_EQ(serialize(back), blob);

  EXPECT_THROW(deserialize(""), Error);
  EXPECT_THROW(deserialize(blob.substr(0, blob.size() / 2)), Error);
}

// --------------------------------------------------------------- cache

namespace {

/// A synthetic waveform with a recognizable payload, for cache tests that
/// should not pay for real evolutions.
std::shared_ptr<const Waveform> fake_waveform(int tag, int samples = 8) {
  auto wf = std::make_shared<Waveform>();
  wf->steps = tag;
  wf->t_final = 0.5 * tag;
  wf->psi4_22.l = 2;
  wf->psi4_22.m = 2;
  for (int i = 0; i < samples; ++i) {
    wf->psi4_22.times.push_back(i + 0.25 * tag);
    wf->psi4_22.values.push_back({double(tag), double(i)});
  }
  return wf;
}

ScenarioConfig tagged_scenario(int tag) {
  ScenarioConfig cfg = tiny_scenario();
  cfg.steps = 1 + tag;  // each tag a distinct canonical encoding
  return cfg;
}

}  // namespace

TEST(WaveformCache, HitMissAndLruAccounting) {
  WaveformCache cache(std::size_t{1} << 20);
  const ScenarioKey k0 = ScenarioKey::of(tagged_scenario(0));
  bool from_disk = true;
  EXPECT_EQ(cache.get(k0, &from_disk), nullptr);
  EXPECT_FALSE(from_disk);

  const auto wf = fake_waveform(0);
  cache.put(k0, wf);
  const auto hit = cache.get(k0, &from_disk);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(from_disk);
  EXPECT_EQ(*hit, *wf);

  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits_memory, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, wf->byte_size());
}

TEST(WaveformCache, EvictsLeastRecentlyUsedWithinBudget) {
  const auto one = fake_waveform(0)->byte_size();
  // Room for three entries, not four.
  WaveformCache cache(3 * one + one / 2);
  for (int tag = 0; tag < 3; ++tag)
    cache.put(ScenarioKey::of(tagged_scenario(tag)), fake_waveform(tag));
  // Touch 0 so 1 becomes the LRU victim.
  EXPECT_NE(cache.get(ScenarioKey::of(tagged_scenario(0))), nullptr);
  cache.put(ScenarioKey::of(tagged_scenario(3)), fake_waveform(3));

  EXPECT_NE(cache.get(ScenarioKey::of(tagged_scenario(0))), nullptr);
  EXPECT_EQ(cache.get(ScenarioKey::of(tagged_scenario(1))), nullptr);
  EXPECT_NE(cache.get(ScenarioKey::of(tagged_scenario(2))), nullptr);
  EXPECT_NE(cache.get(ScenarioKey::of(tagged_scenario(3))), nullptr);

  const auto st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 3u);
  EXPECT_LE(st.bytes, cache.capacity_bytes());
}

TEST(WaveformCache, DiskSpillRoundTripIsBitwiseIdentical) {
  TempDir dir("spill");
  const auto one = fake_waveform(0)->byte_size();
  WaveformCache cache(one + one / 2, dir.path.string());  // one entry fits

  const ScenarioKey k0 = ScenarioKey::of(tagged_scenario(0));
  const ScenarioKey k1 = ScenarioKey::of(tagged_scenario(1));
  const auto wf0 = fake_waveform(0);
  cache.put(k0, wf0);
  cache.put(k1, fake_waveform(1));  // evicts + spills entry 0

  ASSERT_TRUE(fs::exists(cache.spill_path(k0)))
      << "eviction should have spilled to " << cache.spill_path(k0);

  bool from_disk = false;
  const auto back = cache.get(k0, &from_disk);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(from_disk);
  // Bitwise identity through the spill round-trip.
  EXPECT_EQ(serialize(*back), serialize(*wf0));

  // Atomic writes: no .tmp debris left behind.
  for (const auto& e : fs::directory_iterator(dir.path))
    EXPECT_EQ(e.path().extension(), ".wf")
        << "unexpected file " << e.path();

  const auto st = cache.stats();
  EXPECT_EQ(st.spills, 2u);  // entry 0 spilled, then entry 1 when 0 returned
  EXPECT_EQ(st.hits_disk, 1u);
  EXPECT_EQ(st.spill_failures, 0u);
}

TEST(WaveformCache, FaultedInEntryIsNotSpilledAgain) {
  TempDir dir("respill");
  const auto one = fake_waveform(0)->byte_size();
  WaveformCache cache(one + one / 2, dir.path.string());  // one entry fits

  const ScenarioKey k0 = ScenarioKey::of(tagged_scenario(0));
  const ScenarioKey k1 = ScenarioKey::of(tagged_scenario(1));
  const ScenarioKey k2 = ScenarioKey::of(tagged_scenario(2));
  const auto wf0 = fake_waveform(0);
  cache.put(k0, wf0);
  cache.put(k1, fake_waveform(1));  // spills k0
  const std::string path0 = cache.spill_path(k0);
  struct stat before {};
  ASSERT_EQ(::stat(path0.c_str(), &before), 0);

  bool from_disk = false;
  ASSERT_NE(cache.get(k0, &from_disk), nullptr);  // spills k1
  ASSERT_TRUE(from_disk);
  cache.put(k2, fake_waveform(2));  // evicts k0, whose file already exists

  EXPECT_EQ(cache.stats().spills, 2u) << "k0 and k1 written once each";
  struct stat after {};
  ASSERT_EQ(::stat(path0.c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino) << "k0's spill file was replaced";
  EXPECT_EQ(after.st_mtim.tv_sec, before.st_mtim.tv_sec);
  EXPECT_EQ(after.st_mtim.tv_nsec, before.st_mtim.tv_nsec);

  const auto again = cache.get(k0, &from_disk);
  ASSERT_NE(again, nullptr);
  EXPECT_TRUE(from_disk);
  EXPECT_EQ(serialize(*again), serialize(*wf0));
}

TEST(WaveformCache, RejectsCorruptedSpillFiles) {
  TempDir dir("corrupt");
  const auto one = fake_waveform(0)->byte_size();
  WaveformCache cache(one + one / 2, dir.path.string());
  const ScenarioKey k0 = ScenarioKey::of(tagged_scenario(0));
  cache.put(k0, fake_waveform(0));
  cache.put(ScenarioKey::of(tagged_scenario(1)), fake_waveform(1));
  ASSERT_TRUE(fs::exists(cache.spill_path(k0)));

  // Truncate the spill file: the load must fail closed, not serve garbage.
  fs::resize_file(cache.spill_path(k0), 8);
  EXPECT_EQ(cache.get(k0), nullptr);
  EXPECT_GE(cache.stats().spill_failures, 1u);
}

// -------------------------------------------------------------- driver

TEST(EnsembleDriver, GoldenEquivalenceCacheHitVsRecompute) {
  const ScenarioConfig cfg = tiny_scenario();

  // Fresh synchronous recompute, outside any driver.
  const Waveform golden = run_scenario(cfg);
  ASSERT_GT(golden.psi4_22.times.size(), 0u);

  EnsembleConfig ecfg;
  ecfg.concurrency = 2;
  EnsembleDriver driver(ecfg);

  Source src;
  const auto first = driver.evolve(cfg, &src);
  EXPECT_EQ(src, Source::kComputed);
  const auto second = driver.evolve(cfg, &src);
  EXPECT_EQ(src, Source::kMemory);
  EXPECT_EQ(first.get(), second.get()) << "hit should share the entry";

  // The memoized result is bitwise identical to the fresh recompute.
  EXPECT_EQ(serialize(*first), serialize(golden));
}

TEST(EnsembleDriver, DiskSpillPreservesGoldenEquivalence) {
  TempDir dir("driver_spill");
  const ScenarioConfig cfg = tiny_scenario();
  const Waveform golden = run_scenario(cfg);

  EnsembleConfig ecfg;
  ecfg.concurrency = 1;
  ecfg.cache_bytes = 1;  // every insertion immediately evicts and spills
  ecfg.spill_dir = dir.path.string();
  EnsembleDriver driver(ecfg);

  Source src;
  const auto first = driver.evolve(cfg, &src);
  EXPECT_EQ(src, Source::kComputed);
  EXPECT_EQ(serialize(*first), serialize(golden));

  // Displace the resident entry (an oversized sole entry is pinned until
  // the next insert): the eviction spills it to disk.
  driver.cache().put(ScenarioKey::of(tagged_scenario(99)), fake_waveform(99));
  ASSERT_TRUE(fs::exists(driver.cache().spill_path(ScenarioKey::of(cfg))));

  const auto again = driver.evolve(cfg, &src);
  EXPECT_EQ(src, Source::kDisk);
  EXPECT_EQ(serialize(*again), serialize(golden))
      << "disk round-trip must be bitwise identical";
}

TEST(EnsembleDriver, CoalescesDuplicatesOneEvolutionPerUniqueConfig) {
  EnsembleConfig ecfg;
  ecfg.concurrency = 2;
  EnsembleDriver driver(ecfg);

  constexpr int kClients = 8;
  constexpr int kUnique = 3;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client hammers all unique configs; duplicates must coalesce
      // or hit the cache — never recompute.
      for (int u = 0; u < kUnique; ++u) {
        try {
          const auto wf = driver.evolve(tagged_scenario((c + u) % kUnique));
          if (!wf || wf->psi4_22.times.empty()) failures.fetch_add(1);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  driver.drain();

  EXPECT_EQ(failures.load(), 0);
  const auto st = driver.stats();
  EXPECT_EQ(st.submitted, std::uint64_t{kClients} * kUnique);
  EXPECT_EQ(st.evolutions, std::uint64_t{kUnique})
      << "a unique config must be evolved exactly once";
  EXPECT_EQ(st.failures, 0u);
}

TEST(EnsembleDriver, ResultsIndependentOfRoutingAndConcurrency) {
  // Three distinct configs submitted at once, so at concurrency 3 three
  // runners evolve side by side, each a lane-0 driver of the shared pool.
  std::vector<ScenarioConfig> cfgs;
  std::vector<std::string> golden;
  for (int tag = 0; tag < 3; ++tag) {
    cfgs.push_back(tagged_scenario(0));
    cfgs.back().spin1[2] = 0.1 * tag;  // one step each, distinct keys
    golden.push_back(serialize(run_scenario(cfgs.back())));
  }
  for (const int lanes : {1, 2, 7}) {
    exec::ThreadPool::set_global_threads(lanes);
    std::string first;
    for (const int concurrency : {1, 3}) {
      EnsembleConfig ecfg;
      ecfg.concurrency = concurrency;
      EnsembleDriver driver(ecfg);
      std::vector<EnsembleDriver::Ticket> tickets;
      for (const auto& cfg : cfgs) tickets.push_back(driver.submit(cfg));
      const std::string blob = serialize(*tickets[0].future.get());
      if (first.empty()) first = blob;
      EXPECT_EQ(first, blob)
          << "concurrency 1 vs 3 must agree bitwise at " << lanes << " lanes";
      for (std::size_t i = 0; i < cfgs.size(); ++i)
        EXPECT_EQ(serialize(*tickets[i].future.get()), golden[i])
            << "driver vs direct run_scenario must agree bitwise at " << lanes
            << " lanes, concurrency " << concurrency << ", config " << i;
    }
  }
  exec::ThreadPool::set_global_threads(exec::ThreadPool::configured_threads());
}

TEST(EnsembleDriver, RejectsConcurrencyBelowOne) {
  for (const int bad : {0, -1}) {
    EnsembleConfig ecfg;
    ecfg.concurrency = bad;
    try {
      EnsembleDriver driver(ecfg);
      ADD_FAILURE() << "concurrency " << bad << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("concurrency"), std::string::npos)
          << e.what();
    }
  }
}
