/// \file test_boundary.cpp
/// \brief The external byte boundaries: the binary formats pinned to their
/// recorded bytes, the shared codec and file functions (common/bytes.hpp,
/// common/file_io.hpp), and a seeded mutation fuzz over every decoder.
///
/// The fuzz contract: each mutated input either yields a value (or, for
/// jsonu::parse, its error string) or throws dgr::Error. Any other
/// exception fails the test; a crash, a hang or an asan/ubsan report fails
/// the sanitizer job, which runs this binary. Seeds are fixed, so a failure
/// reproduces; each input a run found is kept below as a fixed case.

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/file_io.hpp"
#include "common/json_read.hpp"
#include "common/rng.hpp"
#include "ensemble/cache.hpp"
#include "ensemble/scenario.hpp"
#include "mesh/mesh.hpp"
#include "obs/metrics.hpp"
#include "obs/perfdiff.hpp"
#include "serve/protocol.hpp"
#include "solver/io.hpp"

namespace fs = std::filesystem;
using namespace dgr;
using ensemble::ScenarioConfig;
using ensemble::Waveform;

namespace {

std::string temp_path(const std::string& tag) {
  return testing::TempDir() + "dgr_boundary_" + tag + "_" +
         std::to_string(::getpid());
}

/// A temporary directory, removed on scope exit.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag) : path(temp_path(tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// Every field away from its default, with -0.0, a subnormal and a NaN
/// payload among the reals.
ScenarioConfig awkward_scenario() {
  ScenarioConfig c;
  c.q = 1.25;
  c.separation = -0.0;
  c.spin1 = {-0.0, 0.0, 0.125};
  c.spin2 = {0.5, -0.25, std::numeric_limits<Real>::denorm_min()};
  c.domain_half = 12.0;
  c.base_level = 1;
  c.finest_level = 4;
  c.eps = std::bit_cast<Real>(std::uint64_t{0x7ff80000deadbeefULL});
  c.steps = 7;
  c.regrid_every = 3;
  c.extract_every = 5;
  c.extraction_radius = 4.5;
  c.cfl = 0.2;
  c.ko_sigma = 0.35;
  c.subcycle = true;
  return c;
}

/// A waveform built from exactly rounded arithmetic only.
Waveform fixed_waveform() {
  Waveform wf;
  wf.steps = 12;
  wf.regrids = 2;
  wf.t_final = 1.5;
  wf.psi4_22.radius = 5.0;
  for (int i = 0; i < 6; ++i)
    wf.psi4_22.append(0.25 * i, {1e-3 * i / 7.0, -1e-4 * (6 - i) / 3.0});
  for (int i = 0; i < 5; ++i)
    wf.strain.emplace_back(0.1 * i, -0.05 / (i + 1));
  return wf;
}

/// The 8-octant uniform mesh with every field set from its indices.
struct FixedCheckpoint {
  mesh::Mesh mesh{oct::Octree::uniform(1), oct::Domain{8.0}};
  bssn::BssnState state{mesh.num_dofs()};
  FixedCheckpoint() {
    for (int v = 0; v < bssn::kNumVars; ++v)
      for (std::size_t d = 0; d < mesh.num_dofs(); ++d)
        state.field(v)[d] = v + d / 1024.0;
  }
};

/// The DSP1 spill file the cache writes when `key` is evicted.
std::string spill_bytes(const std::string& dir,
                        const ensemble::ScenarioKey& k, const Waveform& wf) {
  ensemble::WaveformCache cache(wf.byte_size() + wf.byte_size() / 2, dir);
  cache.put(k, std::make_shared<const Waveform>(wf));
  cache.put(ensemble::ScenarioKey::of(ScenarioConfig{}),
            std::make_shared<const Waveform>(wf));
  return read_file(cache.spill_path(k), std::size_t{1} << 20);
}

constexpr std::size_t kMaxTestFile = std::size_t{1} << 24;

/// Replace the file at `path` by `bytes`. Removing it first keeps ext4
/// from flushing the new data at the rename (its replace-by-rename
/// heuristic), which would make the fuzz loops wait on the disk.
void put_file(const std::string& path, const std::string& bytes) {
  fs::remove(path);
  ASSERT_TRUE(write_file_atomic(path, {bytes}));
}

}  // namespace

// ------------------------------------------------------------ format pins
// fnv1a64 of each binary format's bytes. The values were recorded before
// these formats moved onto common/bytes.hpp; a change here is a change of
// format (and of every cache key and spill file name).

TEST(FormatPins, ScenarioEncodingsAndKeys) {
  using ensemble::encode;
  using ensemble::fnv1a64;
  EXPECT_EQ(fnv1a64(encode(ScenarioConfig{})), 0x92cdd179e5e30a10ULL);
  EXPECT_EQ(ensemble::ScenarioKey::of(ScenarioConfig{}).hex(),
            "92cdd179e5e30a10");
  EXPECT_EQ(fnv1a64(encode(awkward_scenario())), 0x94f3e08a74342e9eULL);
  EXPECT_EQ(fnv1a64(serve::format_evolvex(awkward_scenario())),
            0xb79a77b0c81a3ac5ULL);
}

TEST(FormatPins, WaveformSpillAndCheckpointFiles) {
  using ensemble::fnv1a64;
  EXPECT_EQ(fnv1a64(ensemble::serialize(fixed_waveform())),
            0x488ee9c777d5584aULL);

  TempDir dir("pins");
  const auto key = ensemble::ScenarioKey::of(awkward_scenario());
  EXPECT_EQ(fnv1a64(spill_bytes(dir.path, key, fixed_waveform())),
            0xa4e337793911636bULL);

  const FixedCheckpoint f;
  const std::string path = dir.path + "/cp.bin";
  solver::save_checkpoint(path, f.mesh, f.state, 0.375, 9);
  EXPECT_EQ(fnv1a64(read_file(path, kMaxTestFile)), 0x3db528a709a6efafULL);
}

// ----------------------------------------------- the shared pieces, fixed

TEST(Bytes, ReaderChecksEveryReadAndCount) {
  ByteWriter w;
  w.raw("MAG1").u8(7).u32(0xdeadbeef).u64(3).real(-0.0).raw("xyz");
  const std::string b = w.take();
  ASSERT_EQ(b.size(), 4 + 1 + 4 + 8 + 8 + 3u);
  ByteReader r(b, "test format");
  r.magic("MAG1");
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.count(1), 3u);
  EXPECT_TRUE(std::signbit(r.real()));
  EXPECT_EQ(r.raw(3), "xyz");
  r.finish();
  EXPECT_THROW(r.u8(), Error);  // nothing left

  ByteReader bad_magic(b, "test format");
  EXPECT_THROW(bad_magic.magic("MAG2"), Error);
  ByteReader trailing(b, "test format");
  trailing.raw(b.size() - 1);
  EXPECT_THROW(trailing.finish(), Error);
  // A count the rest of the input cannot hold is refused before use.
  const std::string huge = ByteWriter().u64(~0ULL).raw("abc").take();
  EXPECT_THROW(ByteReader(huge, "test format").count(1), Error);
  const std::string over = ByteWriter().u64(2).raw("abc").take();
  EXPECT_THROW(ByteReader(over, "test format").count(2), Error);

  // hex16 is to_hex of the big-endian bytes.
  EXPECT_EQ(ensemble::hex16(0x0123456789abcdefULL), "0123456789abcdef");
  EXPECT_EQ(to_hex(std::string("\x00\xff", 2)), "00ff");
  EXPECT_EQ(from_hex("00FFa0"), std::string("\x00\xff\xa0", 3));
}

TEST(FileIo, AtomicWriteAndBoundedRead) {
  TempDir dir("file_io");
  const std::string path = dir.path + "/f.bin";
  ASSERT_TRUE(write_file_atomic(path, {"ab", "", "cd"}));
  EXPECT_EQ(read_file(path, 4), "abcd");
  EXPECT_THROW(read_file(path, 3), Error);  // over the bound
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // No directory for the temp file: nothing is written.
  EXPECT_FALSE(write_file_atomic(dir.path + "/no/such/dir", {"x"}));
  // The rename fails onto a non-empty directory: the temp file goes.
  const std::string occupied = dir.path + "/occupied";
  fs::create_directories(occupied + "/child");
  EXPECT_FALSE(write_file_atomic(occupied, {"x"}));
  EXPECT_FALSE(fs::exists(occupied + ".tmp"));
  EXPECT_EQ(read_file(path, 4), "abcd");  // a failed write leaves others

  EXPECT_THROW(read_file(dir.path + "/missing", 16), Error);
  EXPECT_THROW(read_file(occupied, 1 << 20), Error);  // not a regular file
  // A sparse 64 MiB file is refused by its size, before any allocation.
  const std::string big = dir.path + "/big";
  ASSERT_TRUE(write_file_atomic(big, {"x"}));
  fs::resize_file(big, std::uintmax_t{64} << 20);
  EXPECT_THROW(read_file(big, std::size_t{1} << 20), Error);
}

// ------------------------------------------------------ the mutation fuzz

namespace {

/// Seeded byte mutations: bit flips, truncations, inserted random runs,
/// duplicated runs, and u64 count fields set huge.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// `s` after one to three mutations. `counts` holds the offsets of the
  /// format's u64 count fields (any offset when empty).
  std::string operator()(std::string s,
                         const std::vector<std::size_t>& counts = {}) {
    const int n = 1 + static_cast<int>(rng_.uniform_int(3));
    for (int i = 0; i < n; ++i) once(s, counts);
    return s;
  }

 private:
  std::size_t pick(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_.uniform_int(n));
  }

  void once(std::string& s, const std::vector<std::size_t>& counts) {
    switch (rng_.uniform_int(5)) {
      case 0:  // bit flip
        if (!s.empty()) s[pick(s.size())] ^= static_cast<char>(1 << pick(8));
        break;
      case 1:  // truncation
        s.resize(pick(s.size() + 1));
        break;
      case 2: {  // inserted run of random bytes
        std::string run(1 + pick(16), '\0');
        for (char& c : run) c = static_cast<char>(rng_.next_u64());
        s.insert(pick(s.size() + 1), run);
        break;
      }
      case 3:  // duplicated run
        if (!s.empty()) {
          const std::string run = s.substr(pick(s.size()), 1 + pick(32));
          s.insert(pick(s.size() + 1), run);
        }
        break;
      default: {  // a count field set huge
        static constexpr std::uint64_t kHuge[] = {
            ~0ULL, ~0ULL >> 1, 1ULL << 61, 1ULL << 32, 0xffffffffULL};
        const std::size_t at =
            counts.empty() ? pick(s.size()) : counts[pick(counts.size())];
        if (at + 8 <= s.size()) {
          const std::uint64_t v = kHuge[pick(std::size(kHuge))];
          std::memcpy(s.data() + at, &v, 8);
        }
      }
    }
  }

  Rng rng_;
};

/// The fuzz contract for one input: `f` returns (true) or throws
/// dgr::Error (false). Any other exception is a failure that names the
/// input's first bytes.
bool yields(const std::string& input, const std::function<void()>& f) {
  try {
    f();
    return true;
  } catch (const Error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-dgr exception '" << e.what() << "' on a "
                  << input.size() << "-byte input starting "
                  << to_hex(input.substr(0, 96));
    return false;
  }
}

}  // namespace

TEST(Fuzz, ScenarioDecodeAcceptsOnlyExactEncodings) {
  const std::string seeds[] = {ensemble::encode(ScenarioConfig{}),
                               ensemble::encode(awkward_scenario())};
  Mutator mut(2901);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string in = mut(seeds[i % 2]);
    accepted += yields(in, [&] {
      // Whatever decode accepts re-encodes to the same bytes.
      EXPECT_EQ(ensemble::encode(ensemble::decode(in)), in);
    });
  }
  EXPECT_GT(accepted, 0);
}

TEST(Fuzz, WaveformDeserializeAcceptsOnlyExactSerializations) {
  const Waveform wf = fixed_waveform();
  const std::string seeds[] = {ensemble::serialize(wf),
                               ensemble::serialize(Waveform{})};
  // The Psi4 sample count sits at offset 36, the strain count after the
  // samples.
  const std::size_t n = wf.psi4_22.times.size();
  const std::vector<std::size_t> counts = {36, 36 + 8 + 24 * n};
  Mutator mut(2902);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string in =
        mut(seeds[i % 2], i % 2 ? std::vector<std::size_t>{36} : counts);
    accepted += yields(in, [&] {
      EXPECT_EQ(ensemble::serialize(ensemble::deserialize(in)), in);
    });
  }
  EXPECT_GT(accepted, 0);
}

TEST(Fuzz, RequestLinesAndHexPayloads) {
  const ScenarioConfig defaults;
  const std::string enc = ensemble::encode(awkward_scenario());
  const std::string lines[] = {
      serve::format_evolvex(ScenarioConfig{}),
      serve::format_evolvex(awkward_scenario(), true),
      serve::format_evolve(awkward_scenario()),
      "EVOLVE q=1.5 sep=2 base=1 finest=2 steps=2 full=1", "PING",
      "DUMP /tmp/x.json"};
  Mutator mut(2903);
  int accepted = 0;
  for (int i = 0; i < 10000; ++i) {
    // Mutated bytes behind a well-formed hex payload, and mutated lines.
    const std::string line = i % 3 == 0 ? "EVOLVEX " + to_hex(mut(enc))
                                        : mut(lines[i % std::size(lines)]);
    accepted += yields(line, [&] { serve::parse_request(line, defaults); });
    const std::string hex = mut(to_hex(enc));
    yields(hex, [&] {
      const std::string bytes = from_hex(hex);
      EXPECT_EQ(from_hex(to_hex(bytes)), bytes);
      EXPECT_EQ(bytes.size() * 2, hex.size());
    });
  }
  EXPECT_GT(accepted, 0);
}

TEST(Fuzz, SpillFaultInServesOnlyTheStoredWaveform) {
  TempDir dir("fuzz_spill");
  const auto key = ensemble::ScenarioKey::of(awkward_scenario());
  const Waveform wf = fixed_waveform();
  const std::string good = spill_bytes(dir.path, key, wf);
  const std::size_t body = 12 + key.bytes.size();  // DWF1 starts here
  const std::vector<std::size_t> counts = {4, body + 36};
  Mutator mut(2904);
  int served = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string in = mut(good, counts);
    put_file(dir.path + "/" + key.hex() + ".wf", in);
    ensemble::WaveformCache cache(std::size_t{1} << 20, dir.path);
    std::shared_ptr<const Waveform> got;
    ASSERT_TRUE(yields(in, [&] { got = cache.get(key); }))
        << "WaveformCache::get must not throw";
    const auto st = cache.stats();
    if (got) {
      // Served only when the file holds this key and an exact waveform.
      ++served;
      EXPECT_EQ(in.substr(0, body), good.substr(0, body));
      EXPECT_EQ(in.substr(body), ensemble::serialize(*got));
      EXPECT_EQ(st.hits_disk, 1u);
    } else {
      EXPECT_EQ(st.spill_failures, 1u);
    }
  }
  EXPECT_GT(served, 0);
}

TEST(Fuzz, CheckpointLoadAndRestartMesh) {
  TempDir dir("fuzz_cp");
  const FixedCheckpoint f;
  const std::string path = dir.path + "/cp.bin";
  solver::save_checkpoint(path, f.mesh, f.state, 0.375, 9);
  const std::string good = read_file(path, kMaxTestFile);
  // Header and leaf table, then the field payload; the leaf and DOF
  // counts sit at 36 and right after the 13-byte leaves.
  const std::size_t head = 36 + 8 + 13 * f.mesh.tree().leaves().size() + 8;
  const std::vector<std::size_t> counts = {36, head - 8};
  const std::string header = good.substr(0, head), fields = good.substr(head);
  Mutator mut(2905);
  int restored = 0;
  for (int i = 0; i < 800; ++i) {
    // Most mutations land in the header and leaf table; every 8th may
    // land anywhere in the file.
    const std::string in =
        i % 8 == 7 ? mut(good, counts) : mut(header, counts) + fields;
    put_file(path, in);
    restored += yields(in, [&] {
      const solver::Checkpoint cp = solver::load_checkpoint(path);
      const auto m = solver::checkpoint_mesh(cp);
      EXPECT_EQ(m->num_dofs(), cp.state.num_dofs());
    });
  }
  EXPECT_GT(restored, 0);

  // A checkpoint whose domain or clock is not a finite, positive number
  // would restart into a run that cannot mean anything: refused at load.
  for (const Real bad : {std::nan(""), 0.0, -8.0, HUGE_VAL}) {
    for (const std::size_t at : {std::size_t{12}, std::size_t{20}}) {
      if (at == 20 && bad <= 0) continue;  // a negative time is a time
      std::string in = good;
      std::memcpy(in.data() + at, &bad, sizeof bad);
      put_file(path, in);
      EXPECT_THROW(solver::load_checkpoint(path), Error) << bad << " @" << at;
    }
  }
}

TEST(Fuzz, JsonParseNeverThrows) {
  obs::MetricsRegistry reg;
  reg.add("serve.requests", 60);
  reg.set("bench.hit_rate", 0.5);
  reg.observe("ensemble.queue_us", 12.5);
  reg.observe_hist("serve.latency_us.mem", 30.0);
  const std::string seeds[] = {
      reg.json(),
      "{\"traceEvents\":[\n{\"name\":\"rhs\",\"ph\":\"X\",\"ts\":1.5,"
      "\"dur\":2,\"pid\":1,\"tid\":0,\"args\":{\"k\":\"v\\u00e9\"}}\n],"
      "\"displayTimeUnit\":\"ms\"}\n",
      "[1e308,-0.0,true,false,null,\"a\\\"b\\\\c\\n\",[[[{}]]],{\"\":[]}]"};
  Mutator mut(2906);
  int parsed = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string in = mut(seeds[i % std::size(seeds)]);
    std::string err;
    EXPECT_TRUE(yields(in, [&] {
      if (jsonu::parse(in, &err))
        ++parsed;
      else
        EXPECT_FALSE(err.empty());
    })) << "jsonu::parse threw on " << in;
  }
  EXPECT_GT(parsed, 0);
}

TEST(Fuzz, PerfdiffOnMutatedReports) {
  obs::MetricsRegistry reg;
  reg.add("dist.steps", 99);
  reg.set("bench.hit_rate", 0.75);
  reg.observe("ensemble.queue_us", 3.0);
  reg.observe_hist("serve.latency_us.mem", 7.0);
  const std::string base =
      "{\"schema\":\"dgr-bench-v1\",\"bench\":\"fuzz\",\"pairs\":["
      "{\"name\":\"speedup\",\"paper\":1.5,\"ours\":1.25,\"unit\":\"x\"}],"
      "\"notes\":[\"n\"],\"metrics\":" + reg.json() + "}\n";
  obs::perfdiff::Options opt;
  opt.gate = "^pair:|^gauge:";
  Mutator mut(2907);
  int compared = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string in = mut(base);
    ASSERT_TRUE(yields(in, [&] {
      obs::perfdiff::Report rep;
      if (i % 2)
        obs::perfdiff::diff_reports("fuzz", base, in, opt, rep);
      else
        obs::perfdiff::diff_reports("fuzz", in, base, opt, rep);
      rep.text(true);
      compared += rep.benches_compared;
    }));
  }
  EXPECT_GT(compared, 0);

  // Directory runs: a mutated report, one over the 64 MiB report bound (a
  // sparse file, refused before it is read) and one that is not a file
  // are each a problem of the run, not a crash.
  TempDir b("fuzz_perfdiff_base"), c("fuzz_perfdiff_cur");
  for (const char* bench : {"a", "big", "dir"})
    ASSERT_TRUE(write_file_atomic(b.path + "/BENCH_" + bench + ".json",
                                  {base}));
  ASSERT_TRUE(write_file_atomic(c.path + "/BENCH_a.json", {mut(base)}));
  ASSERT_TRUE(write_file_atomic(c.path + "/BENCH_big.json", {base}));
  fs::resize_file(c.path + "/BENCH_big.json", std::uintmax_t{65} << 20);
  fs::create_directories(c.path + "/BENCH_dir.json");
  const auto rep = obs::perfdiff::diff_dirs(b.path, c.path, opt);
  ASSERT_GE(rep.problems.size(), 2u);
  EXPECT_FALSE(rep.ok());
}
