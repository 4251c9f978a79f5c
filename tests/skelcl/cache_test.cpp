// Kernel-cache behaviour (paper Sec. III-B).
#include <unistd.h>

#include <filesystem>

#include "clc/serialize.h"
#include "common/byte_stream.h"
#include "common/hash.h"
#include "common/stopwatch.h"
#include "skelcl_test_util.h"
#include "trace/recorder.h"

namespace {

using skelcl::KernelCache;

class CacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(1));
    // The pid keeps concurrent test processes apart: fixture addresses
    // repeat across processes when the allocator is deterministic (ASan).
    dir_ = (std::filesystem::temp_directory_path() /
            ("skelcl-cache-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(reinterpret_cast<std::uintptr_t>(this))))
               .string();
    std::filesystem::create_directories(dir_);
    auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
    context_ = ocl::Context({gpus[0]});
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string dir_;
  ocl::Context context_;
  const std::string source_ =
      "__kernel void k(__global float* d) { d[get_global_id(0)] = 1.0f; }";
};

TEST_F(CacheTest, FirstBuildIsAMissAndStoresEntry) {
  KernelCache cache(dir_);
  ocl::Program p = cache.getOrBuild(context_, source_);
  EXPECT_TRUE(p.isBuilt());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".clcbin") ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(CacheTest, SecondUseIsAHit) {
  KernelCache cache(dir_);
  cache.getOrBuild(context_, source_);
  ocl::Program p = cache.getOrBuild(context_, source_);
  EXPECT_TRUE(p.isBuilt());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(CacheTest, SeparateCacheInstancesShareTheDirectory) {
  {
    KernelCache cache(dir_);
    cache.getOrBuild(context_, source_);
  }
  KernelCache second(dir_);
  second.getOrBuild(context_, source_);
  EXPECT_EQ(second.stats().hits, 1u);
  EXPECT_EQ(second.stats().misses, 0u);
}

TEST_F(CacheTest, DifferentSourcesGetDifferentEntries) {
  KernelCache cache(dir_);
  cache.getOrBuild(context_, source_);
  cache.getOrBuild(context_, source_ + "\n// variant");
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST_F(CacheTest, CorruptedEntryFallsBackToRebuild) {
  KernelCache cache(dir_);
  cache.getOrBuild(context_, source_);
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".clcbin") {
      std::vector<std::uint8_t> garbage = {1, 2, 3, 4, 5};
      common::writeFile(e.path().string(), garbage);
    }
  }
  ocl::Program p = cache.getOrBuild(context_, source_);
  EXPECT_TRUE(p.isBuilt());
  EXPECT_EQ(cache.stats().misses, 2u); // rebuilt
  // And the entry was repaired:
  cache.getOrBuild(context_, source_);
  EXPECT_EQ(cache.stats().hits, 1u);
}

/// Wraps `payload` in the on-disk envelope with a valid digest: magic,
/// u64 LE payload length, FNV-1a64 hex.
std::vector<std::uint8_t> sealEntry(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> entry = {'S', 'K', 'C', '1'};
  for (std::size_t i = 0; i < 8; ++i) {
    entry.push_back(std::uint8_t(std::uint64_t(payload.size()) >> (8 * i)));
  }
  const std::uint64_t h = common::fnv1a64(payload.data(), payload.size());
  std::uint8_t digest[8];
  for (std::size_t i = 0; i < 8; ++i) {
    digest[i] = std::uint8_t(h >> (8 * (7 - i)));
  }
  const std::string hex = common::toHex(digest, 8);
  entry.insert(entry.end(), hex.begin(), hex.end());
  entry.insert(entry.end(), payload.begin(), payload.end());
  return entry;
}

/// Builds source_ into the cache, overwrites its entry with `entry`, and
/// checks the next lookup rebuilds and repairs the entry on disk.
void expectRebuildOver(const std::string& dir, ocl::Context& context,
                       const std::string& source,
                       const std::vector<std::uint8_t>& entry) {
  KernelCache cache(dir);
  cache.getOrBuild(context, source);
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".clcbin") {
      common::writeFile(e.path().string(), entry);
    }
  }
  ocl::Program p = cache.getOrBuild(context, source);
  EXPECT_TRUE(p.isBuilt());
  EXPECT_EQ(cache.stats().misses, 2u) << "unusable entry must rebuild";
  cache.getOrBuild(context, source);
  EXPECT_EQ(cache.stats().hits, 1u) << "the entry was repaired on disk";
}

TEST_F(CacheTest, SealedUnverifiableEntryFallsBackToRebuild) {
  // A payload that is a well-formed serialization of an unverifiable
  // program (its kernel pops an empty stack), sealed with a valid digest:
  // the integrity envelope passes, so the verifier must catch it.
  clc::Program bad;
  bad.code = {clc::Instr{clc::Op::Pop, clc::TypeTag::I32, 0},
              clc::Instr{clc::Op::Ret, clc::TypeTag::I32, 0}};
  clc::FunctionInfo f;
  f.name = "k";
  f.codeEnd = 2;
  f.frameSize = 8;
  f.isKernel = true;
  bad.functions.push_back(f);
  clc::KernelInfo k;
  k.name = "k";
  bad.kernels.push_back(k);
  expectRebuildOver(dir_, context_, source_,
                    sealEntry(clc::serializeProgram(bad)));
}

TEST_F(CacheTest, SealedEntryWithHugeCodeLengthFallsBackToRebuild) {
  // A valid digest over a payload whose instruction count claims 2^62
  // entries: a typed load error, never an allocation of that size.
  common::ByteWriter w;
  w.write<std::uint32_t>(0x434c4342); // "CLCB"
  w.write<std::uint32_t>(clc::Program::kSerialVersion);
  w.writeString("");
  w.write<std::uint64_t>(1ULL << 62);
  expectRebuildOver(dir_, context_, source_, sealEntry(w.takeBytes()));
}

// A rejected entry leaves a Decision with the reason, filed before the
// Build span of the rebuild that replaces it.
TEST_F(CacheTest, RejectedEntryIsADecisionBeforeItsRebuild) {
  KernelCache cache(dir_);
  cache.getOrBuild(context_, source_);
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".clcbin") {
      common::writeFile(e.path().string(), {'j', 'u', 'n', 'k'});
    }
  }
  trace::Recorder::instance().start();
  cache.getOrBuild(context_, source_);
  const trace::Trace t = trace::Recorder::instance().stop();
  ASSERT_EQ(t.hostSpans.size(), 2u);
  const trace::HostSpanRecord& decision = t.hostSpans[0];
  EXPECT_EQ(decision.kind, trace::HostKind::Decision);
  EXPECT_EQ(t.str(decision.name),
            "kernel_cache.rejected: cache entry has no valid header");
  EXPECT_EQ(decision.startNs, decision.endNs);
  EXPECT_EQ(t.hostSpans[1].kind, trace::HostKind::Build);
}

// An entry that cannot be stored costs nothing but the Decision saying
// so: the build still succeeds.
TEST_F(CacheTest, FailedStoreIsADecision) {
  const std::string blocker = dir_ + "/not-a-directory";
  common::writeFile(blocker, {1});
  KernelCache cache(blocker + "/cache");
  trace::Recorder::instance().start();
  ocl::Program p = cache.getOrBuild(context_, source_);
  const trace::Trace t = trace::Recorder::instance().stop();
  EXPECT_TRUE(p.isBuilt());
  ASSERT_EQ(t.hostSpans.size(), 2u);
  EXPECT_EQ(t.hostSpans[0].kind, trace::HostKind::Build);
  EXPECT_EQ(t.hostSpans[1].kind, trace::HostKind::Decision);
  EXPECT_EQ(t.str(t.hostSpans[1].name).rfind(
                "kernel_cache.store_failed: cannot open for writing", 0),
            0u)
      << t.str(t.hostSpans[1].name);
}

TEST_F(CacheTest, TruncatedEntryIsDetectedAndRebuilt) {
  // The integrity envelope records the payload length: chopping bytes off
  // the end fails the length check before the deserializer ever runs.
  KernelCache cache(dir_);
  cache.getOrBuild(context_, source_);
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".clcbin") {
      auto bytes = common::readFile(e.path().string());
      ASSERT_GT(bytes.size(), 16u);
      bytes.resize(bytes.size() - 7);
      common::writeFile(e.path().string(), bytes);
    }
  }
  ocl::Program p = cache.getOrBuild(context_, source_);
  EXPECT_TRUE(p.isBuilt());
  EXPECT_EQ(cache.stats().misses, 2u) << "truncation must force a rebuild";
  cache.getOrBuild(context_, source_);
  EXPECT_EQ(cache.stats().hits, 1u) << "the entry was repaired on disk";
}

TEST_F(CacheTest, BitFlippedEntryFailsTheDigestCheck) {
  // A single flipped payload bit keeps the header and length intact but
  // fails the payload digest comparison.
  KernelCache cache(dir_);
  cache.getOrBuild(context_, source_);
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".clcbin") {
      auto bytes = common::readFile(e.path().string());
      ASSERT_GT(bytes.size(), 100u);
      bytes[bytes.size() / 2] ^= 0x40;
      common::writeFile(e.path().string(), bytes);
    }
  }
  ocl::Program p = cache.getOrBuild(context_, source_);
  EXPECT_TRUE(p.isBuilt());
  EXPECT_EQ(cache.stats().misses, 2u) << "digest mismatch must rebuild";
  cache.getOrBuild(context_, source_);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(CacheTest, StaleFormatVersionIsRejectedAndRebuilt) {
  KernelCache cache(dir_);
  cache.getOrBuild(context_, source_);
  // Corrupt the on-disk format version (bytes [4,8) after the magic) to
  // impersonate an entry from an older library build.
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".clcbin") {
      auto bytes = common::readFile(e.path().string());
      ASSERT_GE(bytes.size(), 8u);
      bytes[4] = 0xfe;
      bytes[5] = 0xff;
      common::writeFile(e.path().string(), bytes);
    }
  }
  ocl::Program p = cache.getOrBuild(context_, source_);
  EXPECT_TRUE(p.isBuilt());
  EXPECT_EQ(cache.stats().misses, 2u) << "stale version must force a rebuild";
  // The rebuild overwrote the stale entry with the current format.
  cache.getOrBuild(context_, source_);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(CacheTest, StaleEntryUnderTheSourceNameIsOverwrittenInPlace) {
  // An entry from a library build with another bytecode format lives
  // under the same name as the current one: it is rejected on load, and
  // the rebuild replaces it instead of piling a second file beside it.
  ocl::Program built = context_.createProgram(source_);
  built.build(skelcl::kDefaultBuildOptions);
  std::vector<std::uint8_t> payload = built.binary();
  ASSERT_GE(payload.size(), 8u);
  const std::uint32_t stale = clc::Program::kSerialVersion - 1;
  for (std::size_t i = 0; i < 4; ++i) {
    payload[4 + i] = std::uint8_t(stale >> (8 * i));
  }
  common::writeFile(dir_ + "/" + common::Sha256::hexDigest(source_) +
                        ".clcbin",
                    sealEntry(payload));

  KernelCache cache(dir_);
  cache.getOrBuild(context_, source_);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".clcbin") ++entries;
  }
  EXPECT_EQ(entries, 1u);
  cache.getOrBuild(context_, source_);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(CacheTest, EntryBuiltAtAnotherLevelIsRebuilt) {
  // A sound O0 entry under the source's name: it loads and verifies,
  // but every cached program is an O2 build, so it is rebuilt.
  ocl::Program built = context_.createProgram(source_);
  built.build("-cl-opt-level=0");
  expectRebuildOver(dir_, context_, source_, sealEntry(built.binary()));
}

TEST_F(CacheTest, ClearRemovesEntries) {
  KernelCache cache(dir_);
  cache.getOrBuild(context_, source_);
  cache.clear();
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".clcbin") ++entries;
  }
  EXPECT_EQ(entries, 0u);
}

TEST_F(CacheTest, LoadedProgramExecutesCorrectly) {
  KernelCache cache(dir_);
  cache.getOrBuild(context_, source_);
  ocl::Program p = cache.getOrBuild(context_, source_); // from cache
  auto device = context_.devices()[0];
  ocl::CommandQueue queue(device);
  std::vector<float> data(8, 0.0f);
  ocl::Buffer buf = context_.createBuffer(device, 8 * sizeof(float));
  queue.enqueueWriteBuffer(buf, 0, 8 * sizeof(float), data.data());
  ocl::Kernel kernel = p.createKernel("k");
  kernel.setArg(0, buf);
  queue.enqueueNDRange(kernel, ocl::NDRange1D{8, 8});
  queue.enqueueReadBuffer(buf, 0, 8 * sizeof(float), data.data());
  for (float v : data) {
    EXPECT_FLOAT_EQ(v, 1.0f);
  }
}

TEST_F(CacheTest, LoadIsAtLeastFiveTimesFasterThanBuild) {
  // The paper's claim: "loading kernels from disk is at least five times
  // faster than building them from source." Use a realistically sized
  // generated kernel and amortize over repetitions. The build side is
  // the compile a miss runs, without the store that follows it.
  std::string bigSource = source_;
  for (int i = 0; i < 30; ++i) {
    bigSource += "\nfloat helper" + std::to_string(i) +
                 "(float x) { return sqrt(x) * " + std::to_string(i) +
                 ".0f + sin(x); }";
  }
  KernelCache cache(dir_);
  cache.getOrBuild(context_, bigSource); // prime the cache

  // Min-of-N per side, interleaved: the fastest run of each is the one
  // least disturbed by other processes, so the ratio is stable under load.
  double buildTime = 1e9;
  double loadTime = 1e9;
  for (int trial = 0; trial < 9; ++trial) {
    {
      common::Stopwatch buildTimer;
      ocl::Program built = context_.createProgram(bigSource);
      built.build(skelcl::kDefaultBuildOptions);
      buildTime = std::min(buildTime, buildTimer.elapsedSeconds());
    }
    {
      KernelCache fresh(dir_);
      common::Stopwatch loadTimer;
      fresh.getOrBuild(context_, bigSource);
      loadTime = std::min(loadTime, loadTimer.elapsedSeconds());
      EXPECT_EQ(fresh.stats().hits, 1u);
    }
  }
  EXPECT_LT(loadTime * 5, buildTime)
      << "build=" << buildTime << "s load=" << loadTime << "s";
}

} // namespace
