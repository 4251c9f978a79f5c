#include "skelcl/kernel_cache.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <string_view>

#include "common/byte_stream.h"
#include "common/env.h"
#include "common/hash.h"
#include "common/stopwatch.h"
#include "trace/recorder.h"

namespace skelcl {

namespace {

// On-disk entry envelope (the v4 format): a magic, the payload length,
// and the payload's FNV-1a64 hex digest precede the serialized bytecode.
// Disk blobs are never trusted: a truncated or bit-flipped entry fails
// the length or digest check and triggers a silent rebuild instead of
// feeding corrupt bytes to the deserializer. FNV-1a64 (not SHA-256)
// because this digest guards against corruption, not adversaries, and it
// sits on the cache-hit path the paper requires to be >= 5x faster than
// a rebuild; SHA-256 stays where collision resistance matters (keying).
constexpr char kEntryMagic[4] = {'S', 'K', 'C', '1'};
constexpr std::size_t kDigestHexLen = 16;
constexpr std::size_t kEntryHeaderLen = sizeof(kEntryMagic) + 8 +
                                        kDigestHexLen;

std::string payloadDigest(const std::uint8_t* data, std::size_t size) {
  const std::uint64_t h = common::fnv1a64(data, size);
  std::uint8_t bytes[8];
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = std::uint8_t(h >> (8 * (7 - i)));
  }
  return common::toHex(bytes, 8);
}

std::vector<std::uint8_t> sealEntry(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> entry(std::begin(kEntryMagic),
                                  std::end(kEntryMagic));
  entry.reserve(kEntryHeaderLen + payload.size());
  const std::uint64_t length = payload.size();
  for (std::size_t i = 0; i < 8; ++i) {
    entry.push_back(std::uint8_t(length >> (8 * i)));
  }
  const std::string digest = payloadDigest(payload.data(), payload.size());
  entry.insert(entry.end(), digest.begin(), digest.end());
  entry.insert(entry.end(), payload.begin(), payload.end());
  return entry;
}

std::vector<std::uint8_t> openEntry(const std::vector<std::uint8_t>& entry) {
  if (entry.size() < kEntryHeaderLen ||
      !std::equal(kEntryMagic, kEntryMagic + sizeof(kEntryMagic),
                  entry.begin())) {
    throw common::IoError("cache entry has no valid header");
  }
  std::uint64_t length = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    length |= std::uint64_t(entry[sizeof(kEntryMagic) + i]) << (8 * i);
  }
  if (length != entry.size() - kEntryHeaderLen) {
    throw common::IoError("cache entry truncated: header says " +
                          std::to_string(length) + " payload bytes, file has " +
                          std::to_string(entry.size() - kEntryHeaderLen));
  }
  const std::string_view stored(
      reinterpret_cast<const char*>(entry.data() + sizeof(kEntryMagic) + 8),
      kDigestHexLen);
  const std::string actual =
      payloadDigest(entry.data() + kEntryHeaderLen, length);
  if (stored != actual) {
    throw common::IoError("cache entry digest mismatch (corrupt entry)");
  }
  return {entry.begin() + kEntryHeaderLen, entry.end()};
}

/// Files the span of a load or build that succeeded: the trace counts
/// one CacheHit span per hit and one Build span per miss, so an unusable
/// entry or a failed build never shows up in it.
void recordSpan(trace::HostKind kind, const char* name,
                std::uint64_t startNs, std::size_t sourceBytes) {
  if (trace::Recorder::enabled()) {
    trace::Recorder::instance().recordHostSpan(
        kind, name, trace::kNoDevice, startNs, trace::now(), sourceBytes);
  }
}

std::string defaultDirectory() {
  const std::string dir = common::envStr("SKELCL_CACHE_DIR");
  if (!dir.empty()) {
    return dir;
  }
  const std::string home = common::envStr("HOME");
  if (!home.empty()) {
    return home + "/.skelcl/cache";
  }
  return (std::filesystem::temp_directory_path() / "skelcl-cache").string();
}

/// Files a Decision naming what the cache did about `error`.
void recordCacheDecision(const char* decision, const common::Error& error) {
  if (trace::Recorder::enabled()) {
    trace::recordDecision(std::string(decision) + ": " + error.what());
  }
}

} // namespace

KernelCache::KernelCache(std::string directory)
    : directory_(directory.empty() ? defaultDirectory()
                                   : std::move(directory)) {}

std::string KernelCache::entryPath(const std::string& source) const {
  return directory_ + "/" + common::Sha256::hexDigest(source) + ".clcbin";
}

ocl::Program KernelCache::getOrBuild(const ocl::Context& context,
                                     const std::string& source) {
  const std::string path = entryPath(source);
  if (common::fileExists(path)) {
    try {
      const std::uint64_t startNs = trace::now();
      ocl::Program program =
          context.createProgramFromBinary(openEntry(common::readFile(path)));
      const clc::OptLevel level = ocl::optLevelOf(kDefaultBuildOptions);
      if (program.compiled().optLevel != std::uint8_t(level)) {
        throw common::IoError(
            "cache entry built at O" +
            std::to_string(program.compiled().optLevel) + ", expected O" +
            std::to_string(int(level)));
      }
      {
        std::lock_guard lock(statsMutex_);
        ++stats_.hits;
      }
      recordSpan(trace::HostKind::CacheHit, "kernel_cache.hit", startNs,
                 source.size());
      return program;
    } catch (const common::Error& e) {
      // Corrupted, version-mismatched or other-level entry: rebuild
      // below, overwriting it.
      recordCacheDecision("kernel_cache.rejected", e);
    }
  }

  const std::uint64_t startNs = trace::now();
  common::Stopwatch timer;
  ocl::Program program = context.createProgram(source);
  program.build(kDefaultBuildOptions);
  {
    std::lock_guard lock(statsMutex_);
    stats_.buildSeconds += timer.elapsedSeconds();
    ++stats_.misses;
  }
  recordSpan(trace::HostKind::Build, "kernel_cache.build", startNs,
             source.size());

  try {
    common::writeFile(path, sealEntry(program.binary()));
  } catch (const common::IoError& e) {
    recordCacheDecision("kernel_cache.store_failed", e);
  }
  return program;
}

void KernelCache::clear() {
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    if (entry.path().extension() == ".clcbin") {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

} // namespace skelcl
