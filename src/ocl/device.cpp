#include "ocl/device.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "ocl/fault.h"
#include "trace/recorder.h"

namespace ocl {

const char* deviceTypeName(DeviceType type) noexcept {
  switch (type) {
    case DeviceType::GPU: return "GPU";
    case DeviceType::CPU: return "CPU";
    case DeviceType::All: return "ALL";
  }
  return "?";
}

const char* engineName(Engine engine) noexcept {
  switch (engine) {
    case Engine::Compute: return "compute";
    case Engine::HostToDevice: return "h2d";
    case Engine::DeviceToHost: return "d2h";
  }
  return "?";
}

DeviceSpec DeviceSpec::teslaT10() {
  DeviceSpec spec;
  spec.name = "Tesla T10 (simulated)";
  spec.vendor = "NVIDIA (simulated)";
  spec.type = DeviceType::GPU;
  spec.computeUnits = 30;
  spec.pesPerUnit = 8; // 30 SMs x 8 SPs = 240 cores
  spec.clockGHz = 1.44;
  spec.globalMemBytes = 4ull << 30;
  spec.memBandwidthGBs = 102.0;
  spec.pcieLatencyUs = 8.0;
  spec.pcieBandwidthGBs = 5.2;
  spec.maxWorkGroupSize = 512;
  spec.localMemBytes = 16 << 10;
  // One quarter of the S1070's 800 W board: ~60 W idle, ~200 W busy.
  spec.idlePowerW = 60.0;
  spec.busyPowerW = 200.0;
  spec.transferNjPerByte = 0.5;
  return spec;
}

DeviceSpec DeviceSpec::xeonE5520() {
  DeviceSpec spec;
  spec.name = "Intel Xeon E5520 (simulated)";
  spec.vendor = "Intel (simulated)";
  spec.type = DeviceType::CPU;
  spec.computeUnits = 4;
  spec.pesPerUnit = 4; // SSE lanes
  spec.clockGHz = 2.26;
  spec.globalMemBytes = 12ull << 30;
  spec.memBandwidthGBs = 25.6;
  spec.pcieLatencyUs = 0.1; // host memory is local
  spec.pcieBandwidthGBs = 12.0;
  spec.maxWorkGroupSize = 1024;
  spec.localMemBytes = 32 << 10;
  // Nehalem-era quad core: 80 W TDP, ~15 W idle.
  spec.idlePowerW = 15.0;
  spec.busyPowerW = 80.0;
  spec.transferNjPerByte = 0.25;
  return spec;
}

DeviceSpec DeviceSpec::scaled(double factor) const {
  COMMON_EXPECTS(factor > 0.0, "device scale factor must be positive");
  DeviceSpec spec = *this;
  spec.clockGHz *= factor;
  spec.memBandwidthGBs *= factor;
  spec.busyPowerW *= factor;
  spec.scale *= factor;
  // Regenerate the single " @Nx" suffix from the *composed* factor (the
  // unscaled base name is this name minus any existing suffix), so
  // repeated scaling stays idempotent: scaled(0.5).scaled(2.0) returns
  // the clean base spec, never "name @0.5x @2x".
  const std::size_t at = spec.name.rfind(" @");
  if (at != std::string::npos && spec.name.back() == 'x') {
    spec.name.erase(at);
  }
  if (spec.scale != 1.0) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), " @%gx", spec.scale);
    spec.name += suffix;
  }
  return spec;
}

InterconnectSpec InterconnectSpec::infiniband() {
  InterconnectSpec spec;
  spec.name = "ib";
  spec.latencyUs = 2.0;
  spec.bandwidthGBs = 4.0; // QDR InfiniBand, 32 Gbit/s effective
  return spec;
}

InterconnectSpec InterconnectSpec::ethernet() {
  InterconnectSpec spec;
  spec.name = "eth";
  spec.latencyUs = 50.0;
  spec.bandwidthGBs = 1.25; // 10GbE
  return spec;
}

std::uint32_t SystemConfig::nodeCount() const noexcept {
  std::uint32_t count = devices.empty() ? 0 : 1;
  for (std::uint32_t node : nodeOf) {
    count = std::max(count, node + 1);
  }
  return count;
}

SystemConfig SystemConfig::teslaS1070(std::uint32_t gpus) {
  SystemConfig config;
  config.platformName = "clc-sim OpenCL (Tesla S1070 testbed)";
  for (std::uint32_t i = 0; i < gpus; ++i) {
    config.devices.push_back(DeviceSpec::teslaT10());
  }
  config.devices.push_back(DeviceSpec::xeonE5520());
  return config;
}

namespace {

std::string trimmedLower(const std::string& s) {
  std::size_t begin = s.find_first_not_of(" \t");
  std::size_t end = s.find_last_not_of(" \t");
  if (begin == std::string::npos) {
    return "";
  }
  std::string out = s.substr(begin, end - begin + 1);
  for (char& c : out) {
    c = char(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

[[noreturn]] void badSpec(const std::string& entry, const std::string& why) {
  throw common::InvalidArgument("invalid SKELCL_DEVICES entry '" + entry +
                                "': " + why);
}

/// The `@SCALEx` / `*COUNT` (and, for node entries, `@ib` / `@eth`)
/// suffixes of one entry.
struct Suffixes {
  double scale = 1.0;
  unsigned long count = 1;
  std::string tier; // empty: none named
};

/// Peels suffixes off the tail of `text`, each at most once and in any
/// order, until no `@` or `*` is left past its first character; `text`
/// keeps what remains. `raw` is the entry as written, for errors.
Suffixes peelSuffixes(const std::string& raw, std::string& text,
                      bool allowTier) {
  Suffixes out;
  bool sawScale = false, sawCount = false;
  for (;;) {
    const std::size_t cut = text.find_last_of("@*");
    if (cut == std::string::npos || cut == 0) {
      return out;
    }
    const std::string suffix = text.substr(cut + 1);
    const char marker = text[cut];
    text.erase(cut);
    if (marker == '*') {
      if (sawCount) {
        badSpec(raw, "duplicate *count suffix");
      }
      char* rest = nullptr;
      out.count = std::strtoul(suffix.c_str(), &rest, 10);
      if (rest != suffix.c_str() + suffix.size() || out.count == 0) {
        badSpec(raw, "count must be a positive integer");
      }
      sawCount = true;
      continue;
    }
    const bool scaleShaped = suffix.size() >= 2 && suffix.back() == 'x';
    if (allowTier && !scaleShaped) {
      if (suffix != "ib" && suffix != "eth") {
        badSpec(raw, "unknown node suffix '@" + suffix +
                         "' (expected @ib, @eth, or @0.5x)");
      }
      if (!out.tier.empty()) {
        badSpec(raw, "duplicate @tier suffix");
      }
      out.tier = suffix;
      continue;
    }
    if (sawScale) {
      badSpec(raw, "duplicate @scale suffix");
    }
    if (!scaleShaped) {
      badSpec(raw, "scale must look like @0.5x");
    }
    char* rest = nullptr;
    out.scale = std::strtod(suffix.c_str(), &rest);
    if (rest != suffix.c_str() + suffix.size() - 1 || !(out.scale > 0.0)) {
      badSpec(raw, "scale must be a positive number followed by 'x'");
    }
    sawScale = true;
  }
}

/// One spec entry `name['@'SCALE'x']['*'COUNT]`, suffixes in any order.
void parseEntry(const std::string& raw, SystemConfig& config) {
  std::string name = trimmedLower(raw);
  if (name.empty()) {
    badSpec(raw, "empty entry");
  }
  const Suffixes suffixes = peelSuffixes(raw, name, /*allowTier=*/false);
  DeviceSpec base;
  if (name == "t10" || name == "tesla" || name == "gpu") {
    base = DeviceSpec::teslaT10();
  } else if (name == "cpu" || name == "xeon") {
    base = DeviceSpec::xeonE5520();
  } else {
    badSpec(raw, "unknown device name '" + name +
                     "' (expected t10/tesla/gpu or cpu/xeon)");
  }
  const DeviceSpec spec = base.scaled(suffixes.scale);
  for (unsigned long i = 0; i < suffixes.count; ++i) {
    config.devices.push_back(spec);
  }
}

/// Splits a spec on top-level commas only: commas inside `node(...)`
/// parentheses belong to the inner device list.
std::vector<std::string> splitTopLevel(const std::string& spec) {
  std::vector<std::string> entries;
  std::string current;
  int depth = 0;
  for (char c : spec) {
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      if (depth == 0) {
        throw common::InvalidArgument(
            "invalid SKELCL_DEVICES spec '" + spec + "': unmatched ')'");
      }
      --depth;
    } else if (c == ',' && depth == 0) {
      entries.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  if (depth != 0) {
    throw common::InvalidArgument("invalid SKELCL_DEVICES spec '" + spec +
                                  "': unmatched '('");
  }
  entries.push_back(current);
  return entries;
}

/// One cluster entry `node(<inner>)['*'COUNT]['@'TIER|'@'SCALE'x']`,
/// suffixes in any order. Appends the node's devices `count` times and
/// records their node indices; returns the tier this entry named (empty
/// when it relied on the default).
std::string parseNodeEntry(const std::string& raw, SystemConfig& config) {
  const std::string entry = trimmedLower(raw);
  const std::size_t open = entry.find('(');
  const std::size_t close = entry.rfind(')');
  COMMON_CHECK(open != std::string::npos && close != std::string::npos &&
               open < close);
  if (entry.substr(0, open) != "node") {
    badSpec(raw, "expected node(...), got '" + entry.substr(0, open) + "(...'");
  }
  const std::string inner = entry.substr(open + 1, close - open - 1);
  if (trimmedLower(inner).empty()) {
    badSpec(raw, "node with zero devices (token '" + entry + "')");
  }
  if (inner.find("node") != std::string::npos) {
    badSpec(raw, "nodes do not nest");
  }
  // The suffixes follow the closing parenthesis, which stays behind.
  std::string tail = entry.substr(close);
  const Suffixes suffixes = peelSuffixes(raw, tail, /*allowTier=*/true);
  if (tail != ")") {
    badSpec(raw, "junk after node(...): '" + tail.substr(1) + "'");
  }
  // The inner list is an ordinary single-node spec; scale applies to
  // every device of the node.
  SystemConfig innerConfig;
  for (const std::string& deviceEntry : splitTopLevel(inner)) {
    parseEntry(deviceEntry, innerConfig);
  }
  for (unsigned long i = 0; i < suffixes.count; ++i) {
    const auto node = std::uint32_t(config.nodeOf.empty()
                                        ? 0
                                        : config.nodeOf.back() + 1);
    for (const DeviceSpec& device : innerConfig.devices) {
      config.devices.push_back(device.scaled(suffixes.scale));
      config.nodeOf.push_back(node);
    }
  }
  return suffixes.tier;
}

} // namespace

SystemConfig SystemConfig::parse(const std::string& spec) {
  SystemConfig config;
  config.platformName = "clc-sim OpenCL (spec: " + spec + ")";
  const std::vector<std::string> entries = splitTopLevel(spec);
  bool sawNode = false, sawBare = false;
  std::string tier;
  for (const std::string& raw : entries) {
    const std::string entry = trimmedLower(raw);
    if (entry.rfind("node", 0) == 0 && entry.find('(') != std::string::npos) {
      sawNode = true;
      const std::string entryTier = parseNodeEntry(raw, config);
      if (!entryTier.empty()) {
        if (!tier.empty() && tier != entryTier) {
          badSpec(raw, "conflicting interconnect tiers '@" + tier +
                           "' and '@" + entryTier +
                           "' (one network joins all nodes)");
        }
        tier = entryTier;
      }
    } else {
      sawBare = true;
      parseEntry(raw, config);
    }
  }
  if (sawNode && sawBare) {
    throw common::InvalidArgument(
        "invalid SKELCL_DEVICES spec '" + spec +
        "': node(...) entries and bare device entries must not mix");
  }
  if (sawNode) {
    config.interconnect = tier == "eth" ? InterconnectSpec::ethernet()
                                        : InterconnectSpec::infiniband();
  }
  COMMON_EXPECTS(!config.devices.empty(),
                 "SKELCL_DEVICES spec names no devices");
  return config;
}

void DeviceState::allocate(std::uint64_t bytes) {
  if (lost_) {
    throw DeviceLost(index_, "allocation on device " + std::to_string(index_) +
                                 " ('" + spec_.name + "'): device lost");
  }
  if (FaultInjector::enabled()) {
    if (const auto fault = FaultInjector::instance().check(
            FaultSite::Alloc, spec_.name, index_)) {
      if (fault->deviceLost) {
        lost_ = true;
        throw DeviceLost(index_, "injected device loss during allocation on "
                                 "device " +
                                     std::to_string(index_));
      }
      throw AllocFailure(index_, "injected allocation failure (" +
                                     std::string(statusName(
                                         Status::MemObjectAllocationFailure)) +
                                     ") of " + std::to_string(bytes) +
                                     " bytes on device " +
                                     std::to_string(index_));
    }
  }
  if (bytes > spec_.globalMemBytes - allocated_) { // no wrap-around
    throw AllocFailure(
        index_,
        "device '" + spec_.name + "' out of memory: allocated " +
            std::to_string(allocated_) + " + requested " +
            std::to_string(bytes) + " exceeds " +
            std::to_string(spec_.globalMemBytes),
        Status::OutOfResources);
  }
  allocated_ += bytes;
}

void DeviceState::release(std::uint64_t bytes) noexcept {
  allocated_ = bytes > allocated_ ? 0 : allocated_ - bytes;
}

std::vector<Device> Platform::devices(DeviceType type) const {
  if (type == DeviceType::All) {
    return devices_;
  }
  std::vector<Device> out;
  for (const Device& d : devices_) {
    if (d.type() == type) {
      out.push_back(d);
    }
  }
  return out;
}

namespace {

struct System {
  std::string platformName;
  std::vector<std::shared_ptr<DeviceState>> devices;
  std::vector<std::shared_ptr<NodeState>> nodes;
  std::atomic<std::uint64_t> hostNs{0};
  std::atomic<std::uint64_t> nextCommandId{0};
};

std::mutex g_systemMutex;
std::unique_ptr<System> g_system;

std::uint64_t hostTimeNsForTrace() noexcept { return hostTimeNs(); }

/// Tells the tracer who the devices are (pid labels in exports, node and
/// power columns in skeltrace) and how to read the virtual clock. Runs
/// on every (re)configuration so traces started at any point see the
/// current machine.
void publishSystemToTracer(const System& sys) {
  trace::setTimeSource(&hostTimeNsForTrace);
  std::vector<trace::DeviceInfo> infos;
  for (const auto& state : sys.devices) {
    trace::DeviceInfo info;
    info.index = state->index();
    info.name = state->spec().name;
    info.node = state->node();
    info.idlePowerW = state->spec().idlePowerW;
    info.busyPowerW = state->spec().busyPowerW;
    info.transferNjPerByte = state->spec().transferNjPerByte;
    infos.push_back(std::move(info));
  }
  trace::Recorder::instance().setDevices(std::move(infos));
}

/// Builds the live state from a config: one NodeState per node (all
/// sharing the config's interconnect), one DeviceState per device wired
/// to its node's link.
void buildSystem(System& sys, const SystemConfig& config) {
  COMMON_EXPECTS(config.nodeOf.empty() ||
                     config.nodeOf.size() == config.devices.size(),
                 "SystemConfig.nodeOf must be empty or parallel to devices");
  sys.platformName = config.platformName;
  const std::uint32_t nodeCount = config.nodeCount();
  for (std::uint32_t n = 0; n < nodeCount; ++n) {
    sys.nodes.push_back(
        std::make_shared<NodeState>(n, config.interconnect));
  }
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    const std::uint32_t node =
        i < config.nodeOf.size() ? config.nodeOf[i] : 0;
    COMMON_EXPECTS(node < nodeCount, "device node index out of range");
    sys.devices.push_back(std::make_shared<DeviceState>(
        config.devices[i], std::uint32_t(i), node, sys.nodes[node]));
  }
}

System& system() {
  {
    std::lock_guard lock(g_systemMutex);
    if (g_system != nullptr) {
      return *g_system;
    }
    g_system = std::make_unique<System>();
    buildSystem(*g_system, SystemConfig::teslaS1070());
  }
  publishSystemToTracer(*g_system);
  return *g_system;
}

} // namespace

void configureSystem(const SystemConfig& config) {
  {
    std::lock_guard lock(g_systemMutex);
    g_system = std::make_unique<System>();
    buildSystem(*g_system, config);
  }
  publishSystemToTracer(*g_system);
}

std::vector<Platform> getPlatforms() {
  System& sys = system();
  std::vector<Device> devices;
  for (const auto& state : sys.devices) {
    devices.emplace_back(state);
  }
  return {Platform(sys.platformName, std::move(devices))};
}

std::uint64_t hostTimeNs() { return system().hostNs.load(); }

void advanceHostTimeNs(std::uint64_t ns) { system().hostNs.fetch_add(ns); }

void syncHostTimeToNs(std::uint64_t ns) {
  auto& clock = system().hostNs;
  std::uint64_t current = clock.load();
  while (current < ns && !clock.compare_exchange_weak(current, ns)) {
  }
}

std::uint64_t nextCommandId() {
  return system().nextCommandId.fetch_add(1) + 1;
}

} // namespace ocl
