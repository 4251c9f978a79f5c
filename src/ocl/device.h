// Simulated OpenCL platform & device model.
//
// The "machine" the runtime exposes is configurable: tests and benchmarks
// instantiate the paper's testbed (a Tesla S1070 — four Tesla T10 GPUs —
// attached to a Xeon E5520 host) or any other topology. Each device owns
// three virtual hardware timelines — one per engine: the compute engine
// and the two DMA engines (host→device, device→host), mirroring the
// dual-copy-engine design of real discrete GPUs. Commands on different
// engines of the same device may overlap in virtual time; commands on the
// same engine execute FIFO. The timing model (timing_model.h) converts
// executed work into nanoseconds on those timelines.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"

namespace ocl {

enum class DeviceType { GPU, CPU, All };

const char* deviceTypeName(DeviceType type) noexcept;

/// The hardware engines of one simulated device. A discrete GPU executes
/// kernels and DMA transfers on separate units: commands occupying
/// different engines overlap in virtual time, commands on the same
/// engine serialize FIFO.
enum class Engine : std::uint8_t {
  Compute = 0,      // kernel launches and on-device copies
  HostToDevice = 1, // upload DMA (enqueueWriteBuffer, copy-in)
  DeviceToHost = 2, // download DMA (enqueueReadBuffer, copy-out)
};

inline constexpr std::size_t kEngineCount = 3;

const char* engineName(Engine engine) noexcept;

/// Static description of a device's hardware capabilities.
struct DeviceSpec {
  std::string name = "Simulated Device";
  std::string vendor = "clc-sim";
  DeviceType type = DeviceType::GPU;
  std::uint32_t computeUnits = 30;   // CUs (SMs)
  std::uint32_t pesPerUnit = 8;      // processing elements per CU
  double clockGHz = 1.44;            // PE clock
  std::uint64_t globalMemBytes = 4ull << 30;
  double memBandwidthGBs = 102.0;    // on-device global memory bandwidth
  double pcieLatencyUs = 8.0;        // host<->device transfer latency
  double pcieBandwidthGBs = 5.2;     // host<->device bandwidth
  std::uint32_t maxWorkGroupSize = 512;
  std::uint64_t localMemBytes = 16 << 10;
  double idlePowerW = 50.0;     // board power while present but idle
  double busyPowerW = 180.0;    // board power with the compute engine busy
  double transferNjPerByte = 0.5; // DMA energy per byte moved on/off device
  /// Cumulative factor applied by scaled(); 1.0 = the unscaled preset.
  /// Tracked so repeated scaling composes multiplicatively instead of
  /// stacking name suffixes.
  double scale = 1.0;

  /// One GPU of the NVIDIA Tesla S1070 computing system used in the
  /// paper's evaluation: 240 streaming processor cores @ 1.44 GHz,
  /// 4 GB @ 102 GB/s.
  static DeviceSpec teslaT10();

  /// The paper's host CPU (Intel Xeon E5520, 2.26 GHz quad core), exposed
  /// as an OpenCL CPU device.
  static DeviceSpec xeonE5520();

  /// Peak compute throughput in cycles per nanosecond (CUs x PEs x
  /// clock). The relative magnitudes are SkelCL's block-distribution
  /// weights.
  double peakCyclesPerNs() const noexcept {
    return double(computeUnits) * double(pesPerUnit) * clockGHz;
  }

  /// A slower/faster variant of this device: compute clock, memory
  /// bandwidth, and busy power scale by `factor` (PCIe latency/bandwidth
  /// stay — the bus does not change with the silicon). Used by the
  /// `name@0.5x` syntax of SKELCL_DEVICES specs. Composition is
  /// predictable: factors multiply into `scale` and the single " @Nx"
  /// name suffix is regenerated from the composed factor, so
  /// `spec.scaled(0.5).scaled(2.0)` is exactly the unscaled spec.
  DeviceSpec scaled(double factor) const;
};

/// The simulated network joining the nodes of a multi-node machine.
/// Distinct from PCIe: a cross-node copy pays this latency and streams
/// at this bandwidth on top of the PCIe legs at each end.
struct InterconnectSpec {
  std::string name = "local"; // "ib" / "eth" for the spec'd tiers
  double latencyUs = 0.0;
  double bandwidthGBs = 0.0; // 0 = single-node machine, no network

  /// QDR InfiniBand of the paper's era: ~2 us latency, ~4 GB/s.
  static InterconnectSpec infiniband();
  /// 10-gigabit Ethernet: ~50 us latency, ~1.25 GB/s.
  static InterconnectSpec ethernet();
};

/// Live per-node link (NIC) state: one virtual timeline per direction,
/// shared by every device of the node. Cross-node copies occupy the
/// source node's egress and the destination node's ingress, so traffic
/// between the same node pair contends for the wire while traffic
/// between disjoint pairs overlaps.
class NodeState {
public:
  explicit NodeState(std::uint32_t node, InterconnectSpec interconnect)
      : node_(node), interconnect_(std::move(interconnect)) {}

  std::uint32_t node() const noexcept { return node_; }
  const InterconnectSpec& interconnect() const noexcept {
    return interconnect_;
  }

  std::uint64_t egressReadyNs() const noexcept { return egressReadyNs_; }
  std::uint64_t ingressReadyNs() const noexcept { return ingressReadyNs_; }
  void setEgressReadyNs(std::uint64_t t) noexcept { egressReadyNs_ = t; }
  void setIngressReadyNs(std::uint64_t t) noexcept { ingressReadyNs_ = t; }

private:
  std::uint32_t node_;
  InterconnectSpec interconnect_;
  std::uint64_t egressReadyNs_ = 0;
  std::uint64_t ingressReadyNs_ = 0;
};

/// Live per-device simulation state: allocation tracking, one virtual
/// timeline per engine and the totals of the work retired on it. Shared
/// by all handles to the same device.
class DeviceState {
public:
  explicit DeviceState(DeviceSpec spec, std::uint32_t index,
                       std::uint32_t node = 0,
                       std::shared_ptr<NodeState> link = nullptr)
      : spec_(std::move(spec)), index_(index), node_(node),
        link_(std::move(link)) {}

  const DeviceSpec& spec() const noexcept { return spec_; }
  std::uint32_t index() const noexcept { return index_; }

  /// Which node of the simulated cluster hosts this device (0 on a
  /// single-node machine).
  std::uint32_t node() const noexcept { return node_; }
  /// The hosting node's link state; null on machines configured without
  /// node structure (every device then shares node 0 with no network).
  const std::shared_ptr<NodeState>& link() const noexcept { return link_; }

  /// When the given engine finishes its last scheduled command.
  std::uint64_t readyTimeNs(Engine engine) const noexcept {
    return engineReadyNs_[std::size_t(engine)];
  }
  void setReadyTimeNs(Engine engine, std::uint64_t t) noexcept {
    engineReadyNs_[std::size_t(engine)] = t;
  }

  /// When the whole device goes idle: max over all three engines.
  std::uint64_t readyTimeNs() const noexcept {
    std::uint64_t ready = 0;
    for (std::uint64_t t : engineReadyNs_) {
      ready = ready < t ? t : ready;
    }
    return ready;
  }

  /// Work retired since configureSystem built this device: VM cycles of
  /// its kernels, and the payload bytes its DMA engines moved (uploads,
  /// downloads and both legs of cross-device copies). The job service's
  /// tenant accounting reads them live; energy is derived from the trace
  /// (trace::analyze).
  std::uint64_t kernelCycles() const noexcept { return kernelCycles_; }
  std::uint64_t dmaBytes() const noexcept { return dmaBytes_; }
  void chargeKernel(std::uint64_t cycles) noexcept { kernelCycles_ += cycles; }
  void chargeDma(std::uint64_t bytes) noexcept { dmaBytes_ += bytes; }

  std::uint64_t allocatedBytes() const noexcept { return allocated_; }
  void allocate(std::uint64_t bytes);
  void release(std::uint64_t bytes) noexcept;

  /// Device-lost simulation (CL_DEVICE_NOT_AVAILABLE): once marked lost
  /// — organically or by an injected fault — every later allocation and
  /// enqueue targeting the device throws DeviceLost. Cleared only by
  /// configureSystem (which builds fresh DeviceStates).
  bool lost() const noexcept { return lost_; }
  void markLost() noexcept { lost_ = true; }

private:
  DeviceSpec spec_;
  std::uint32_t index_;
  std::uint32_t node_ = 0;
  std::shared_ptr<NodeState> link_;
  std::uint64_t engineReadyNs_[kEngineCount] = {0, 0, 0};
  std::uint64_t allocated_ = 0;
  std::uint64_t kernelCycles_ = 0;
  std::uint64_t dmaBytes_ = 0;
  bool lost_ = false;
};

/// Lightweight device handle (copyable; equality = same device).
class Device {
public:
  Device() = default;
  explicit Device(std::shared_ptr<DeviceState> state)
      : state_(std::move(state)) {}

  bool valid() const noexcept { return state_ != nullptr; }
  const DeviceSpec& spec() const { return state().spec(); }
  const std::string& name() const { return state().spec().name; }
  DeviceType type() const { return state().spec().type; }
  std::uint32_t index() const { return state().index(); }
  std::uint32_t node() const { return state().node(); }
  std::uint64_t globalMemBytes() const { return state().spec().globalMemBytes; }
  std::uint32_t maxWorkGroupSize() const {
    return state().spec().maxWorkGroupSize;
  }

  DeviceState& state() const {
    COMMON_CHECK_MSG(state_ != nullptr, "use of an invalid Device handle");
    return *state_;
  }

  friend bool operator==(const Device& a, const Device& b) noexcept {
    return a.state_ == b.state_;
  }

private:
  std::shared_ptr<DeviceState> state_;
};

/// Description of the simulated machine — one node, or a cluster of
/// nodes joined by a simulated interconnect.
struct SystemConfig {
  std::string platformName = "clc-sim OpenCL (simulated)";
  std::vector<DeviceSpec> devices;
  /// Node index per device, parallel to `devices`. Empty = every device
  /// on node 0 (the single-node machines every pre-cluster spec built).
  std::vector<std::uint32_t> nodeOf;
  /// The network joining the nodes; the default "local" spec means no
  /// network (single-node machine).
  InterconnectSpec interconnect;

  /// Number of nodes described (>= 1 whenever devices exist).
  std::uint32_t nodeCount() const noexcept;

  /// The paper's testbed: 4x Tesla T10 GPUs + the Xeon host CPU device.
  static SystemConfig teslaS1070(std::uint32_t gpus = 4);

  /// Builds a (possibly heterogeneous, possibly multi-node) machine from
  /// a SKELCL_DEVICES spec. Single-node form: comma-separated entries
  /// `name['@'SCALE'x']['*'COUNT]` (the two suffixes compose in either
  /// order). Names: `t10`/`tesla`/`gpu` (Tesla T10), `cpu`/`xeon` (Xeon
  /// E5520). `@0.5x` scales compute clock and memory bandwidth, `*2`
  /// repeats the entry. Example: `t10*2,t10@0.5x,cpu` = two full-speed
  /// T10s, one half-speed T10, and the host CPU device.
  ///
  /// Cluster form: entries `node(<inner>)['*'COUNT]['@'TIER|'@'SCALE'x']`
  /// where `<inner>` is a single-node spec, `*2` repeats the whole node,
  /// `@ib`/`@eth` picks the interconnect tier (InfiniBand / 10GbE; all
  /// entries must agree, default ib), and `@0.5x` scales every device of
  /// the node. Example: `node(t10*4)*2@ib` = two 4-GPU nodes on
  /// InfiniBand. Node and bare-device entries must not mix, a node must
  /// contain at least one device, and nodes do not nest. Throws
  /// common::InvalidArgument on malformed specs (strict: a typo must not
  /// silently configure a different machine).
  static SystemConfig parse(const std::string& spec);
};

class Platform {
public:
  Platform(std::string name, std::vector<Device> devices)
      : name_(std::move(name)), devices_(std::move(devices)) {}

  const std::string& name() const noexcept { return name_; }
  std::vector<Device> devices(DeviceType type = DeviceType::All) const;

private:
  std::string name_;
  std::vector<Device> devices_;
};

/// (Re)configures the simulated machine. Resets every device timeline and
/// the host clock; outstanding Buffers keep working but no longer count
/// against the new devices. Tests call this freely.
void configureSystem(const SystemConfig& config);

/// Platform discovery, mirroring clGetPlatformIDs. The default machine
/// (if configureSystem was never called) is the paper's Tesla S1070.
std::vector<Platform> getPlatforms();

/// The simulated host clock (virtual nanoseconds since configureSystem).
std::uint64_t hostTimeNs();
void advanceHostTimeNs(std::uint64_t ns);
void syncHostTimeToNs(std::uint64_t ns); // host = max(host, ns)

/// Allocates the next command id (unique, ascending, 1-based; reset by
/// configureSystem together with the host clock). Command ids identify
/// nodes in trace dependency graphs (ocl::EventState::id).
std::uint64_t nextCommandId();

} // namespace ocl
