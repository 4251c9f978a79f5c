// Vector data distributions across the devices of a multi-GPU system
// (paper, Sec. III-D): a vector is either on one device (single), fully
// copied to every device (copy), or divided into one contiguous part per
// device (block).
//
// The paper assumes identical devices and splits block-distributed
// vectors evenly. On heterogeneous platforms (SKELCL_DEVICES) block
// parts are instead sized proportionally to per-device *weights*; the
// WeightMode selects where the weights come from. Partition math lives
// in detail/partition.h (deterministic largest-remainder); with Even
// weights it reproduces the historical even split bit-for-bit.
#pragma once

namespace skelcl {

enum class Distribution {
  Single, // whole vector on one device (the default before any setting)
  Copy,   // full copy on every device
  Block,  // contiguous, weight-proportional part per device
};

const char* distributionName(Distribution d) noexcept;

/// How block-distribution weights are derived (SKELCL_WEIGHTS).
enum class WeightMode {
  Even,     // equal weights — the paper's even split (default)
  Static,   // DeviceSpec peak compute throughput (CUs x PEs x clock)
  Measured, // observed cycles-per-busy-ns from the live device totals,
            // applied at the next (re)distribution; falls back to Even
            // until every device has executed at least one kernel
};

const char* weightModeName(WeightMode m) noexcept;

} // namespace skelcl
