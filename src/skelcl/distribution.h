// Vector data distributions across the devices of a multi-GPU system
// (paper, Sec. III-D): a vector is either on one device (single), fully
// copied to every device (copy), or divided into one contiguous part per
// device (block).
//
// The paper assumes identical devices and splits block-distributed
// vectors evenly. Block parts are sized proportionally to each device's
// peak compute throughput (DeviceSpec::peakCyclesPerNs), so on
// heterogeneous platforms (SKELCL_DEVICES) faster devices get larger
// parts. Partition math lives in detail/partition.h (deterministic
// largest-remainder); equal weights reproduce the even split
// bit-for-bit, so uniform machines keep the paper's split.
#pragma once

namespace skelcl {

enum class Distribution {
  Single, // whole vector on one device (the default before any setting)
  Copy,   // full copy on every device
  Block,  // contiguous, weight-proportional part per device
};

const char* distributionName(Distribution d) noexcept;

} // namespace skelcl
