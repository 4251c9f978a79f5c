// skelcl::Arguments — additional skeleton arguments (paper Sec. III-C).
//
// "SkelCL allows the user to pass an arbitrary number of arguments to the
//  function called inside of a skeleton. [...] The arguments will be
//  passed to the skeleton in the same order in which they are added to
//  the Arguments object."
//
// Scalars, registered structs, and whole Vectors can be pushed. A pushed
// Vector arrives in the kernel as a __global pointer to the portion that
// lives on the executing device (its full copy under the copy
// distribution, its block under the block distribution). pushSizeOf()
// passes that portion's element count as a uint.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "skelcl/vector.h"

namespace skelcl {

class Arguments {
public:
  std::size_t count() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  /// Scalar or registered-struct argument.
  template <typename T>
  void push(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Entry entry;
    entry.typeName = typeName<T>();
    if constexpr (ocl::HostScalar<T>) {
      entry.kind = Kind::Scalar;
      entry.scalarTag = ocl::scalarTag<T>();
      entry.slot = ocl::scalarSlot(value);
    } else {
      entry.kind = Kind::Struct;
      entry.bytes.resize(sizeof(T));
      std::memcpy(entry.bytes.data(), &value, sizeof(T));
    }
    entries_.push_back(std::move(entry));
  }

  /// Vector argument: the kernel sees "__global T* argN".
  template <typename T>
  void push(const Vector<T>& vector) {
    Entry entry;
    entry.kind = Kind::VectorArg;
    entry.typeName = typeName<T>();
    entry.vector = vector.stateHandle();
    entries_.push_back(std::move(entry));
  }

  /// Per-device element count of a previously conceived vector argument:
  /// the kernel sees "uint argN" holding the executing device's portion
  /// size. (With a block distribution the devices' counts differ, so a
  /// plain scalar size would be wrong on all but one device.)
  template <typename T>
  void pushSizeOf(const Vector<T>& vector) {
    Entry entry;
    entry.kind = Kind::VectorSize;
    entry.typeName = "uint";
    entry.vector = vector.stateHandle();
    entries_.push_back(std::move(entry));
  }

  // --- used by the skeleton implementations -------------------------------

  /// True when any entry references a Vector (as pointer or size). Such
  /// argument lists pin a skeleton call to eager evaluation: the call's
  /// result depends on (and may mutate) external state that later host
  /// code is free to change.
  bool hasVectorEntries() const noexcept {
    for (const Entry& e : entries_) {
      if (e.vector != nullptr) {
        return true;
      }
    }
    return false;
  }

  /// ", float a3, __global Event* a4, uint a5" — appended to the
  /// generated kernel's parameter list. `prefix` disambiguates the
  /// argument names of multiple fused stages sharing one kernel.
  std::string declSuffix(const std::string& prefix = "") const {
    std::string out;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out += ", ";
      if (e.kind == Kind::VectorArg) {
        out += "__global " + e.typeName + "* ";
      } else {
        out += e.typeName + " ";
      }
      out += argName(i, prefix);
    }
    return out;
  }

  /// ", a3, a4, a5" — appended to the user-function call.
  std::string callSuffix(const std::string& prefix = "") const {
    std::string out;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += ", " + argName(i, prefix);
    }
    return out;
  }

  /// Uploads every vector argument according to its distribution. Lazy
  /// skeletons still reading an argument vector are forced first: the
  /// upcoming launch may overwrite any __global pointer it is handed, so
  /// deferred readers must snapshot the pre-launch values.
  void prepare() const {
    for (const Entry& e : entries_) {
      if (e.vector != nullptr) {
        e.vector->forceConsumers();
        e.vector->ensureOnDevices();
      }
    }
  }

  /// Appends the ready events of every vector argument's chunk on
  /// `deviceIndex` to `deps` (any vector an ocl::Event converts into), so
  /// a skeleton launch that binds them waits for their uploads without a
  /// finish(). Arguments without data on the device (e.g. index vectors
  /// under other distributions) contribute nothing.
  template <typename Deps>
  void collectDeps(Deps& deps, std::size_t deviceIndex) const {
    for (const Entry& e : entries_) {
      if (e.kind == Kind::VectorArg && e.vector != nullptr) {
        ocl::Event ready = e.vector->readyEventOn(deviceIndex);
        if (ready.valid()) {
          deps.push_back(std::move(ready));
        }
      }
    }
  }

  /// Records `event` as the last writer of every vector argument's chunk
  /// on `deviceIndex`. Conservative: a kernel may write any __global
  /// pointer it was handed, so all vector arguments are treated as
  /// potentially modified — later consumers then order after the launch.
  void recordEvent(const ocl::Event& event, std::size_t deviceIndex) const {
    for (const Entry& e : entries_) {
      if (e.kind == Kind::VectorArg && e.vector != nullptr) {
        e.vector->recordEventOn(deviceIndex, event);
      }
    }
  }

  /// Binds the extra arguments to a kernel for one device's launch.
  void apply(ocl::Kernel& kernel, std::size_t firstIndex,
             std::size_t deviceIndex) const {
    applyValues(kernel, firstIndex);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const std::size_t at = firstIndex + i;
      if (e.kind == Kind::VectorArg) {
        kernel.setArg(at, e.vector->chunkForDevice(deviceIndex).buffer);
      } else if (e.kind == Kind::VectorSize) {
        kernel.setArg(
            at, std::uint32_t(e.vector->chunkForDevice(deviceIndex).count));
      }
    }
  }

  /// Binds the scalar and struct arguments only, leaving every Vector
  /// entry unset: what a host-side run of one work-item over scratch
  /// memory can bind (irregular.cpp's layout forecast).
  void applyValues(ocl::Kernel& kernel, std::size_t firstIndex) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (e.kind == Kind::Scalar) {
        kernel.setScalar(firstIndex + i, e.slot, e.scalarTag);
      } else if (e.kind == Kind::Struct) {
        kernel.setArgBytes(firstIndex + i, e.bytes.data(), e.bytes.size());
      }
    }
  }

private:
  enum class Kind { Scalar, Struct, VectorArg, VectorSize };

  struct Entry {
    Kind kind = Kind::Scalar;
    clc::TypeTag scalarTag = clc::TypeTag::I32; // Scalar: slot's clc type
    std::uint64_t slot = 0;                     // Scalar: canonical value
    std::string typeName;
    std::vector<std::uint8_t> bytes; // Struct: the raw host bytes
    std::shared_ptr<detail::VectorState> vector;
  };

  static std::string argName(std::size_t i, const std::string& prefix = "") {
    return "skelcl_" + prefix + "arg" + std::to_string(i);
  }

  std::vector<Entry> entries_;
};

} // namespace skelcl
