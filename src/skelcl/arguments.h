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
    if constexpr (std::is_arithmetic_v<T>) {
      entry.kind = Kind::Scalar;
      entry.scalarTag = scalarTagFor<T>();
      entry.bytes.resize(sizeof(T));
      std::memcpy(entry.bytes.data(), &value, sizeof(T));
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
  /// `deviceIndex` to `deps`, so a skeleton launch that binds them waits
  /// for their uploads without a finish(). Arguments without data on the
  /// device (e.g. index vectors under other distributions) contribute
  /// nothing.
  void collectDeps(std::vector<ocl::Event>& deps,
                   std::size_t deviceIndex) const {
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
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const std::size_t at = firstIndex + i;
      switch (e.kind) {
        case Kind::Scalar:
          applyScalar(kernel, at, e);
          break;
        case Kind::Struct:
          kernel.setArgBytes(at, e.bytes.data(), e.bytes.size());
          break;
        case Kind::VectorArg:
          kernel.setArg(at, bufferCast(e, deviceIndex));
          break;
        case Kind::VectorSize:
          kernel.setArg(
              at, std::uint32_t(e.vector->chunkForDevice(deviceIndex).count));
          break;
      }
    }
  }

private:
  enum class Kind { Scalar, Struct, VectorArg, VectorSize };
  enum class ScalarTag { F32, F64, I32, U32, I64, U64 };

  struct Entry {
    Kind kind = Kind::Scalar;
    ScalarTag scalarTag = ScalarTag::I32;
    std::string typeName;
    std::vector<std::uint8_t> bytes;
    std::shared_ptr<detail::VectorState> vector;
  };

  static std::string argName(std::size_t i, const std::string& prefix = "") {
    return "skelcl_" + prefix + "arg" + std::to_string(i);
  }

  template <typename T>
  static ScalarTag scalarTagFor() {
    if constexpr (std::is_same_v<T, float>) return ScalarTag::F32;
    else if constexpr (std::is_same_v<T, double>) return ScalarTag::F64;
    else if constexpr (std::is_signed_v<T> && sizeof(T) <= 4) return ScalarTag::I32;
    else if constexpr (!std::is_signed_v<T> && sizeof(T) <= 4) return ScalarTag::U32;
    else if constexpr (std::is_signed_v<T>) return ScalarTag::I64;
    else return ScalarTag::U64;
  }

  static ocl::Buffer bufferCast(const Entry& e, std::size_t deviceIndex) {
    return e.vector->chunkForDevice(deviceIndex).buffer;
  }

  static void applyScalar(ocl::Kernel& kernel, std::size_t at,
                          const Entry& e) {
    switch (e.scalarTag) {
      case ScalarTag::F32: {
        float v;
        std::memcpy(&v, e.bytes.data(), 4);
        kernel.setArg(at, v);
        break;
      }
      case ScalarTag::F64: {
        double v;
        std::memcpy(&v, e.bytes.data(), 8);
        kernel.setArg(at, v);
        break;
      }
      case ScalarTag::I32: {
        std::int32_t v = 0;
        std::memcpy(&v, e.bytes.data(), std::min<std::size_t>(4, e.bytes.size()));
        if (e.bytes.size() == 1) v = std::int8_t(e.bytes[0]);
        if (e.bytes.size() == 2) {
          std::int16_t s;
          std::memcpy(&s, e.bytes.data(), 2);
          v = s;
        }
        kernel.setArg(at, v);
        break;
      }
      case ScalarTag::U32: {
        std::uint32_t v = 0;
        std::memcpy(&v, e.bytes.data(), std::min<std::size_t>(4, e.bytes.size()));
        kernel.setArg(at, v);
        break;
      }
      case ScalarTag::I64: {
        std::int64_t v;
        std::memcpy(&v, e.bytes.data(), 8);
        kernel.setArg(at, v);
        break;
      }
      case ScalarTag::U64: {
        std::uint64_t v;
        std::memcpy(&v, e.bytes.data(), 8);
        kernel.setArg(at, v);
        break;
      }
    }
  }

  std::vector<Entry> entries_;
};

} // namespace skelcl
