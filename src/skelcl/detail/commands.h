// One command list per skeleton call. Every evaluator (detail/expr.cpp,
// detail/irregular.cpp) and the copy -> block combine (vector_state.cpp)
// describes its device work as a CommandList: kernel launches, host <->
// device transfers and on-device or peer copies, each waiting for
// earlier commands of the list by index or for events from outside it (a
// chunk's ready event, an upload piece). Building a list touches no
// device: it allocates nothing, creates no kernel and names its buffers
// symbolically (a vector's chunk on a device, the call's output chunk, a
// scratch slot). execute() is the one place a skeleton call enqueues;
// replay() forecasts a list instead (irregular.cpp's layout choice).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ocl/ocl.h"
#include "skelcl/arguments.h"

namespace skelcl::detail {

/// What a command waits for: command `command` of its list, or `event`
/// from outside it (an invalid event is no dependency).
struct Dep {
  static constexpr std::size_t kExternal =
      std::numeric_limits<std::size_t>::max();
  Dep() = default;
  Dep(ocl::Event e) : event(std::move(e)) {} // NOLINT(google-explicit-*)
  static Dep on(std::size_t index) {
    Dep dep;
    dep.command = index;
    return dep;
  }
  std::size_t command = kExternal;
  ocl::Event event;
};

/// A launch argument, or a transfer's device side.
struct Operand {
  enum class Kind : std::uint8_t {
    Chunk,   // `vector`'s chunk on device `index`
    Output,  // the list's output chunk on the command's device
    Scratch, // scratch slot `index`
    Uint,    // `value`
    Args,    // `args`, bound for the command's device
  };
  static Operand chunk(const VectorState& v, std::size_t device) {
    return {Kind::Chunk, 0, device, &v};
  }
  static Operand output() { return {Kind::Output}; }
  static Operand scratch(std::size_t slot) { return {Kind::Scratch, 0, slot}; }
  static Operand uint(std::size_t value) {
    return {Kind::Uint, std::uint32_t(value)};
  }
  static Operand arguments(const Arguments& args) {
    return {Kind::Args, 0, 0, nullptr, &args};
  }

  Kind kind = Kind::Uint;
  std::uint32_t value = 0;
  std::size_t index = 0;
  const VectorState* vector = nullptr;
  const Arguments* args = nullptr;
};

struct Command {
  enum class Kind : std::uint8_t {
    Launch, // `kernel` over `range`
    Write,  // host staging at `srcOffset` -> `dst`
    Read,   // `src` -> host staging at `dstOffset`
    Copy,   // `src` -> `dst` (chunks or scratch), on-device or peer
  };

  /// A launch of `items` work-items in groups of `wg`.
  static Command launch(std::size_t device, const char* kernel,
                        std::size_t items, std::size_t wg,
                        std::vector<Operand> args, std::vector<Dep> deps);

  Kind kind = Kind::Launch;
  std::size_t device = 0; // whose queue issues it
  std::vector<Dep> deps{};
  /// The host blocks until these commands end before issuing this one.
  std::vector<std::size_t> hostWaits{};

  const char* kernel = nullptr;
  ocl::NDRange1D range{};
  std::size_t items = 0; // work-items a replay bills
  std::vector<Operand> args{};
  /// The launch's event becomes the ready event of the output chunk and
  /// of the vector arguments it binds.
  bool records = false;

  Operand src{}, dst{}; // a host side's operand is unused
  std::size_t srcOffset = 0, dstOffset = 0, bytes = 0; // in bytes
  const char* counter = nullptr; // trace counter the bytes are added to
};

/// A buffer of `bytes` on `device` that the list allocates just before
/// issuing command `before` (the order the evaluators always allocated
/// in, so an `alloc@N` fault plan fires where it did).
struct ScratchSlot {
  std::size_t device, bytes, before;
};

struct CommandList {
  CommandList(std::string context = {}, VectorState* output = nullptr)
      : context(std::move(context)), output(output) {}

  /// Declares a scratch slot allocated right before the next command.
  std::size_t scratch(std::size_t device, std::size_t bytes) {
    slots.push_back({device, bytes, commands.size()});
    return slots.size() - 1;
  }
  /// Appends `c` and returns its index.
  std::size_t push(Command c) {
    c.hostWaits = std::exchange(waits, {});
    commands.push_back(std::move(c));
    return commands.size() - 1;
  }

  /// Errors read "<context> on device N: ...", e.g. "Map skeleton".
  std::string context;
  VectorState* output = nullptr;
  std::vector<Command> commands;
  std::vector<ScratchSlot> slots;
  std::size_t hostBytes = 0;      // host staging of Read and Write
  std::vector<std::size_t> waits; // hostWaits of the next command pushed
};

/// When a list's input is on a device: the chunk's ready event when the
/// list runs, the staging command before it in a forecast.
using ReadyOf = std::function<Dep(const VectorState&, std::size_t device)>;

inline Dep chunkReady(const VectorState& v, std::size_t device) {
  return v.readyEventOn(device);
}

/// What an executed list leaves: its scratch buffers and command events.
struct Executed {
  std::vector<ocl::Buffer> scratch;
  std::vector<ocl::Event> events;

  ocl::Event event(const Dep& dep) const {
    return dep.command == Dep::kExternal ? dep.event : events[dep.command];
  }
  /// A Chunk or Scratch operand's buffer.
  ocl::Buffer buffer(const Operand& o) const {
    return o.kind == Operand::Kind::Scratch
               ? scratch[o.index]
               : o.vector->chunkForDevice(o.index).buffer;
  }
};

/// Enqueues `list` in order, its launches from `program`, and keeps the
/// ready events its launches record. A ClError of any command or scratch
/// allocation gets the list's one context, "<context> on device N".
Executed execute(const CommandList& list, const ocl::Program& program);

/// What one work-item of a launch is billed: VM cycles and global bytes.
struct ItemCost {
  double cycles = 0;
  double bytes = 0;
};

/// When `list` would finish on scratch timelines that start idle, with
/// CommandQueue::submit's rule minus the schedule jitter: the host pays
/// one enqueue overhead per command in issue order, and a command starts
/// once issued, once its engines are free and once its dependencies in
/// the list ended (events from outside it count as done). A launch's
/// work-items are billed `cost(launch)` each. Starting idle, a forecast
/// is the same under every schedule and mode.
std::uint64_t replay(const CommandList& list,
                     const std::function<ItemCost(const Command&)>& cost);

} // namespace skelcl::detail
