#include "skelcl/detail/commands.h"

#include <algorithm>
#include <array>

#include "skelcl/detail/runtime.h"
#include "skelcl/detail/skeleton_common.h"
#include "trace/recorder.h"

namespace skelcl::detail {

Command Command::launch(std::size_t device, const char* kernel,
                        std::size_t items, std::size_t wg,
                        std::vector<Operand> args, std::vector<Dep> deps) {
  Command c;
  c.device = device;
  c.kernel = kernel;
  c.items = items;
  c.range = ocl::NDRange1D{roundUp(items, wg), wg};
  c.args = std::move(args);
  c.deps = std::move(deps);
  return c;
}

Executed execute(const CommandList& list, const ocl::Program& program) {
  auto& runtime = Runtime::instance();
  Executed done;
  std::vector<std::uint8_t> host(list.hostBytes);
  std::size_t device = 0; // of the command or allocation under way
  auto allocateBefore = [&](std::size_t command) {
    while (done.scratch.size() < list.slots.size() &&
           list.slots[done.scratch.size()].before <= command) {
      const ScratchSlot& slot = list.slots[done.scratch.size()];
      device = slot.device;
      done.scratch.push_back(runtime.context().createBuffer(
          runtime.devices()[slot.device], slot.bytes));
    }
  };
  auto bufferOf = [&](const Command& c, const Operand& o) {
    return o.kind == Operand::Kind::Output
               ? list.output->chunkForDevice(c.device).buffer
               : done.buffer(o);
  };
  try {
    for (const Command& c : list.commands) {
      allocateBefore(done.events.size());
      device = c.device;
      for (std::size_t w : c.hostWaits) {
        done.events[w].wait();
      }
      std::vector<ocl::Event> deps; // an invalid event is no dependency
      for (const Dep& dep : c.deps) {
        deps.push_back(done.event(dep));
      }
      auto& queue = runtime.queue(c.device);
      ocl::Event event;
      switch (c.kind) {
        case Command::Kind::Launch: {
          ocl::Kernel kernel = program.createKernel(c.kernel);
          std::size_t at = 0;
          for (const Operand& a : c.args) {
            if (a.kind == Operand::Kind::Uint) {
              kernel.setArg(at++, a.value);
            } else if (a.kind == Operand::Kind::Args) {
              a.args->apply(kernel, at, c.device);
              at += a.args->count();
            } else {
              kernel.setArg(at++, bufferOf(c, a));
            }
          }
          event = queue.enqueueNDRange(kernel, c.range, deps);
          for (const Operand& a : c.args) {
            if (c.records && a.kind == Operand::Kind::Output) {
              list.output->recordEventOn(c.device, event);
            } else if (c.records && a.kind == Operand::Kind::Args) {
              a.args->recordEvent(event, c.device);
            }
          }
          break;
        }
        case Command::Kind::Write:
          event = queue.enqueueWriteBuffer(bufferOf(c, c.dst), c.dstOffset,
                                           c.bytes, host.data() + c.srcOffset,
                                           deps);
          break;
        case Command::Kind::Read:
          event = queue.enqueueReadBuffer(bufferOf(c, c.src), c.srcOffset,
                                          c.bytes, host.data() + c.dstOffset,
                                          /*blocking=*/false, deps);
          break;
        case Command::Kind::Copy:
          event = queue.enqueueCopyBuffer(bufferOf(c, c.src), c.srcOffset,
                                          bufferOf(c, c.dst), c.dstOffset,
                                          c.bytes, deps);
          break;
      }
      if (c.counter != nullptr && trace::Recorder::enabled()) {
        trace::Recorder::instance().bumpCounter(c.counter, trace::kNoDevice,
                                                trace::now(), c.bytes);
      }
      done.events.push_back(std::move(event));
    }
    allocateBefore(list.commands.size());
  } catch (ocl::ClError& e) {
    e.prependContext(list.context + " on device " + std::to_string(device));
    throw;
  }
  return done;
}

std::uint64_t replay(const CommandList& list,
                     const std::function<ItemCost(const Command&)>& cost) {
  auto& runtime = Runtime::instance();
  const std::vector<ocl::Device>& devices = runtime.devices();
  std::vector<ocl::TimingModel> models;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    models.emplace_back(devices[d].spec(), runtime.queue(d).backend());
  }
  std::vector<std::array<std::uint64_t, ocl::kEngineCount>> ready(
      devices.size());
  auto engine = [&](std::size_t d, ocl::Engine e) -> std::uint64_t& {
    return ready[d][std::size_t(e)];
  };
  auto deviceOf = [&](const Operand& o) {
    return o.kind == Operand::Kind::Scratch ? list.slots[o.index].device
                                            : o.index;
  };
  std::vector<std::uint64_t> ends;
  std::uint64_t host = 0;
  for (const Command& c : list.commands) {
    for (std::size_t w : c.hostWaits) {
      host = std::max(host, ends[w]);
    }
    std::uint64_t start = host;
    for (const Dep& dep : c.deps) {
      if (dep.command != Dep::kExternal) {
        start = std::max(start, ends[dep.command]);
      }
    }
    const ocl::TimingModel& model = models[c.device];
    // The engines the command occupies (one or two), and for how long.
    std::uint64_t* a = &engine(c.device, ocl::Engine::Compute);
    std::uint64_t* b = a;
    std::uint64_t durationNs = 0;
    if (c.kind == Command::Kind::Launch) {
      const ItemCost item = cost(c);
      durationNs = model.predictKernelNs(c.items, c.range.local, item.cycles,
                                         item.bytes);
    } else if (c.kind != Command::Kind::Copy) {
      a = b = &engine(c.device, c.kind == Command::Kind::Write
                                    ? ocl::Engine::HostToDevice
                                    : ocl::Engine::DeviceToHost);
      durationNs = model.transferDurationNs(c.bytes);
    } else if (const std::size_t src = deviceOf(c.src), dst = deviceOf(c.dst);
               src == dst) {
      a = b = &engine(dst, ocl::Engine::Compute);
      durationNs = models[dst].deviceCopyDurationNs(c.bytes);
    } else {
      a = &engine(src, ocl::Engine::DeviceToHost);
      b = &engine(dst, ocl::Engine::HostToDevice);
      durationNs = ocl::peerCopyDurationNs(devices[src].state(),
                                           devices[dst].state(),
                                           runtime.queue(c.device).backend(),
                                           c.bytes);
    }
    *a = *b = std::max({start, *a, *b}) + durationNs;
    host += model.enqueueOverheadNs();
    ends.push_back(*a);
  }
  return ends.empty() ? 0 : *std::max_element(ends.begin(), ends.end());
}

} // namespace skelcl::detail
