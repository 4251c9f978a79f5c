#include "trace/analysis.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <unordered_map>

namespace trace {

namespace {

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// Sorts and merges touching/overlapping intervals in place.
std::vector<Interval> merged(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> out;
  for (const Interval& i : intervals) {
    if (i.second <= i.first) {
      continue; // zero-length command (e.g. empty transfer)
    }
    if (!out.empty() && i.first <= out.back().second) {
      out.back().second = std::max(out.back().second, i.second);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

std::uint64_t totalLength(const std::vector<Interval>& intervals) {
  std::uint64_t total = 0;
  for (const Interval& i : intervals) {
    total += i.second - i.first;
  }
  return total;
}

/// Length of the intersection of two merged interval lists.
std::uint64_t intersectionLength(const std::vector<Interval>& a,
                                 const std::vector<Interval>& b) {
  std::uint64_t total = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const std::uint64_t lo = std::max(a[i].first, b[j].first);
    const std::uint64_t hi = std::min(a[i].second, b[j].second);
    if (lo < hi) {
      total += hi - lo;
    }
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

std::string percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%5.1f%%", fraction * 100.0);
  return buf;
}

std::string msString(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%10.3f ms", double(ns) * 1e-6);
  return buf;
}

} // namespace

Report analyze(const Trace& trace) {
  Report report;

  // --- per-device engine occupancy --------------------------------------
  struct DeviceAccum {
    std::vector<Interval> engines[kEngineCount];
    std::uint64_t commands[kEngineCount] = {0, 0, 0};
    std::uint64_t minStart = ~0ull;
    std::uint64_t maxEnd = 0;
    std::uint64_t dmaBytes = 0;
    std::uint64_t kernelCycles = 0;
  };
  std::map<std::uint32_t, DeviceAccum> perDevice;
  std::uint64_t traceMin = ~0ull, traceMax = 0;

  for (const CommandRecord& c : trace.commands) {
    DeviceAccum& acc = perDevice[c.device];
    const std::uint8_t e = c.engine;
    acc.engines[e].emplace_back(c.startNs, c.endNs);
    ++acc.commands[e];
    if (e == 1) {
      report.h2dBytes += c.bytes;
    } else if (e == 2) {
      report.d2hBytes += c.bytes;
    }
    if (e != 0) {
      acc.dmaBytes += c.bytes;
    }
    if (c.kind == CommandKind::Kernel) {
      acc.kernelCycles += c.cycles;
    }
    // The inbound leg of a cross-node copy is its interconnect traffic.
    if (c.kind == CommandKind::CopyPeer &&
        trace.str(c.name) == "copy_node_in") {
      report.internodeBytes += c.bytes;
    }
    acc.minStart = std::min(acc.minStart, c.startNs);
    acc.maxEnd = std::max(acc.maxEnd, c.endNs);
    traceMin = std::min(traceMin, c.startNs);
    traceMax = std::max(traceMax, c.endNs);
  }
  report.spanNs = traceMax > traceMin ? traceMax - traceMin : 0;

  std::unordered_map<std::uint32_t, const DeviceInfo*> deviceInfos;
  for (const DeviceInfo& d : trace.devices) {
    deviceInfos[d.index] = &d;
  }

  std::uint64_t dmaBusyTotal = 0, overlapTotal = 0;
  for (auto& [index, acc] : perDevice) {
    DeviceReport dev;
    dev.device = index;
    auto named = deviceInfos.find(index);
    const DeviceInfo* info =
        named != deviceInfos.end() ? named->second : nullptr;
    dev.name = info != nullptr ? info->name
                               : "device " + std::to_string(index);
    dev.node = info != nullptr ? info->node : 0;
    dev.dmaBytes = acc.dmaBytes;
    dev.kernelCycles = acc.kernelCycles;
    dev.spanNs = acc.maxEnd - acc.minStart;

    std::vector<Interval> engineMerged[kEngineCount];
    for (std::uint8_t e = 0; e < kEngineCount; ++e) {
      engineMerged[e] = merged(std::move(acc.engines[e]));
      dev.engines[e].busyNs = totalLength(engineMerged[e]);
      dev.engines[e].commands = acc.commands[e];
      dev.engines[e].busyFraction =
          dev.spanNs == 0 ? 0.0
                          : double(dev.engines[e].busyNs) / double(dev.spanNs);
    }
    std::vector<Interval> dma = engineMerged[1];
    dma.insert(dma.end(), engineMerged[2].begin(), engineMerged[2].end());
    dma = merged(std::move(dma));
    dev.dmaBusyNs = totalLength(dma);
    dev.overlapNs = intersectionLength(dma, engineMerged[0]);
    dev.overlapRatio =
        dev.dmaBusyNs == 0 ? 0.0
                           : double(dev.overlapNs) / double(dev.dmaBusyNs);
    if (info != nullptr) {
      // 1 W = 1 nJ/ns, so watts x virtual ns is nanojoules. The device
      // draws idle power for the whole makespan (it is part of the
      // machine whether or not this trace kept it busy), the busy-idle
      // delta while its compute engine works, and the DMA energy per
      // byte it moved.
      const double energyNj =
          info->idlePowerW * double(report.spanNs) +
          (info->busyPowerW - info->idlePowerW) *
              double(dev.engines[0].busyNs) +
          info->transferNjPerByte * double(dev.dmaBytes);
      dev.energyJ = energyNj * 1e-9;
      dev.perfPerWatt =
          dev.energyJ > 0.0 ? double(dev.kernelCycles) / dev.energyJ : 0.0;
    }
    dmaBusyTotal += dev.dmaBusyNs;
    overlapTotal += dev.overlapNs;
    report.devices.push_back(std::move(dev));
  }
  report.overlapRatio =
      dmaBusyTotal == 0 ? 0.0 : double(overlapTotal) / double(dmaBusyTotal);

  // --- per-node energy/work rollups --------------------------------------
  {
    std::map<std::uint32_t, NodeReport> nodes;
    for (const DeviceReport& d : report.devices) {
      NodeReport& node = nodes[d.node];
      node.node = d.node;
      ++node.devices;
      node.computeBusyNs += d.engines[0].busyNs;
      node.kernelCycles += d.kernelCycles;
      node.energyJ += d.energyJ;
    }
    for (auto& [index, node] : nodes) {
      node.perfPerWatt = node.energyJ > 0.0
                             ? double(node.kernelCycles) / node.energyJ
                             : 0.0;
      report.totalEnergyJ += node.energyJ;
      report.kernelCycles += node.kernelCycles;
      report.nodes.push_back(node);
    }
    report.perfPerWatt = report.totalEnergyJ > 0.0
                             ? double(report.kernelCycles) /
                                   report.totalEnergyJ
                             : 0.0;
  }

  // --- compute load balance ----------------------------------------------
  std::uint64_t computeTotal = 0, computeMax = 0;
  for (const DeviceReport& d : report.devices) {
    computeTotal += d.engines[0].busyNs;
    computeMax = std::max(computeMax, d.engines[0].busyNs);
  }
  for (DeviceReport& d : report.devices) {
    d.loadShare = computeTotal == 0
                      ? 0.0
                      : double(d.engines[0].busyNs) / double(computeTotal);
  }
  if (computeTotal > 0 && !report.devices.empty()) {
    const double mean =
        double(computeTotal) / double(report.devices.size());
    report.computeImbalance = double(computeMax) / mean - 1.0;
  }

  // --- top kernels -------------------------------------------------------
  std::map<std::string, KernelReport> kernels;
  for (const CommandRecord& c : trace.commands) {
    if (c.kind != CommandKind::Kernel) {
      continue;
    }
    KernelReport& k = kernels[trace.str(c.name)];
    k.name = trace.str(c.name);
    ++k.launches;
    ++report.kernelLaunches;
    k.totalNs += c.endNs - c.startNs;
    k.cycles += c.cycles;
  }
  for (auto& [name, k] : kernels) {
    report.kernels.push_back(std::move(k));
  }
  std::sort(report.kernels.begin(), report.kernels.end(),
            [](const KernelReport& a, const KernelReport& b) {
              return a.totalNs != b.totalNs ? a.totalNs > b.totalNs
                                            : a.name < b.name;
            });

  // --- critical path through the dependency DAG -------------------------
  // Predecessors: recorded event deps plus the implicit FIFO predecessor
  // on the command's engine. Commands are processed in ascending id
  // order; every dependency id is smaller than its dependent's.
  std::vector<const CommandRecord*> byId;
  byId.reserve(trace.commands.size());
  for (const CommandRecord& c : trace.commands) {
    byId.push_back(&c);
  }
  std::sort(byId.begin(), byId.end(),
            [](const CommandRecord* a, const CommandRecord* b) {
              return a->id < b->id;
            });
  std::unordered_map<std::uint64_t, std::uint64_t> pathById;
  std::map<std::pair<std::uint32_t, std::uint8_t>, std::uint64_t> engineTail;
  for (const CommandRecord* c : byId) {
    std::uint64_t longestPred = 0;
    for (std::uint64_t dep : c->deps) {
      auto it = pathById.find(dep);
      if (it != pathById.end()) {
        longestPred = std::max(longestPred, it->second);
      }
    }
    auto& tail = engineTail[{c->device, c->engine}];
    longestPred = std::max(longestPred, tail);
    const std::uint64_t path = longestPred + (c->endNs - c->startNs);
    pathById[c->id] = path;
    tail = std::max(tail, path);
    report.criticalPathNs = std::max(report.criticalPathNs, path);
  }

  // --- counters & host spans --------------------------------------------
  // Counters are cumulative; the final sample per (name, device) is the
  // total. Totals are summed across devices.
  std::map<std::pair<std::string, std::uint32_t>, std::uint64_t> finals;
  for (const CounterRecord& c : trace.counters) {
    finals[{trace.str(c.name), c.device}] = c.value;
  }
  std::map<std::string, TenantReport> tenants;
  std::map<std::string, std::vector<Interval>> tenantJobs;
  for (const auto& [key, value] : finals) {
    // "tenant.<name>.cycles" / "tenant.<name>.bytes" — per-tenant job
    // service accounting.
    if (key.first.rfind("tenant.", 0) == 0) {
      const std::string rest = key.first.substr(7);
      const std::size_t dot = rest.rfind('.');
      if (dot != std::string::npos) {
        const std::string name = rest.substr(0, dot);
        const std::string metric = rest.substr(dot + 1);
        if (metric == "cycles") {
          tenants[name].deviceCycles += value;
        } else if (metric == "bytes") {
          tenants[name].bytesMoved += value;
        }
      }
      continue;
    }
    if (key.first == "intermediate_bytes") {
      report.intermediateBytes += value;
    } else if (key.first == "halo_bytes") {
      report.haloBytes += value;
    }
  }
  for (const HostSpanRecord& h : trace.hostSpans) {
    if (h.kind == HostKind::Skeleton) {
      ++report.skeletonSpans;
    } else if (h.kind == HostKind::CacheHit) {
      ++report.cacheHits;
    } else if (h.kind == HostKind::Build) {
      ++report.cacheMisses;
    } else if (h.kind == HostKind::Scheduler) {
      ++report.schedulerJobs;
      report.schedQueueWaitNs += h.value;
      report.maxConcurrentJobs =
          std::max<std::uint64_t>(report.maxConcurrentJobs, h.lane);
    } else if (h.kind == HostKind::TenantJob) {
      report.maxConcurrentJobs =
          std::max<std::uint64_t>(report.maxConcurrentJobs, h.lane);
      TenantReport& tenant = tenants[trace.str(h.name)];
      ++tenant.jobs;
      tenantJobs[trace.str(h.name)].emplace_back(h.startNs, h.endNs);
      tenant.queueWaitNs += h.value;
    } else if (h.kind == HostKind::Decision) {
      ++report.decisions[trace.str(h.name)];
    }
  }
  for (auto& [name, tenant] : tenants) {
    tenant.name = name;
    tenant.execNs = totalLength(merged(std::move(tenantJobs[name])));
    report.tenants.push_back(std::move(tenant));
  }
  return report;
}

std::string formatReport(const Report& report, std::size_t topN) {
  std::string out;
  char line[256];

  out += "trace span: " + msString(report.spanNs) +
         "   critical path: " + msString(report.criticalPathNs);
  if (report.spanNs != 0) {
    out += " (" +
           percent(double(report.criticalPathNs) / double(report.spanNs)) +
           " of span)";
  }
  out += "\n";
  std::snprintf(line, sizeof(line),
                "h2d: %llu bytes   d2h: %llu bytes   kernel cycles: %llu   "
                "cache hits/misses: %llu/%llu   skeleton spans: %llu\n",
                (unsigned long long)report.h2dBytes,
                (unsigned long long)report.d2hBytes,
                (unsigned long long)report.kernelCycles,
                (unsigned long long)report.cacheHits,
                (unsigned long long)report.cacheMisses,
                (unsigned long long)report.skeletonSpans);
  out += line;
  std::snprintf(line, sizeof(line),
                "kernel launches: %llu   intermediate bytes: %llu   "
                "halo bytes: %llu\n",
                (unsigned long long)report.kernelLaunches,
                (unsigned long long)report.intermediateBytes,
                (unsigned long long)report.haloBytes);
  out += line;
  if (report.schedulerJobs > 0) {
    std::snprintf(line, sizeof(line),
                  "scheduler: %llu async job(s)   queue wait: %.3f ms   "
                  "max concurrent jobs: %llu\n",
                  (unsigned long long)report.schedulerJobs,
                  double(report.schedQueueWaitNs) * 1e-6,
                  (unsigned long long)report.maxConcurrentJobs);
    out += line;
  }

  if (!report.decisions.empty()) {
    out += "\ndecisions:\n";
    for (const auto& [name, count] : report.decisions) {
      out += "  " + std::to_string(count) + "x " + name + "\n";
    }
  }

  if (!report.tenants.empty()) {
    out += "\ntenants (job service)   max concurrent jobs: " +
           std::to_string(report.maxConcurrentJobs) + "\n";
    std::snprintf(line, sizeof(line), "%-16s %6s %12s %14s %14s %12s\n",
                  "tenant", "jobs", "exec ms", "queue wait ms", "cycles",
                  "bytes");
    out += line;
    for (const TenantReport& t : report.tenants) {
      std::snprintf(line, sizeof(line),
                    "%-16.16s %6llu %12.3f %14.3f %14llu %12llu\n",
                    t.name.c_str(), (unsigned long long)t.jobs,
                    double(t.execNs) * 1e-6, double(t.queueWaitNs) * 1e-6,
                    (unsigned long long)t.deviceCycles,
                    (unsigned long long)t.bytesMoved);
      out += line;
    }
  }

  out += "\nper-device engine utilization (busy% of device span)\n";
  std::snprintf(line, sizeof(line),
                "%-4s %-28s %13s %13s %13s %9s %7s %8s %10s\n", "node",
                "device", "compute", "h2d dma", "d2h dma", "overlap",
                "load", "span ms", "joules");
  out += line;
  for (const DeviceReport& d : report.devices) {
    std::snprintf(
        line, sizeof(line),
        "n%-3u %-28.28s %6s (%4llu) %6s (%4llu) %6s (%4llu) %8s %7s "
        "%8.3f %10.3f\n",
        d.node, (std::to_string(d.device) + ": " + d.name).c_str(),
        percent(d.engines[0].busyFraction).c_str(),
        (unsigned long long)d.engines[0].commands,
        percent(d.engines[1].busyFraction).c_str(),
        (unsigned long long)d.engines[1].commands,
        percent(d.engines[2].busyFraction).c_str(),
        (unsigned long long)d.engines[2].commands,
        percent(d.overlapRatio).c_str(), percent(d.loadShare).c_str(),
        double(d.spanNs) * 1e-6, d.energyJ);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "aggregate transfer/compute overlap ratio: %.3f   "
                "compute load imbalance: %.1f%%\n",
                report.overlapRatio, report.computeImbalance * 100.0);
  out += line;

  if (report.totalEnergyJ > 0.0) {
    out += "\nper-node energy (idle x span + (busy-idle) x compute busy "
           "+ nJ/byte x DMA bytes)\n";
    std::snprintf(line, sizeof(line), "%-4s %7s %14s %12s %10s %16s\n",
                  "node", "devices", "compute ms", "joules", "watts",
                  "cycles/joule");
    out += line;
    for (const NodeReport& n : report.nodes) {
      const double watts = report.spanNs > 0
                               ? n.energyJ / (double(report.spanNs) * 1e-9)
                               : 0.0;
      std::snprintf(line, sizeof(line),
                    "n%-3u %7u %14.3f %12.3f %10.1f %16.3e\n", n.node,
                    n.devices, double(n.computeBusyNs) * 1e-6, n.energyJ,
                    watts, n.perfPerWatt);
      out += line;
    }
    std::snprintf(line, sizeof(line),
                  "total energy: %.3f J   perf-per-watt: %.3e cycles/J   "
                  "cross-node traffic: %llu bytes\n",
                  report.totalEnergyJ, report.perfPerWatt,
                  (unsigned long long)report.internodeBytes);
    out += line;
  }

  out += "\ntop kernels (by engine time)\n";
  std::size_t shown = 0;
  for (const KernelReport& k : report.kernels) {
    if (shown++ == topN) {
      break;
    }
    std::snprintf(line, sizeof(line), "%-32.32s %6llu launches %s %14llu cycles\n",
                  k.name.c_str(), (unsigned long long)k.launches,
                  msString(k.totalNs).c_str(), (unsigned long long)k.cycles);
    out += line;
  }
  if (report.kernels.empty()) {
    out += "(no kernel launches)\n";
  }
  return out;
}

} // namespace trace
