// skeltrace — analyzer for SkelCL trace files (SKELCL_TRACE=<path>).
//
//   skeltrace <trace>                  utilization/overlap report
//   skeltrace --json <trace> [-o out]  convert binary trace to Chrome JSON
//   skeltrace --check <ooo> <ser>      assert the out-of-order trace
//                                      overlaps transfers with compute and
//                                      the serialized one does not
//   skeltrace --check-cluster <trace>  assert the trace shows real
//                                      cross-node traffic and that the
//                                      energy ledger reconciles
//
// Report mode reads the compact binary format (and also accepts a path
// that fails binary parsing only if it was written as binary). --check is
// what the perf-smoke suite runs over bench_ablation_overlap's traces.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "common/byte_stream.h"
#include "common/env.h"
#include "common/error.h"
#include "trace/analysis.h"
#include "trace/chrome_export.h"
#include "trace/serialize.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: skeltrace [--top N] <trace>\n"
      "       skeltrace --json <trace> [-o <out.json>]\n"
      "       skeltrace --check <overlapped.trace> <serialized.trace>\n"
      "       skeltrace --check-cluster <cluster.trace>\n");
  return 2;
}

trace::Trace load(const std::string& path) {
  return trace::readTraceFile(path);
}

int report(const std::string& path, std::size_t topN) {
  const trace::Report r = trace::analyze(load(path));
  std::fputs(trace::formatReport(r, topN).c_str(), stdout);
  return 0;
}

int toJson(const std::string& path, const std::string& out) {
  const std::string json = trace::chromeJson(load(path));
  if (out.empty()) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  common::writeFile(out, std::vector<std::uint8_t>(json.begin(),
                                                   json.end()));
  std::printf("wrote %s (%zu bytes)\n", out.c_str(), json.size());
  return 0;
}

/// The ablation contract: out-of-order queues must hide a real fraction
/// of DMA time behind compute, in-order queues must hide (almost) none,
/// and out-of-order must beat in-order. "Almost" leaves room for
/// interval-merge rounding; genuine in-order traces measure exactly 0.
int check(const std::string& oooPath, const std::string& serPath) {
  const trace::Report ooo = trace::analyze(load(oooPath));
  const trace::Report ser = trace::analyze(load(serPath));
  std::printf("overlap ratio: out-of-order %.4f, serialized %.4f\n",
              ooo.overlapRatio, ser.overlapRatio);
  bool ok = true;
  if (!(ooo.overlapRatio > 0.0)) {
    std::fprintf(stderr,
                 "FAIL: out-of-order trace shows no transfer/compute "
                 "overlap (%s)\n",
                 oooPath.c_str());
    ok = false;
  }
  if (ser.overlapRatio > 0.02) {
    std::fprintf(stderr,
                 "FAIL: serialized trace overlaps %.4f of DMA time; "
                 "expected ~0 (%s)\n",
                 ser.overlapRatio, serPath.c_str());
    ok = false;
  }
  if (!(ooo.overlapRatio > ser.overlapRatio)) {
    std::fprintf(stderr,
                 "FAIL: out-of-order overlap (%.4f) not above "
                 "serialized (%.4f)\n",
                 ooo.overlapRatio, ser.overlapRatio);
    ok = false;
  }
  std::puts(ok ? "CHECK PASSED" : "CHECK FAILED");
  return ok ? 0 : 1;
}

/// The cluster contract, run over bench_cluster's multi-node trace:
///  * the machine really had >= 2 nodes;
///  * cross-node traffic flowed (the analyzer sums it from the
///    copy_node_in commands, so there is no second count to compare);
///  * the energy ledger reconciles: per-node joules sum to the machine
///    total, and an independent recompute from DeviceInfo power envelopes
///    x busy time x DMA bytes lands within 1% of the analyzer's answer.
int checkCluster(const std::string& path) {
  const trace::Trace t = load(path);
  const trace::Report r = trace::analyze(t);
  bool ok = true;

  if (r.nodes.size() < 2) {
    std::fprintf(stderr, "FAIL: trace spans %zu node(s); expected >= 2\n",
                 r.nodes.size());
    ok = false;
  }

  if (r.internodeBytes == 0) {
    std::fprintf(stderr, "FAIL: no cross-node traffic recorded\n");
    ok = false;
  }

  double nodeSumJ = 0.0;
  for (const trace::NodeReport& n : r.nodes) {
    nodeSumJ += n.energyJ;
  }
  // Devices that never ran a command carry no energy in the report;
  // recompute over the active set only, on the same whole-span idle
  // basis the analyzer documents.
  double recomputedNj = 0.0;
  for (const trace::DeviceReport& d : r.devices) {
    for (const trace::DeviceInfo& info : t.devices) {
      if (info.index == d.device) {
        recomputedNj +=
            info.idlePowerW * double(r.spanNs) +
            (info.busyPowerW - info.idlePowerW) *
                double(d.engines[0].busyNs) +
            info.transferNjPerByte * double(d.dmaBytes);
      }
    }
  }
  const double recomputedJ = recomputedNj * 1e-9;
  if (!(r.totalEnergyJ > 0.0)) {
    std::fprintf(stderr, "FAIL: trace carries no energy data\n");
    ok = false;
  } else {
    if (std::abs(nodeSumJ - r.totalEnergyJ) > 0.01 * r.totalEnergyJ) {
      std::fprintf(stderr,
                   "FAIL: per-node energy (%.3f J) does not sum to the "
                   "machine total (%.3f J)\n",
                   nodeSumJ, r.totalEnergyJ);
      ok = false;
    }
    if (std::abs(recomputedJ - r.totalEnergyJ) > 0.01 * r.totalEnergyJ) {
      std::fprintf(stderr,
                   "FAIL: independent energy recompute (%.3f J) is more "
                   "than 1%% from the analyzer total (%.3f J)\n",
                   recomputedJ, r.totalEnergyJ);
      ok = false;
    }
  }

  std::printf("nodes %zu  internode bytes %llu  energy %.3f J  "
              "perf-per-watt %.3e cycles/J\n",
              r.nodes.size(), (unsigned long long)r.internodeBytes,
              r.totalEnergyJ, r.perfPerWatt);
  std::puts(ok ? "CHECK PASSED" : "CHECK FAILED");
  return ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  std::string mode = "report";
  std::string out;
  std::size_t topN = 10;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      mode = "json";
    } else if (arg == "--check") {
      mode = "check";
    } else if (arg == "--check-cluster") {
      mode = "check-cluster";
    } else if (arg == "-o" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--top" && i + 1 < argc) {
      const std::optional<std::size_t> n =
          common::parseCount<std::size_t>(argv[++i]);
      if (!n) {
        return usage();
      }
      topN = *n;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "skeltrace: unknown option %s\n", arg.c_str());
      return usage();
    } else {
      paths.push_back(arg);
    }
  }

  try {
    if (mode == "check") {
      if (paths.size() != 2) {
        return usage();
      }
      return check(paths[0], paths[1]);
    }
    if (paths.size() != 1) {
      return usage();
    }
    if (mode == "check-cluster") {
      return checkCluster(paths[0]);
    }
    if (mode == "json") {
      return toJson(paths[0], out);
    }
    return report(paths[0], topN);
  } catch (const common::Error& e) {
    std::fprintf(stderr, "skeltrace: %s\n", e.what());
    return 1;
  }
}
