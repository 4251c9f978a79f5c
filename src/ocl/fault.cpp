#include "ocl/fault.h"

#include <cctype>
#include <cstdlib>

#include "common/env.h"

namespace ocl {

const char* faultSiteName(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::Alloc: return "alloc";
    case FaultSite::Build: return "build";
    case FaultSite::Write: return "write";
    case FaultSite::Read: return "read";
    case FaultSite::Copy: return "copy";
    case FaultSite::Kernel: return "kernel";
  }
  return "?";
}

const char* statusName(Status status) noexcept {
  switch (status) {
    case Status::DeviceNotAvailable: return "CL_DEVICE_NOT_AVAILABLE";
    case Status::MemObjectAllocationFailure:
      return "CL_MEM_OBJECT_ALLOCATION_FAILURE";
    case Status::OutOfResources: return "CL_OUT_OF_RESOURCES";
    case Status::BuildProgramFailure: return "CL_BUILD_PROGRAM_FAILURE";
  }
  return "?";
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::Rule FaultInjector::parseRule(const std::string& text) {
  Rule rule;
  std::string body = text;

  const std::size_t eq = body.find('=');
  if (eq != std::string::npos) {
    const std::string effect = body.substr(eq + 1);
    if (effect != "lost") {
      throw common::InvalidArgument("fault plan: unknown effect '=" + effect +
                                    "' in rule '" + text + "'");
    }
    rule.lost = true;
    body = body.substr(0, eq);
  }

  const std::size_t at = body.find('@');
  if (at == std::string::npos) {
    throw common::InvalidArgument(
        "fault plan: rule '" + text + "' has no '@trigger' part");
  }
  const std::string trigger = body.substr(at + 1);
  std::string site = body.substr(0, at);

  const std::size_t tilde = site.find('~');
  if (tilde != std::string::npos) {
    rule.pattern = site.substr(tilde + 1);
    site = site.substr(0, tilde);
  }

  auto one = [&rule](FaultSite s) { rule.sites[std::size_t(s)] = true; };
  if (site == "alloc") {
    one(FaultSite::Alloc);
  } else if (site == "build") {
    one(FaultSite::Build);
  } else if (site == "write") {
    one(FaultSite::Write);
  } else if (site == "read") {
    one(FaultSite::Read);
  } else if (site == "copy") {
    one(FaultSite::Copy);
  } else if (site == "kernel") {
    one(FaultSite::Kernel);
  } else if (site == "transfer") {
    one(FaultSite::Write);
    one(FaultSite::Read);
    one(FaultSite::Copy);
  } else if (site == "enqueue") {
    one(FaultSite::Write);
    one(FaultSite::Read);
    one(FaultSite::Copy);
    one(FaultSite::Kernel);
  } else if (site == "any") {
    for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
      rule.sites[i] = true;
    }
  } else {
    throw common::InvalidArgument("fault plan: unknown site '" + site +
                                  "' in rule '" + text + "'");
  }

  if (trigger == "*") {
    rule.always = true;
  } else if (!trigger.empty() && trigger[0] == 'p') {
    char* end = nullptr;
    const std::string value = trigger.substr(1);
    const double p = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
      throw common::InvalidArgument(
          "fault plan: bad probability trigger '" + trigger + "' in rule '" +
          text + "' (expected p0..p1)");
    }
    rule.probability = p;
  } else {
    char* end = nullptr;
    const long long n = std::strtoll(trigger.c_str(), &end, 10);
    if (end == trigger.c_str() || *end != '\0' || n <= 0) {
      throw common::InvalidArgument(
          "fault plan: bad trigger '" + trigger + "' in rule '" + text +
          "' (expected a 1-based call index, pP, or *)");
    }
    rule.nthCall = std::uint64_t(n);
  }
  return rule;
}

void FaultInjector::configure(const std::string& plan, std::uint64_t seed) {
  std::vector<Rule> rules;
  std::size_t pos = 0;
  while (pos <= plan.size()) {
    std::size_t comma = plan.find(',', pos);
    if (comma == std::string::npos) {
      comma = plan.size();
    }
    // Trim surrounding whitespace of the rule.
    std::size_t begin = pos;
    std::size_t end = comma;
    while (begin < end && std::isspace(static_cast<unsigned char>(plan[begin]))) {
      ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(plan[end - 1]))) {
      --end;
    }
    if (end > begin) {
      rules.push_back(parseRule(plan.substr(begin, end - begin)));
    }
    pos = comma + 1;
  }

  std::lock_guard lock(mutex_);
  rules_ = std::move(rules);
  rng_ = common::Xoshiro256(seed);
  for (auto& count : calls_) {
    count = 0;
  }
  fired_.clear();
  armed_.store(!rules_.empty(), std::memory_order_relaxed);
}

void FaultInjector::configureFromEnv() {
  const std::string plan = common::envStr("SKELCL_FAULT_PLAN");
  if (plan.empty()) {
    return;
  }
  configure(plan);
}

void FaultInjector::reset() { configure("", 0); }

std::optional<Fault> FaultInjector::check(FaultSite site,
                                          std::string_view label,
                                          std::uint32_t device) {
  if (!enabled()) {
    return std::nullopt;
  }
  std::lock_guard lock(mutex_);
  const std::uint64_t call = ++calls_[std::size_t(site)];
  for (Rule& rule : rules_) {
    if (!rule.sites[std::size_t(site)]) {
      continue;
    }
    if (!rule.pattern.empty() &&
        label.find(rule.pattern) == std::string_view::npos) {
      continue;
    }
    const std::uint64_t matched = ++rule.matched;
    bool fire = rule.always;
    if (!fire && rule.nthCall != 0) {
      fire = matched == rule.nthCall;
    }
    // The PRNG is drawn for every matching call of a probability rule,
    // hit or miss, so the draw sequence — and with it the whole failure
    // sequence — depends only on (plan, seed, call sequence).
    if (!fire && rule.probability >= 0.0) {
      fire = rng_.nextDouble() < rule.probability;
    }
    if (fire) {
      Fault fault;
      fault.site = site;
      fault.deviceLost = rule.lost;
      fault.siteCall = call;
      fault.device = device;
      fault.label = std::string(label);
      fired_.push_back(fault);
      return fault;
    }
  }
  return std::nullopt;
}

std::vector<Fault> FaultInjector::firedLog() const {
  std::lock_guard lock(mutex_);
  return fired_;
}

std::uint64_t FaultInjector::siteCalls(FaultSite site) const {
  std::lock_guard lock(mutex_);
  return calls_[std::size_t(site)];
}

} // namespace ocl
