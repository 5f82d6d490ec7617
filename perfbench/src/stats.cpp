#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

const char* op_name(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kQuery: return "query";
    case OpKind::kEvaluate: return "evaluate";
    case OpKind::kMove: return "move";
    case OpKind::kJoin: return "join";
    case OpKind::kLeave: return "leave";
    case OpKind::kStats: return "stats";
  }
  return "?";
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least q of the sample at
  // or below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double supported_level(std::size_t samples) {
  if (samples >= 1000) return 0.99;
  if (samples >= 100) return 0.90;
  return 0.50;
}

double tail(const std::vector<double>& samples) {
  return percentile(samples, supported_level(samples.size()));
}

namespace {

/// The CPUs this process may use, as found before any pinning.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

void pin(std::size_t first, std::size_t last) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = first; i <= last; ++i) CPU_SET(cpus[i], &set);
  (void)sched_setaffinity(0, sizeof(set), &set);  // best effort
}

}  // namespace

void use_server_cpus() { pin(0, allowed_cpus().size() - 2); }

void use_generator_cpu() {
  pin(allowed_cpus().size() - 1, allowed_cpus().size() - 1);
}

void use_all_cpus() { pin(0, allowed_cpus().size() - 1); }

void reset_peak_rss() {
  (void)malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // best effort
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void Json::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ", ";
    first_.back() = false;
  }
}

void Json::begin_object() {
  comma();
  out_ += '{';
  first_.push_back(true);
}

void Json::end_object() {
  out_ += '}';
  first_.pop_back();
}

void Json::begin_array(const std::string& k) {
  key(k);
  comma();
  out_ += '[';
  first_.push_back(true);
}

void Json::end_array() {
  out_ += ']';
  first_.pop_back();
}

void Json::key(const std::string& k) {
  comma();
  write_string(k);
  out_ += ": ";
  after_key_ = true;
}

void Json::value(double v) {
  comma();
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
}

void Json::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
}

void Json::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
}

void Json::value(const std::string& v) {
  comma();
  write_string(v);
}

void Json::write_string(const std::string& v) {
  out_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}


}  // namespace perfbench
