#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "common/check.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERF_BUILD_TYPE
#define PERF_BUILD_TYPE "unknown"
#endif
#ifndef PERF_NATIVE
#define PERF_NATIVE 0
#endif

namespace chenfd::perf {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

std::size_t Trace::begin(const char* name, std::uint64_t id) {
  const std::size_t parent = open_.empty() ? kNone : open_.back();
  spans_.push_back(Span{name, now_ns(), 0, parent, id});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Trace::end(std::size_t handle) {
  expects(!open_.empty() && open_.back() == handle,
          "Trace::end: spans must close in LIFO order");
  spans_[handle].end = now_ns();
  open_.pop_back();
}

std::vector<Trace::SelfTime> Trace::self_times() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) child_ns[s.parent] += s.end - s.start;
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_ms += static_cast<double>(s.end - s.start) * 1e-6;
    t.self_ms += static_cast<double>(s.end - s.start - child_ns[i]) * 1e-6;
  }
  std::vector<SelfTime> out;
  for (const auto& [name, t] : by_name) out.push_back(t);
  return out;
}

Trace::SelfTime Trace::totals(const std::string& name) const {
  for (const SelfTime& t : self_times()) {
    if (t.name == name) return t;
  }
  SelfTime none;
  none.name = name;
  return none;
}

void Trace::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent =
        s.parent == kNone ? -1 : static_cast<long long>(s.parent);
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                  "\"parent\": %lld, \"id\": %llu}}%s\n",
                  s.name, static_cast<double>(s.start - origin) * 1e-3,
                  static_cast<double>(s.end - s.start) * 1e-3, i, parent,
                  static_cast<unsigned long long>(s.id),
                  i + 1 < spans_.size() ? "," : "");
    os << buf;
  }
  os << "]}\n";
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

namespace {

std::string number(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_row(const Row& r) {
  std::cout << r.name << " " << number(r.value) << " " << r.unit;
  if (r.samples != 0) std::cout << " (n=" << r.samples << ")";
  std::cout << "\n";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = 0;
  unsigned b = 0;
  unsigned c = 0;
  unsigned d = 0;
  if (__get_cpuid(0x80000000u, &max_leaf, &b, &c, &d) != 0 &&
      max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "" : s.substr(first);
  }
#endif
  return "unknown";
}

long cache_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? v : 0;
}

}  // namespace

void Report::e2e(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  e2e_.push_back(Row{name, value, unit, samples});
  print_row(e2e_.back());
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, std::uint64_t samples) {
  layer_.push_back(Row{name, value, unit, samples});
  print_row(layer_.back());
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
  std::cout << "check " << name << " " << (ok ? "ok" : "FAILED") << " "
            << detail << "\n";
}

void Report::count_ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::correct() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

void Report::write_json(const std::string& path, const std::string& workload,
                        std::uint64_t seed, double seconds,
                        bool traced) const {
  std::ostringstream os;
  const auto rows = [&os](const std::vector<Row>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      os << "    {\"name\": " << quoted(v[i].name)
         << ", \"value\": " << number(v[i].value)
         << ", \"unit\": " << quoted(v[i].unit)
         << ", \"samples\": " << v[i].samples << "}"
         << (i + 1 < v.size() ? "," : "") << "\n";
    }
  };
  os << "{\n  \"bench\": \"perf\",\n"
     << "  \"workload\": " << quoted(workload) << ",\n"
     << "  \"seed\": " << seed << ",\n"
     << "  \"seconds\": " << number(seconds) << ",\n"
     << "  \"traced\": " << (traced ? "true" : "false") << ",\n"
     << "  \"correct\": " << (correct() ? "true" : "false") << ",\n"
     << "  \"attempted\": " << attempted_ << ",\n"
     << "  \"failed\": " << failed_ << ",\n"
     << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": " << quoted(cpu_model())
     << ", \"l2_bytes\": " << cache_bytes(_SC_LEVEL2_CACHE_SIZE)
     << ", \"l3_bytes\": " << cache_bytes(_SC_LEVEL3_CACHE_SIZE)
     << ", \"compiler\": " << quoted(__VERSION__)
     << ", \"build_type\": " << quoted(PERF_BUILD_TYPE)
     << ", \"chenfd_native\": " << (PERF_NATIVE != 0 ? "true" : "false")
     << ", \"audit_level\": " << CHENFD_AUDIT_LEVEL << "},\n"
     << "  \"checks\": [\n";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    os << "    {\"name\": " << quoted(checks_[i].name)
       << ", \"ok\": " << (checks_[i].ok ? "true" : "false")
       << ", \"detail\": " << quoted(checks_[i].detail) << "}"
       << (i + 1 < checks_.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"e2e\": [\n";
  rows(e2e_);
  os << "  ],\n  \"layer\": [\n";
  rows(layer_);
  os << "  ]\n}\n";
  std::ofstream(path) << os.str();
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss survives
  // exec and would report the launching process's peak when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB
}

}  // namespace chenfd::perf
