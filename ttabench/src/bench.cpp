#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace tta {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double histogram_sum(const ppk::obs::Histogram& histogram) {
  double sum = 0.0;
  const auto& counts = histogram.counts();
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const double lo = histogram.bucket_lo(b);
    const double hi = histogram.bucket_hi(b);
    const double value = hi - lo <= 1.0 ? lo : 0.5 * (lo + hi);
    sum += static_cast<double>(counts[b]) * value;
  }
  return sum;
}

namespace {

double read_vm_hwm_mb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

namespace {

/// The gauge kernel: kGaugeSteps random pairs of a 1024-agent array, each
/// pair rewritten through a 64 x 64 transition table with its state counts
/// updated.  Returns its wall time.
constexpr int kGaugeSteps = 200'000;

double gauge_kernel_s() {
  static std::array<std::uint8_t, 1024> states{};
  static std::array<std::uint8_t, 64 * 64 * 2> table = [] {
    std::array<std::uint8_t, 64 * 64 * 2> t{};
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<std::uint8_t>((i * 2654435761u >> 7) & 31);
    }
    return t;
  }();
  static std::array<std::uint32_t, 64> counts{};
  std::uint64_t x = 88172645463325252ULL;
  const double start = now_s();
  for (int i = 0; i < kGaugeSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::size_t u = x & 1023;
    const std::size_t v = (x >> 10) & 1023;
    const std::size_t p = states[u] & 63;
    const std::size_t q = states[v] & 63;
    const std::size_t cell = (p * 64 + q) * 2;
    --counts[p];
    --counts[q];
    states[u] = table[cell];
    states[v] = table[cell + 1];
    ++counts[table[cell] & 63];
    ++counts[table[cell + 1] & 63];
    if (counts[(x >> 20) & 63] == 12345u) states[0] ^= 1;
  }
  const double spent = now_s() - start;
  static volatile std::uint32_t sink;
  sink = counts[0];
  return spent;
}

}  // namespace

double Gauge::sample() {
  const double a = gauge_kernel_s();
  const double b = gauge_kernel_s();
  const double c = gauge_kernel_s();
  const double now = std::max(std::min(a, b), std::min(std::max(a, b), c));
  const double around = last_ > 0.0 ? 0.5 * (last_ + now) : now;
  scaled_ += pending_ * kReferenceS / around;
  pending_ = 0.0;
  last_ = now;
  return now;
}

double Gauge::take() {
  if (pending_ > 0.0) sample();
  const double scaled = scaled_;
  scaled_ = 0.0;
  return scaled;
}

void pin_to_current_cpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

std::string Rounds::describe() const {
  std::string line = "rounds (wall s / scaled s):";
  char value[48];
  for (std::size_t r = 0; r < wall.size(); ++r) {
    std::snprintf(value, sizeof value, " %.4f/%.4f", wall[r], seconds[r]);
    line += value;
  }
  return line;
}

double self_peak_rss_mb() { return read_vm_hwm_mb("/proc/self/status"); }

double process_peak_rss_mb(long pid) {
  return read_vm_hwm_mb("/proc/" + std::to_string(pid) + "/status");
}

std::int64_t Tracer::open(std::string_view name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::string(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request;
  span.start = now_s();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::close(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = now_s();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double Tracer::self_s(std::string_view name) const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      total += spans_[i].end - spans_[i].start - children[i];
    }
  }
  return total;
}

bool Tracer::write(const std::string& path) const {
  if (!enabled_) return false;
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": ";
    write_json_string(out, span.name);
    out << ", \"start\": " << span.start << ", \"end\": " << span.end
        << ", \"parent\": " << span.parent << ", \"request\": " << span.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace tta
