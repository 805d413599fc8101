#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <string>
#include <stdexcept>

namespace perfbench {

std::uint32_t Tracer::name_id(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* mine = nullptr;
  if (mine == nullptr) {
    auto b = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lk(mu_);
    b->thread_tag = buffers_.size() + 1;
    b->spans.reserve(1024);
    mine = b.get();
    buffers_.push_back(std::move(b));
  }
  return *mine;
}

std::uint64_t Tracer::open(std::uint64_t& saved_parent) {
  Buffer& b = local();
  saved_parent = b.current;
  b.current = (b.thread_tag << 40) | ++b.next_local;
  return b.current;
}

void Tracer::close(std::uint64_t id, std::uint64_t parent, std::uint32_t name,
                   std::uint64_t start, std::uint64_t end) {
  Buffer& b = local();
  b.current = parent;
  // Read before the RMW so a full store costs a shared load, not a
  // contended increment.
  if (kept_.load(std::memory_order_relaxed) >= kMaxSpans ||
      kept_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    return;
  }
  b.spans.push_back(
      {id, parent, name, run_.load(std::memory_order_relaxed), start, end});
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"name\":" << json_string(names_[s.name])
         << ",\"run\":" << s.run << ",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
}

std::uint64_t timer_overhead_ns() {
  static const std::uint64_t ovh = [] {
    std::vector<std::uint64_t> d(2001);
    for (auto& x : d) {
      const std::uint64_t a = now_ns();
      x = now_ns() - a;
    }
    std::nth_element(d.begin(), d.begin() + 1000, d.end());
    return d[1000];
  }();
  return ovh;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  return std::string(buf, end);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
