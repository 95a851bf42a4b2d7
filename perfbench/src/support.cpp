#include "support.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>

namespace perfbench {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv(std::uint64_t& hash, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
}

}  // namespace

double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t peakRssKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

int SpanLog::begin(const std::string& name, int parent,
                   const std::string& detail) {
  if (!record_) return -1;
  spans_.push_back({name, detail, monotonicSeconds(), 0.0, parent, op_});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int index) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end = monotonicSeconds();
}

int SpanLog::add(const std::string& name, double start, double end,
                 int parent) {
  if (!record_) return -1;
  spans_.push_back({name, "", start, end, parent, op_});
  return static_cast<int>(spans_.size()) - 1;
}

tibsim::json::Value SpanLog::toJson() const {
  tibsim::json::Value out = tibsim::json::Value::array();
  for (const Span& span : spans_) {
    tibsim::json::Value v = tibsim::json::Value::object();
    v["name"] = span.name;
    if (!span.detail.empty()) v["detail"] = span.detail;
    v["start"] = span.start;
    v["end"] = span.end;
    v["parent"] = span.parent;
    v["op"] = span.op;
    out.push(std::move(v));
  }
  return out;
}

TreeDigest digestTrees(const std::filesystem::path& base,
                       const std::vector<std::string>& dirs) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const std::string& dir : dirs) {
    const fs::path root = base / dir;
    if (!fs::is_directory(root)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(root))
      if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  TreeDigest digest;
  std::uint64_t hash = kFnvOffset;
  for (const fs::path& file : files) {
    const std::string rel = fs::relative(file, base).generic_string();
    std::ifstream in(file, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const std::uint64_t size = bytes.size();
    fnv(hash, rel.data(), rel.size() + 1);  // include the terminator
    fnv(hash, &size, sizeof size);
    fnv(hash, bytes.data(), bytes.size());
    digest.bytes += size;
  }
  digest.hex = hex64(hash);
  return digest;
}

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

std::string digestNumbers(const std::vector<double>& values) {
  std::uint64_t hash = kFnvOffset;
  for (const double v : values) {
    const std::string text = tibsim::json::formatNumber(v);
    fnv(hash, text.data(), text.size() + 1);
  }
  return hex64(hash);
}

}  // namespace perfbench
