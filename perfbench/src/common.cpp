#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "serve/proto.hpp"
#include "util/text.hpp"

namespace pb {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the image that exec'd this process (the Python launcher).
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t fnv64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool load_string_map(const std::string& path,
                     std::map<std::string, std::string>& out,
                     std::string& error) {
  std::string text;
  if (!read_file(path, text)) {
    error = path + ": cannot read";
    return false;
  }
  mcan::Json j;
  if (!mcan::Json::parse(text, j, error) || !j.is_object()) {
    error = path + ": not a JSON object " + error;
    return false;
  }
  for (const auto& [k, v] : j.members()) {
    if (!v.is_string()) {
      error = path + ": value of \"" + k + "\" is not a string";
      return false;
    }
    out[k] = v.as_string();
  }
  return true;
}

}  // namespace

bool Report::load_expectations(const std::string& path, std::string& error) {
  if (path.empty()) return true;
  return load_string_map(path, expected_, error);
}

void Report::verify(const std::string& key, const std::string& actual) {
  const std::string* want = nullptr;
  if (auto it = expected_.find(key); it != expected_.end()) {
    want = &it->second;
  } else if (auto s = seen_.find(key); s != seen_.end()) {
    want = &s->second;
  }
  const bool ok = want == nullptr || *want == actual;
  count(ok, ok ? std::string() : "result mismatch for " + key + ":\n  want " +
                                     *want + "\n  got  " + actual);
  seen_.emplace(key, actual);
}

void Report::count(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (reported_failures_++ < 3) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::meta(const std::string& key, const std::string& value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

bool Report::save_results(const std::string& path, std::string& error) const {
  std::map<std::string, std::string> all;
  {
    std::string ignored;
    (void)load_string_map(path, all, ignored);  // absent file: start fresh
  }
  for (const auto& [k, v] : seen_) all[k] = v;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    error = path + ": cannot write";
    return false;
  }
  // One member per line keeps the committed file reviewable.
  std::string pretty = "{\n";
  bool first = true;
  for (const auto& [k, v] : all) {
    mcan::Json kv = mcan::Json::object();
    kv.set(k, mcan::Json(v));
    const std::string member = kv.dump();
    if (!first) pretty += ",\n";
    first = false;
    pretty += "  " + member.substr(1, member.size() - 2);
  }
  pretty += "\n}\n";
  out << pretty;
  return static_cast<bool>(out);
}

void Report::print(bool with_failed_frac) const {
  mcan::Json meta = mcan::Json::object();
  for (const auto& [k, v] : meta_) meta.set(k, mcan::Json(v));
  std::printf("meta %s\n", meta.dump().c_str());
  for (const auto& [k, v] : seen_) {
    std::printf("digest %s %s\n", k.c_str(), hex64(fnv64(v)).c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double frac = attempted_ > 0 ? static_cast<double>(failed_) /
                                           static_cast<double>(attempted_)
                                     : 1.0;
  if (with_failed_frac) {
    std::printf("  %-32s %16.6g %s  (%lld of %lld)\n", "failed_frac", frac,
                "fraction", failed_, attempted_);
  }
  // The result object: exactly correct/attempted/failed/metrics.
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + mcan::json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

namespace {

thread_local std::vector<int> t_open;

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

int Tracer::open(const std::string& name, int parent, long long req) {
  if (parent == -2) parent = t_open.empty() ? -1 : t_open.back();
  const double t = now_s();
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back({name, t, t, parent, req, thread_tag()});
  }
  t_open.push_back(id);
  return id;
}

void Tracer::close(int id) {
  const double t = now_s();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = t;
}

double Tracer::self_s(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_) {
    if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].name == name) {
      children[s.parent].emplace_back(s.t0, s.t1);
    }
  }
  double total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    double covered = 0;
    auto it = children.find(static_cast<int>(i));
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = 0;
      double hi = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.t0);
        b = std::min(b, s.t1);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    total += (s.t1 - s.t0) - covered;
  }
  return total;
}

double Tracer::total_s(const std::string& name) const {
  double t = 0;
  for (double d : durations(name)) t += d;
  return t;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.t1 - s.t0);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const double base = spans_.empty() ? 0 : spans_.front().t0;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"req\":" << s.req
        << ",\"thread\":\"" << hex64(s.thread)
        << "\",\"start_us\":" << mcan::json_number(us(s.t0 - base))
        << ",\"end_us\":" << mcan::json_number(us(s.t1 - base)) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace pb
