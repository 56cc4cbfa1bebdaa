// Shared pieces of the benchmark harness: clocks, resource usage, seed
// derivation, the in-memory span recorder and a minimal JSON writer.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process (every thread).
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this process in KiB (Linux reports ru_maxrss in KiB).
inline std::uint64_t peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

/// splitmix64 finaliser: every graph, placement and run seed of a workload is
/// derive(seed, purpose, index), so one --seed argument fixes all inputs.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose,
                            std::uint64_t index) {
  return mix64(seed ^ mix64(purpose * 0x100000001b3ull + index));
}

/// Spans recorded around calls into the library.  Kept in memory while the
/// run measures and written out once at the end; a disabled tracer records
/// nothing.  Parent links come from the open-span stack, so spans nest the
/// way the calls do.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const noexcept { return enabled_; }

  /// Name ids are interned once, outside the timed loops.
  std::uint32_t intern(std::string_view name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  std::int64_t open(std::uint32_t name, std::uint32_t rep) {
    if (!enabled_) return -1;
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, rep, now_ns(), 0});
    const auto idx = static_cast<std::int64_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }

  void close(std::int64_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// One span per line: id, parent id (-1 for a root), repetition id, name,
  /// start and end in ns since the tracer was created.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\trep\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%lld\t%u\t%s\t%lld\t%lld\n", i,
                   static_cast<long long>(s.parent), s.rep, names_[s.name].c_str(),
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::uint32_t name;
    std::int64_t parent;
    std::uint32_t rep;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span: opens on construction, closes on scope exit.
class Scope {
 public:
  Scope(Tracer& t, std::uint32_t name, std::uint32_t rep) : t_(t), idx_(t.open(name, rep)) {}
  ~Scope() { t_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int64_t idx_;
};

/// Minimal JSON object writer: keys are emitted in call order; numbers keep
/// every digit (%.17g) so no measured value is rounded away.
class Json {
 public:
  Json& num(std::string_view key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& integer(std::string_view key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Json& boolean(std::string_view key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& str(std::string_view key, std::string_view v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) q += c;
    }
    q += '"';
    return raw(key, q);
  }
  Json& nums(std::string_view key, const std::vector<double>& vs) {
    std::string a = "[";
    char buf[64];
    for (std::size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", vs[i]);
      a += buf;
    }
    return raw(key, a + "]");
  }
  Json& obj(std::string_view key, const Json& o) { return raw(key, o.text()); }
  Json& objs(std::string_view key, const std::vector<Json>& os) {
    std::string a = "[";
    for (std::size_t i = 0; i < os.size(); ++i) {
      if (i) a += ',';
      a += os[i].text();
    }
    return raw(key, a + "]");
  }

  std::string text() const { return "{" + body_ + "}"; }

 private:
  Json& raw(std::string_view key, std::string_view value) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }
  std::string body_;
};

}  // namespace perfbench
