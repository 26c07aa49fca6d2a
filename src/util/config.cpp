#include "util/config.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

namespace hetero {

std::optional<std::string> env_string(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const auto s = env_string(name);
  if (!s) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(s->c_str(), &end, 10);
  if (end == s->c_str() || *end != '\0') return fallback;
  return static_cast<std::int64_t>(v);
}

double env_double(const std::string& name, double fallback) {
  const auto s = env_string(name);
  if (!s) return fallback;
  char* end = nullptr;
  const double v = std::strtod(s->c_str(), &end);
  if (end == s->c_str() || *end != '\0') return fallback;
  return v;
}

std::optional<std::uint64_t> parse_uint(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    v = v * 10 + digit;
  }
  return v;
}

std::int64_t BenchConfig::pick_rounds(std::int64_t smoke,
                                      std::int64_t paper) const {
  if (rounds > 0) return rounds;
  return pick(smoke, paper);
}

std::int64_t BenchConfig::pick(std::int64_t smoke, std::int64_t paper) const {
  return scale >= 1 ? paper : smoke;
}

BenchConfig BenchConfig::from_env() {
  BenchConfig cfg;
  cfg.scale = static_cast<int>(env_int("HS_SCALE", 0));
  cfg.seed = static_cast<std::uint64_t>(env_int("HS_SEED", 42));
  cfg.rounds = env_int("HS_ROUNDS", -1);
  cfg.repeats = static_cast<std::size_t>(
      std::max<std::int64_t>(1, env_int("HS_REPEATS", 1)));
  cfg.threads = static_cast<std::size_t>(
      std::max<std::int64_t>(0, env_int("HS_THREADS", 0)));
  cfg.trace_path = env_string("HS_TRACE").value_or("");
  cfg.trace_timings = env_int("HS_TRACE_TIMINGS", 1) != 0;
  cfg.fault_spec = env_string("HS_FAULTS").value_or("");
  cfg.sched_spec = env_string("HS_SCHED").value_or("");
  cfg.sched_buffer = static_cast<std::size_t>(
      std::max<std::int64_t>(0, env_int("HS_BUFFER", 0)));
  return cfg;
}

}  // namespace hetero
