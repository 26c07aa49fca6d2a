#include "util/config.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace hetero {

std::optional<std::string> env_string(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
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

namespace {

/// One numeric bench knob: `fallback` when the variable is unset or empty,
/// else its value through parse_uint, which must fit in T.
template <typename T>
T uint_knob(const char* name, T fallback) {
  const std::optional<std::string> text = env_string(name);
  if (!text) return fallback;
  const auto max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  const std::optional<std::uint64_t> value = parse_uint(*text);
  if (!value || *value > max) {
    throw std::invalid_argument(std::string(name) +
                                ": expected an integer in 0.." +
                                std::to_string(max) + ", got '" + *text +
                                "'");
  }
  return static_cast<T>(*value);
}

}  // namespace

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
  cfg.scale = uint_knob<int>("HS_SCALE", 0);
  cfg.seed = uint_knob<std::uint64_t>("HS_SEED", 42);
  cfg.rounds = uint_knob<std::int64_t>("HS_ROUNDS", -1);
  cfg.repeats =
      std::max<std::size_t>(1, uint_knob<std::size_t>("HS_REPEATS", 1));
  cfg.threads = uint_knob<std::size_t>("HS_THREADS", 0);
  cfg.trace_path = env_string("HS_TRACE").value_or("");
  cfg.trace_timings = uint_knob<std::uint64_t>("HS_TRACE_TIMINGS", 1) != 0;
  cfg.fault_spec = env_string("HS_FAULTS").value_or("");
  cfg.sched_spec = env_string("HS_SCHED").value_or("");
  return cfg;
}

}  // namespace hetero
