#include "runtime/sched/sched_options.h"

#include <cstdlib>
#include <stdexcept>

#include "util/config.h"

namespace hetero {
namespace {

SchedMode parse_mode(const std::string& value) {
  if (value == "sync") return SchedMode::kSync;
  if (value == "async") return SchedMode::kAsync;
  if (value == "buffered") return SchedMode::kBuffered;
  throw std::invalid_argument("parse_sched_spec: unknown mode \"" + value +
                              "\" (expected sync, async or buffered)");
}

double spec_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    throw std::invalid_argument("parse_sched_spec: bad value for \"" + key +
                                "\": " + value);
  }
  return v;
}

std::size_t spec_uint(const std::string& key, const std::string& value) {
  const std::optional<std::uint64_t> v = parse_uint(value);
  if (!v) {
    throw std::invalid_argument("parse_sched_spec: bad value for \"" + key +
                                "\": " + value);
  }
  return static_cast<std::size_t>(*v);
}

}  // namespace

const char* sched_mode_name(SchedMode mode) {
  switch (mode) {
    case SchedMode::kSync: return "sync";
    case SchedMode::kAsync: return "async";
    case SchedMode::kBuffered: return "buffered";
  }
  return "?";
}

SchedulerOptions parse_sched_spec(const std::string& spec) {
  SchedulerOptions opts;
  bool first = true;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string pair = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      // A bare leading token names the mode: "async" == "mode=async".
      if (first) {
        opts.mode = parse_mode(pair);
        first = false;
        continue;
      }
      throw std::invalid_argument("parse_sched_spec: expected key=value, got "
                                  "\"" + pair + "\"");
    }
    first = false;
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "mode") {
      opts.mode = parse_mode(value);
    } else if (key == "buffer") {
      opts.buffer = spec_uint(key, value);
    } else if (key == "alpha") {
      opts.mix_alpha = spec_double(key, value);
    } else if (key == "exp") {
      opts.staleness_exponent = spec_double(key, value);
    } else if (key == "compute") {
      opts.base_compute_s = spec_double(key, value);
    } else if (key == "wave") {
      opts.wave_sampling = spec_uint(key, value) != 0;
    } else {
      throw std::invalid_argument("parse_sched_spec: unknown key \"" + key +
                                  "\"");
    }
  }
  return opts;
}

}  // namespace hetero
