#include "runtime/sched/sched_options.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/config.h"

namespace hetero {
namespace {

constexpr const char* kParser = "parse_sched_spec";

SchedMode parse_mode(const std::string& value) {
  if (value == "sync") return SchedMode::kSync;
  if (value == "async") return SchedMode::kAsync;
  if (value == "buffered") return SchedMode::kBuffered;
  throw std::invalid_argument("parse_sched_spec: unknown mode \"" + value +
                              "\" (expected sync, async or buffered)");
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
      opts.buffer = static_cast<std::size_t>(spec_uint(kParser, key, value));
    } else if (key == "alpha") {
      opts.mix_alpha = spec_double(kParser, key, value);
    } else if (key == "exp") {
      opts.staleness_exponent = spec_double(kParser, key, value);
    } else if (key == "compute") {
      opts.base_compute_s = spec_double(kParser, key, value);
    } else if (key == "wave") {
      opts.wave_sampling = spec_uint(kParser, key, value) != 0;
    } else {
      throw std::invalid_argument("parse_sched_spec: unknown key \"" + key +
                                  "\"");
    }
  }
  check_sched_options(opts, kParser);
  return opts;
}

void check_sched_options(const SchedulerOptions& options, const char* caller) {
  const auto fail = [caller](const char* knob, const char* range, double v) {
    throw std::invalid_argument(std::string(caller) + ": " + knob +
                                " must be " + range + ", got " +
                                std::to_string(v));
  };
  if (!(options.mix_alpha > 0.0 && options.mix_alpha <= 1.0)) {
    fail("mix_alpha", "in (0, 1]", options.mix_alpha);
  }
  if (!(std::isfinite(options.staleness_exponent) &&
        options.staleness_exponent >= 0.0)) {
    fail("staleness_exponent", "finite and non-negative",
         options.staleness_exponent);
  }
  if (!(std::isfinite(options.base_compute_s) &&
        options.base_compute_s >= 0.0)) {
    fail("base_compute_s", "finite and non-negative", options.base_compute_s);
  }
}

}  // namespace hetero
