#include "runtime/faults.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "fl/algorithm.h"
#include "util/config.h"

namespace hetero {
namespace {

double spec_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    throw std::invalid_argument("parse_fault_spec: bad value for \"" + key +
                                "\": " + value);
  }
  return v;
}

std::uint64_t spec_uint(const std::string& key, const std::string& value) {
  const std::optional<std::uint64_t> v = parse_uint(value);
  if (!v) {
    throw std::invalid_argument("parse_fault_spec: bad value for \"" + key +
                                "\": " + value);
  }
  return *v;
}

}  // namespace

FaultOptions parse_fault_spec(const std::string& spec) {
  FaultOptions opts;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string pair = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("parse_fault_spec: expected key=value, got "
                                  "\"" + pair + "\"");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "drop") {
      opts.dropout_prob = spec_double(key, value);
    } else if (key == "fail") {
      opts.fail_prob = spec_double(key, value);
    } else if (key == "retries") {
      opts.max_retries = static_cast<std::size_t>(spec_uint(key, value));
    } else if (key == "backoff") {
      opts.retry_backoff_s = spec_double(key, value);
    } else if (key == "straggle") {
      opts.straggler_prob = spec_double(key, value);
    } else if (key == "delay") {
      opts.straggler_delay_s = spec_double(key, value);
    } else if (key == "timeout") {
      opts.timeout_s = spec_double(key, value);
    } else if (key == "corrupt") {
      opts.corrupt_prob = spec_double(key, value);
    } else if (key == "min") {
      opts.min_clients = static_cast<std::size_t>(spec_uint(key, value));
    } else if (key == "seed") {
      opts.seed = spec_uint(key, value);
    } else if (key == "tiers") {
      opts.device_tier_delays = spec_uint(key, value) != 0;
    } else {
      throw std::invalid_argument("parse_fault_spec: unknown key \"" + key +
                                  "\"");
    }
  }
  return opts;
}

void poison_update(ClientUpdate& update, const FaultDecision& d) {
  static constexpr float kPoison[3] = {
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity()};
  const float bad = kPoison[d.corrupt_kind % 3];
  Tensor& target = !update.state.empty() ? update.state : update.aux;
  if (target.empty()) {
    update.weight = static_cast<double>(bad);
    return;
  }
  target[static_cast<std::size_t>(d.corrupt_pos % target.size())] = bad;
}

double backoff_seconds(const FaultOptions& options, std::size_t retry) {
  const int exponent = static_cast<int>(retry < 60 ? retry : 60);
  return std::ldexp(options.retry_backoff_s, exponent);
}

double total_backoff_seconds(const FaultOptions& options,
                             std::size_t retries) {
  double total = 0.0;
  for (std::size_t r = 0; r < retries; ++r) {
    total += backoff_seconds(options, r);
  }
  return total;
}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kOk: return "ok";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kDropout: return "dropout";
    case FaultKind::kTimeout: return "timeout";
    case FaultKind::kFailed: return "failed";
    case FaultKind::kQuarantined: return "quarantined";
  }
  return "?";
}

FaultPlan::FaultPlan(const FaultOptions& options)
    : options_(options), base_(options.seed) {}

FaultDecision FaultPlan::decide(std::size_t round, std::size_t client) const {
  Rng r = base_.fork(static_cast<std::uint64_t>(round),
                     static_cast<std::uint64_t>(client));
  // Every draw happens unconditionally and in a fixed order, so enabling
  // or tuning one fault type never shifts the random stream feeding the
  // others: a dropout schedule stays identical whether corruption is on.
  const double u_drop = r.uniform();
  const double u_fail = r.uniform();
  const std::uint64_t fail_extra =
      r.uniform_int(static_cast<std::uint64_t>(options_.max_retries) + 1);
  const double u_straggle = r.uniform();
  const double u_delay = r.uniform();
  const double u_corrupt = r.uniform();
  const std::uint64_t corrupt_pos = r.next_u64();
  const std::uint64_t corrupt_kind = r.uniform_int(3);
  // Appended after the original draws (never reordered), so enabling the
  // scheduler's compute jitter leaves every pre-existing fault stream —
  // and the DrawOrderStableAcrossKnobs guarantee — intact.
  const double u_jitter = r.uniform();

  FaultDecision d;
  d.drop = u_drop < options_.dropout_prob;
  if (u_fail < options_.fail_prob) {
    // 1..max_retries attempts fail then succeed; max_retries+1 means the
    // retry budget runs out and the client fails permanently this round.
    d.fail_attempts = 1 + static_cast<std::size_t>(fail_extra);
  }
  if (u_straggle < options_.straggler_prob) {
    // Device-tier scaling stretches the delay with the client's hardware
    // class; with no scale table installed this multiplies by exactly 1
    // and the decision is bit-identical to the unscaled plan. The lazy
    // callback form takes precedence so virtual populations never need an
    // O(N) scale table.
    const double scale =
        options_.delay_scale_fn
            ? options_.delay_scale_fn(client)
            : (client < options_.client_delay_scale.size()
                   ? options_.client_delay_scale[client]
                   : 1.0);
    d.delay_s = u_delay * 2.0 * options_.straggler_delay_s * scale;
  }
  d.corrupt = u_corrupt < options_.corrupt_prob;
  d.corrupt_kind = static_cast<int>(corrupt_kind);
  d.corrupt_pos = corrupt_pos;
  d.compute_jitter = 2.0 * u_jitter - 1.0;
  return d;
}

}  // namespace hetero
