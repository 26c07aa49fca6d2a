// Environment-driven experiment configuration.
//
// Benchmarks honour a small set of env vars so a single binary can run both
// as a fast smoke check (CI / `for b in build/bench/*`) and as a
// paper-shaped experiment:
//   HS_SCALE   : 0 = smoke (default), 1 = paper-shaped
//   HS_SEED    : global seed (default 42)
//   HS_ROUNDS  : override communication-round count
//   HS_REPEATS : seeds to average metrics over (default 1)
//   HS_THREADS : worker threads for client training (0 = all cores)
//   HS_TRACE   : JSONL trace output path (unset = tracing off)
//   HS_TRACE_TIMINGS : 0 drops wall-clock fields from the trace, making it
//                      byte-identical across thread counts (default 1)
//   HS_FAULTS  : fault-injection spec, e.g. "drop=0.1,corrupt=0.05,min=2"
//                (unset = no faults). Kept as an opaque string here — the
//                util layer cannot depend on runtime/faults.h; use sites
//                parse it with parse_fault_spec().
//   HS_SCHED   : event-scheduler spec, e.g. "async" or
//                "buffered,buffer=8,alpha=0.6" (unset = sync). Opaque here
//                like HS_FAULTS; parse with parse_sched_spec().
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace hetero {

/// Reads an environment variable; empty optional when unset or empty.
std::optional<std::string> env_string(const std::string& name);

/// Strict unsigned decimal for spec values and strict env knobs: one or
/// more ASCII digits and nothing else — no sign, no spaces, no trailing
/// text — with a value that fits in 64 bits. Returns an empty optional on
/// anything else, so each caller words its own error.
std::optional<std::uint64_t> parse_uint(const std::string& text);

/// Strict finite decimal double for spec values and numeric flags: an
/// optional '-', digits with an optional fraction and exponent, and nothing
/// else — no '+', no spaces, no hex form, no "nan" or "inf", no value that
/// overflows. Returns an empty optional on anything else.
std::optional<double> parse_double(const std::string& text);

/// The value of one key=value field of a spec: parse_uint / parse_double,
/// throwing std::invalid_argument "<parser>: bad value for "<key>":
/// <value>" when it fails.
std::uint64_t spec_uint(const char* parser, const std::string& key,
                        const std::string& value);
double spec_double(const char* parser, const std::string& key,
                   const std::string& value);

/// Benchmark scale knobs resolved from the environment.
struct BenchConfig {
  int scale = 0;              ///< 0 = smoke, 1 = paper-shaped.
  std::uint64_t seed = 42;    ///< Global experiment seed.
  std::int64_t rounds = -1;   ///< -1 = use the bench's scale-based default.
  std::size_t repeats = 1;    ///< Seeds to average metrics over (>= 1).
  /// Worker threads for the client fan-out (0 = all hardware threads).
  std::size_t threads = 0;
  /// JSONL trace output path (HS_TRACE); empty = tracing disabled.
  std::string trace_path;
  /// Include wall-clock fields in traces (HS_TRACE_TIMINGS, default on).
  bool trace_timings = true;
  /// Fault-injection spec (HS_FAULTS); empty = faults disabled. Parse with
  /// parse_fault_spec() from runtime/faults.h at the use site.
  std::string fault_spec;
  /// Event-scheduler spec (HS_SCHED); empty = sync. Parse with
  /// parse_sched_spec() from runtime/sched/sched_options.h at the use site.
  std::string sched_spec;

  /// Picks rounds: explicit HS_ROUNDS wins, otherwise smoke/paper default.
  std::int64_t pick_rounds(std::int64_t smoke, std::int64_t paper) const;
  /// Generic scale-based pick for any count.
  std::int64_t pick(std::int64_t smoke, std::int64_t paper) const;

  /// Reads the HS_* variables above. A numeric knob that is set but is not
  /// a plain decimal integer fitting its field throws
  /// std::invalid_argument naming the variable and its value.
  static BenchConfig from_env();
};

}  // namespace hetero
