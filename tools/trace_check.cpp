// trace_check — validator for HS_TRACE JSONL traces (DESIGN.md §8).
//
//   trace_check <trace.jsonl>
//
// Checks, per line:
//   * the line parses as a flat JSON object with string "ev" and numeric
//     "run" / "seq" framing fields;
//   * "seq" starts at 0 for every run and increases by exactly 1;
//   * event payloads carry their required fields with the right JSON types
//     (round_begin: round/k/clients; client_end: round/client/order/weight/
//     loss/flags/bytes and an optional "fault" kind; round_end: round/loss/
//     loss_min/loss_max/clients/weight/bytes_up/bytes_down; eval: round/
//     average/variance/worst_case/devices/per_device; run_begin: label);
//   * every round's client_end count and order fields match the
//     round_begin's k (0..k-1, in order) — excluded clients still get an
//     event, carrying their fault kind;
//   * round_end's "clients" equals k minus the excluded clients announced
//     by the optional "fault.dropped" / "fault.quarantined" extras (both
//     default 0, so fault-free traces keep clients == k);
//   * loss_min <= loss <= loss_max on round_end;
//   * scheduled traces (client_end carries "vt"/"version"/"staleness" from
//     the virtual-clock event scheduler, DESIGN.md §11) reconcile: every
//     commit virtual time lies between the previous round_end's
//     "sched.vt" clock and this round_end's (a window lists its clients in
//     commit order, or in selection order when it is exactly one wave);
//     every client's staleness equals the pre-flush server version
//     ("sched.version", minus one unless the flush aborted) minus the
//     version it trained against;
//   * net-daemon traces reconcile: round_end's "net.edges" (the
//     hierarchical edge tier's group count) is at least 1, and the
//     cumulative "net.bytes_rx/tx" / "net.frames_rx/tx" counters are
//     non-negative and never decrease across a run's rounds;
//   * lazy-population traces reconcile: round_end's "pop.hits" +
//     "pop.misses" equals "pop.materializations" (every served dataset is
//     exactly one LRU hit or one generation-recipe miss), and
//     "pop.gen_seconds" is non-negative.
// Then prints a summary with per-round and per-client latency percentiles
// (when the trace carries timing fields; HS_TRACE_TIMINGS=0 omits them).
// Exit code 0 = valid, 1 = violations found, 2 = usage / IO error.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/jsonl.h"
#include "obs/metrics.h"

namespace {

using hetero::obs::JsonFlatObject;
using hetero::obs::JsonValue;

struct Checker {
  std::size_t line_no = 0;
  std::size_t errors = 0;

  void fail(const std::string& what) {
    ++errors;
    if (errors <= 20) {
      std::fprintf(stderr, "trace_check: line %zu: %s\n", line_no,
                   what.c_str());
    }
  }

  const JsonValue* field(const JsonFlatObject& obj, const char* name) {
    auto it = obj.find(name);
    return it == obj.end() ? nullptr : &it->second;
  }

  /// Required numeric field; returns 0 (and records an error) when absent
  /// or mistyped.
  double num(const JsonFlatObject& obj, const char* name) {
    const JsonValue* v = field(obj, name);
    if (!v || !v->is_number()) {
      fail(std::string("missing or non-numeric field \"") + name + "\"");
      return 0.0;
    }
    return v->number;
  }

  /// Optional numeric field (timings are legitimately absent).
  bool opt_num(const JsonFlatObject& obj, const char* name, double* out) {
    const JsonValue* v = field(obj, name);
    if (!v) return false;
    if (!v->is_number()) {
      fail(std::string("non-numeric field \"") + name + "\"");
      return false;
    }
    *out = v->number;
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: trace_check <trace.jsonl>\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "trace_check: cannot open %s\n", argv[1]);
    return 2;
  }

  Checker check;
  hetero::obs::Histogram round_seconds;
  hetero::obs::Histogram client_seconds;
  std::size_t runs = 0, rounds = 0, clients = 0, evals = 0;

  // Per-run framing state.
  double current_run = -1.0;
  double expected_seq = 0.0;
  // Per-round state: round_begin announces k; client_end events must then
  // arrive as order 0..k-1 before round_end.
  bool in_round = false;
  double round_id = 0.0;
  double round_k = 0.0;
  double clients_seen = 0.0;
  // Scheduler reconciliation state: (staleness, version) per scheduled
  // client_end of the current round, the round's latest commit timestamp,
  // and the previous flush's clock in this run.
  std::vector<std::pair<double, double>> round_staleness;
  double max_vt = 0.0;
  double last_sched_vt = 0.0;
  bool round_scheduled = false;
  // Net daemon reconciliation state: the previous round_end's cumulative
  // wire counters for this run (they must never decrease).
  double last_net_bytes_rx = -1.0, last_net_bytes_tx = -1.0;
  double last_net_frames_rx = -1.0, last_net_frames_tx = -1.0;

  std::string line;
  while (std::getline(in, line)) {
    ++check.line_no;
    if (line.empty()) continue;
    const auto parsed = hetero::obs::parse_flat_json(line);
    if (!parsed) {
      check.fail("not a flat JSON object");
      continue;
    }
    const JsonFlatObject& obj = *parsed;

    const JsonValue* ev = check.field(obj, "ev");
    if (!ev || !ev->is_string()) {
      check.fail("missing string field \"ev\"");
      continue;
    }
    const double run = check.num(obj, "run");
    const double seq = check.num(obj, "seq");
    if (run != current_run) {
      current_run = run;
      expected_seq = 0.0;
    }
    if (seq != expected_seq) {
      check.fail("seq " + std::to_string(seq) + ", expected " +
                 std::to_string(expected_seq));
      expected_seq = seq;  // resynchronize to limit error cascades
    }
    expected_seq += 1.0;

    const std::string& type = ev->string;
    if (type == "run_begin") {
      ++runs;
      const JsonValue* label = check.field(obj, "label");
      if (!label || !label->is_string()) {
        check.fail("run_begin without string \"label\"");
      }
      in_round = false;
      last_sched_vt = 0.0;
      last_net_bytes_rx = last_net_bytes_tx = -1.0;
      last_net_frames_rx = last_net_frames_tx = -1.0;
    } else if (type == "round_begin") {
      if (in_round) check.fail("round_begin inside an open round");
      round_id = check.num(obj, "round");
      round_k = check.num(obj, "k");
      const JsonValue* sel = check.field(obj, "clients");
      if (!sel || !sel->is_array()) {
        check.fail("round_begin without \"clients\" array");
      } else if (static_cast<double>(sel->numbers.size()) != round_k) {
        check.fail("round_begin clients array size != k");
      }
      in_round = true;
      clients_seen = 0.0;
      round_staleness.clear();
      round_scheduled = false;
    } else if (type == "client_end") {
      ++clients;
      if (!in_round) check.fail("client_end outside a round");
      if (check.num(obj, "round") != round_id) {
        check.fail("client_end round mismatch");
      }
      check.num(obj, "client");
      check.num(obj, "weight");
      check.num(obj, "loss");
      check.num(obj, "flags");
      check.num(obj, "bytes");
      // Optional fault disposition (FaultKind; only emitted when non-zero).
      double fault = 0.0;
      if (check.opt_num(obj, "fault", &fault) &&
          (fault < 1.0 || fault > 5.0)) {
        check.fail("client_end fault kind out of range");
      }
      const double order = check.num(obj, "order");
      if (order != clients_seen) {
        check.fail("client_end order " + std::to_string(order) +
                   ", expected " + std::to_string(clients_seen) +
                   " (selected-order flush violated)");
      }
      clients_seen += 1.0;
      // Deterministic virtual elapsed time (delay + backoff + compute).
      double vsecs = 0.0;
      if (check.opt_num(obj, "vseconds", &vsecs) && vsecs < 0.0) {
        check.fail("client_end negative vseconds");
      }
      // Scheduler provenance: the trio travels together, no commit precedes
      // the previous flush, staleness is checked against the round_end's
      // version accounting below.
      double vt = 0.0;
      if (check.opt_num(obj, "vt", &vt)) {
        const double version = check.num(obj, "version");
        const double staleness = check.num(obj, "staleness");
        if (vt < last_sched_vt) {
          check.fail("client_end vt precedes the previous flush's sched.vt");
        }
        max_vt = round_scheduled ? std::max(max_vt, vt) : vt;
        round_scheduled = true;
        round_staleness.emplace_back(staleness, version);
      }
      double secs = 0.0;
      if (check.opt_num(obj, "seconds", &secs)) client_seconds.observe(secs);
    } else if (type == "round_end") {
      ++rounds;
      if (!in_round) check.fail("round_end outside a round");
      if (check.num(obj, "round") != round_id) {
        check.fail("round_end round mismatch");
      }
      // Excluded clients (dropout/timeout/failed + quarantined) are
      // announced in the fault extras; absent extras mean none excluded.
      double f_dropped = 0.0, f_quarantined = 0.0;
      check.opt_num(obj, "fault.dropped", &f_dropped);
      check.opt_num(obj, "fault.quarantined", &f_quarantined);
      if (check.num(obj, "clients") != round_k - f_dropped - f_quarantined) {
        check.fail("round_end clients != k minus excluded clients");
      }
      if (clients_seen != round_k) {
        check.fail("round saw " + std::to_string(clients_seen) +
                   " client_end events, expected " + std::to_string(round_k));
      }
      const double loss = check.num(obj, "loss");
      const double lo = check.num(obj, "loss_min");
      const double hi = check.num(obj, "loss_max");
      if (lo > loss || loss > hi) {
        check.fail("round_end loss outside [loss_min, loss_max]");
      }
      check.num(obj, "weight");
      check.num(obj, "bytes_up");
      check.num(obj, "bytes_down");
      double vsecs = 0.0;
      if (check.opt_num(obj, "vseconds", &vsecs) && vsecs < 0.0) {
        check.fail("round_end negative vseconds");
      }
      // Scheduler staleness accounting: sched.version is the POST-flush
      // server version, so the pre-flush version every staleness was
      // measured against is one less — unless the flush aborted
      // (fault.aborted), which bumps nothing.
      double sched_version = 0.0;
      if (check.opt_num(obj, "sched.version", &sched_version)) {
        if (!round_scheduled) {
          check.fail("round_end sched.version without scheduled client_end "
                     "events");
        }
        double aborted = 0.0;
        check.opt_num(obj, "fault.aborted", &aborted);
        const double pre_version =
            aborted != 0.0 ? sched_version : sched_version - 1.0;
        for (const auto& [staleness, version] : round_staleness) {
          if (staleness != pre_version - version) {
            check.fail("client staleness " + std::to_string(staleness) +
                       " != pre-flush version " +
                       std::to_string(pre_version) + " - client version " +
                       std::to_string(version));
          }
        }
        double sched_vt = 0.0;
        if (check.opt_num(obj, "sched.vt", &sched_vt)) {
          if (round_scheduled && max_vt > sched_vt) {
            check.fail("client_end vt exceeds round_end sched.vt");
          }
          last_sched_vt = sched_vt;
        }
      } else if (round_scheduled) {
        check.fail("scheduled client_end events without round_end "
                   "sched.version");
      }
      // Net daemon extras: net.edges announces the hierarchical edge
      // tier's group count (>= 1 whenever an edge tier ran); the
      // net.bytes_* / net.frames_* counters are cumulative over the whole
      // run, so within a run they can only grow.
      double net_edges = 0.0;
      if (check.opt_num(obj, "net.edges", &net_edges) && net_edges < 1.0) {
        check.fail("round_end net.edges < 1");
      }
      const struct {
        const char* name;
        double* last;
      } net_counters[] = {
          {"net.bytes_rx", &last_net_bytes_rx},
          {"net.bytes_tx", &last_net_bytes_tx},
          {"net.frames_rx", &last_net_frames_rx},
          {"net.frames_tx", &last_net_frames_tx},
      };
      for (const auto& c : net_counters) {
        double v = 0.0;
        if (!check.opt_num(obj, c.name, &v)) continue;
        if (v < 0.0) {
          check.fail(std::string("round_end negative ") + c.name);
        } else if (v < *c.last) {
          check.fail(std::string("round_end ") + c.name +
                     " decreased across rounds");
        }
        *c.last = v;
      }
      // Population materialization extras: every materialization resolves
      // as exactly one cache hit or one miss (pop.* appear together, from
      // one scheduler stamp), and generation time can only be non-negative.
      double pop_mat = 0.0;
      if (check.opt_num(obj, "pop.materializations", &pop_mat)) {
        double pop_hits = 0.0, pop_misses = 0.0, pop_gen = 0.0;
        if (!check.opt_num(obj, "pop.hits", &pop_hits) ||
            !check.opt_num(obj, "pop.misses", &pop_misses)) {
          check.fail("round_end pop.materializations without pop.hits / "
                     "pop.misses");
        } else if (pop_hits + pop_misses != pop_mat) {
          check.fail("round_end pop.hits + pop.misses != "
                     "pop.materializations");
        }
        if (check.opt_num(obj, "pop.gen_seconds", &pop_gen) &&
            pop_gen < 0.0) {
          check.fail("round_end negative pop.gen_seconds");
        }
      }
      double secs = 0.0;
      if (check.opt_num(obj, "seconds", &secs)) round_seconds.observe(secs);
      in_round = false;
    } else if (type == "eval") {
      ++evals;
      check.num(obj, "round");
      check.num(obj, "average");
      check.num(obj, "variance");
      check.num(obj, "worst_case");
      const double devices = check.num(obj, "devices");
      const JsonValue* per = check.field(obj, "per_device");
      if (!per || !per->is_array()) {
        check.fail("eval without \"per_device\" array");
      } else if (static_cast<double>(per->numbers.size()) != devices) {
        check.fail("eval per_device array size != devices");
      }
    } else {
      check.fail("unknown event type \"" + type + "\"");
    }
  }
  if (in_round) check.fail("trace ends inside an open round");
  if (check.line_no == 0) check.fail("empty trace");

  std::printf("trace_check: %zu line(s), %zu run(s), %zu round(s), "
              "%zu client update(s), %zu eval(s)\n",
              check.line_no, runs, rounds, clients, evals);
  if (round_seconds.count() > 0) {
    std::printf("  round seconds: p50 %.6f  p90 %.6f  p99 %.6f  max %.6f\n",
                round_seconds.percentile(50), round_seconds.percentile(90),
                round_seconds.percentile(99), round_seconds.max());
  }
  if (client_seconds.count() > 0) {
    std::printf("  client seconds: p50 %.6f  p90 %.6f  p99 %.6f  max %.6f\n",
                client_seconds.percentile(50), client_seconds.percentile(90),
                client_seconds.percentile(99), client_seconds.max());
  }
  if (check.errors > 0) {
    std::fprintf(stderr, "trace_check: %zu violation(s)\n", check.errors);
    return 1;
  }
  std::printf("  OK\n");
  return 0;
}
