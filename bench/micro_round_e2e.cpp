// End-to-end round-throughput bench: full HeteroSwitch federated rounds on
// a synthetic squeeze-mini population, once per kernel mode —
//   reference, tiled and fast (HS_KERNEL) —
// reporting clients/s and rounds/s per mode. Also re-runs the tiled mode
// with a larger thread count than selected clients (the executor's
// intra-op lone-straggler/spare-worker grant) and checks the loss history
// is bit-identical to the serial run, per the §13 determinism contract.
//
// Writes BENCH_round_e2e.json fresh (one JSONL record per mode) and exits
// nonzero if fast fails to reach 1.3x tiled round throughput or the
// intra-op determinism check fails, so CI can gate on it directly.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "hetero/heteroswitch.h"
#include "kernels/kernels.h"

using namespace hetero;
using namespace hetero::bench;

namespace {

/// Two-class synthetic image set; label encoded in brightness so a few
/// rounds of training actually move the loss (and HeteroSwitch's EMA).
Dataset make_clients_data(std::size_t n, std::size_t image, std::size_t seed) {
  Rng rng(seed);
  const std::size_t pix = 3 * image * image;
  Tensor xs({n, 3, image, image});
  std::vector<std::size_t> labels(n);
  for (std::size_t j = 0; j < n; ++j) {
    labels[j] = j % 2;
    const float base = labels[j] == 0 ? 0.25f : 0.75f;
    for (std::size_t p = 0; p < pix; ++p) {
      xs[j * pix + p] = base + rng.uniform_f(-0.1f, 0.1f);
    }
  }
  return Dataset(std::move(xs), std::move(labels));
}

struct ModeResult {
  double seconds = 0.0;
  std::vector<double> loss_history;
};

}  // namespace

int main() {
  const Scale scale;
  print_header("micro", "round e2e: reference vs tiled vs fast", scale);

  // Smoke shrinks the images along with the counts; the paper-shaped run
  // uses the paper's 32x32 inputs (the micro_gemm layer inventory assumes
  // the same), so its GEMM-to-overhead mix matches real rounds.
  const std::size_t image = scale.paper_scale() ? 32 : 16;
  const std::size_t rounds = static_cast<std::size_t>(scale.rounds(4, 40));
  const std::size_t num_clients = 8;
  const std::size_t clients_per_round = 4;
  const std::size_t samples_per_client =
      static_cast<std::size_t>(scale.n(20, 100));

  ModelSpec spec;
  spec.arch = "squeeze-mini";  // conv-heavy, GEMM-dominated, no batch norm
  spec.image_size = image;
  spec.num_classes = 2;

  FlPopulation clients;
  for (std::size_t i = 0; i < num_clients; ++i) {
    clients.client_train.push_back(
        make_clients_data(samples_per_client, image, 900 + i));
    clients.client_device.push_back(0);
  }
  clients.device_test.push_back(make_clients_data(24, image, 990));
  clients.device_names.push_back("synthetic");
  const MaterializedPopulation pop(std::move(clients));

  const LocalTrainConfig cfg = paper_local_config();

  // One full simulation under the given kernel mode. The model is rebuilt
  // from the same seed each time so every mode trains the same network on
  // the same schedule.
  auto run_mode = [&](kernels::KernelKind kind, std::size_t threads) {
    kernels::set_active_kernel(kind);
    Rng mrng(7);
    auto model = make_model(spec, mrng);
    HeteroSwitchOptions options;
    options.switch_on_unseeded_ema = true;  // probe evals from round 0
    HeteroSwitch algo(cfg, options);
    SimulationConfig sim;
    sim.rounds = rounds;
    sim.clients_per_round = clients_per_round;
    sim.seed = scale.seed();
    sim.num_threads = threads;
    ModeResult r;
    Timer t;
    const SimulationResult res = run_simulation(*model, algo, pop, sim);
    r.seconds = t.elapsed_s();
    r.loss_history = res.train_loss_history;
    kernels::set_active_kernel(kernels::KernelKind::kTiled);
    return r;
  };

  struct Mode {
    const char* name;
    kernels::KernelKind kind;
  };
  const Mode modes[] = {
      {"reference", kernels::KernelKind::kReference},
      {"tiled", kernels::KernelKind::kTiled},
      {"fast", kernels::KernelKind::kFast},
  };

  // HS_E2E_MODES: comma list restricting which modes run (e.g.
  // "tiled,fast" to skip the slow reference sweep when profiling or
  // gating). Default: all. The 1.3x check only applies when both tiled
  // and fast ran.
  const char* mode_filter = std::getenv("HS_E2E_MODES");
  const auto mode_selected = [&](const char* name) {
    if (mode_filter == nullptr || *mode_filter == '\0') return true;
    const std::string list(mode_filter);
    const std::string want(name);
    std::size_t pos = 0;
    while (pos <= list.size()) {
      const std::size_t comma = std::min(list.find(',', pos), list.size());
      if (list.compare(pos, comma - pos, want) == 0) return true;
      pos = comma + 1;
    }
    return false;
  };

  Table table({"Mode", "Rounds/s", "Clients/s", "vs tiled"});
  std::ofstream jsonl("BENCH_round_e2e.json");  // fresh, not appended
  double tiled_rps = 0.0;
  const std::size_t threads = scale.threads() ? scale.threads() : 1;
  // Throughput ratios gate the acceptance check below, so take the best of
  // at least three runs per mode — single timings on a shared box swing
  // by ~15%, which is larger than the margin being measured. Repetitions
  // are interleaved across modes (rep-major, not mode-major) so a
  // multi-second noise burst degrades one rep of every mode rather than
  // every rep of whichever mode it landed on; best-of then drops it.
  const std::size_t reps = std::max<std::size_t>(scale.repeats(), 5);
  std::vector<const Mode*> selected;
  for (const Mode& mode : modes) {
    if (mode_selected(mode.name)) selected.push_back(&mode);
  }
  std::vector<ModeResult> best(selected.size());
  // Per-(rep, mode) wall times: the acceptance ratio below pairs tiled and
  // fast within each rep (they run seconds apart, so they see the same box
  // speed) and takes the median pair — best-of per mode can pick each
  // mode's luckiest window from *different* reps, which re-introduces
  // exactly the noise the ratio needs cancelled.
  std::vector<std::vector<double>> rep_seconds(selected.size());
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t m = 0; m < selected.size(); ++m) {
      ModeResult r = run_mode(selected[m]->kind, threads);
      rep_seconds[m].push_back(r.seconds);
      if (rep == 0 || r.seconds < best[m].seconds) best[m] = std::move(r);
    }
  }
  // Median of the per-rep paired ratios (see the rep loop comment); this is
  // what the acceptance check gates on, and it is recorded on the fast row.
  double paired_speedup = 0.0;
  if (mode_selected("tiled") && mode_selected("fast")) {
    std::size_t tiled_m = 0, fast_m = 0;
    for (std::size_t m = 0; m < selected.size(); ++m) {
      if (std::string(selected[m]->name) == "tiled") tiled_m = m;
      if (std::string(selected[m]->name) == "fast") fast_m = m;
    }
    std::vector<double> ratios;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      ratios.push_back(rep_seconds[tiled_m][rep] / rep_seconds[fast_m][rep]);
    }
    std::sort(ratios.begin(), ratios.end());
    paired_speedup = ratios[ratios.size() / 2];
  }

  for (std::size_t m = 0; m < selected.size(); ++m) {
    if (std::string(selected[m]->name) == "tiled") {
      tiled_rps = static_cast<double>(rounds) / best[m].seconds;
    }
  }
  for (std::size_t m = 0; m < selected.size(); ++m) {
    const Mode& mode = *selected[m];
    const double rps = static_cast<double>(rounds) / best[m].seconds;
    const double cps =
        static_cast<double>(rounds * clients_per_round) / best[m].seconds;
    const double vs_tiled = tiled_rps > 0.0 ? rps / tiled_rps : 1.0;
    char rps_s[32], cps_s[32], sp_s[32];
    std::snprintf(rps_s, sizeof rps_s, "%.3f", rps);
    std::snprintf(cps_s, sizeof cps_s, "%.2f", cps);
    std::snprintf(sp_s, sizeof sp_s, "%.2fx", vs_tiled);
    table.add_row({mode.name, rps_s, cps_s, sp_s});
    jsonl << "{\"bench\":\"micro_round_e2e\",\"mode\":\"" << mode.name
          << "\",\"rounds\":" << rounds
          << ",\"clients_per_round\":" << clients_per_round
          << ",\"rounds_per_s\":" << rps << ",\"clients_per_s\":" << cps
          << ",\"speedup_vs_tiled\":" << vs_tiled;
    if (std::string(mode.name) == "fast" && paired_speedup > 0.0) {
      jsonl << ",\"paired_speedup_vs_tiled\":" << paired_speedup;
    }
    jsonl << "}\n";
  }

  finish(table, "micro_round_e2e");
  std::printf("\n[jsonl] BENCH_round_e2e.json (fresh)\n");

  if (!mode_selected("tiled") || !mode_selected("fast")) {
    std::printf("\n[check] skipped (HS_E2E_MODES hides tiled and/or fast)\n");
    return 0;
  }

  // Intra-op determinism: tiled with more threads than selected clients
  // routes through the executor's ScopedIntraOp grant; the loss history
  // must match the serial run bit for bit (DESIGN.md §13).
  const ModeResult serial = run_mode(kernels::KernelKind::kTiled, 1);
  const ModeResult pooled =
      run_mode(kernels::KernelKind::kTiled, clients_per_round + 2);
  bool deterministic = serial.loss_history.size() == pooled.loss_history.size();
  for (std::size_t i = 0; deterministic && i < serial.loss_history.size();
       ++i) {
    deterministic = serial.loss_history[i] == pooled.loss_history[i];
  }
  std::printf("[check] intra-op determinism (threads=1 vs %zu): %s\n",
              clients_per_round + 2, deterministic ? "bit-identical" : "FAIL");
  if (!deterministic) return 1;

  std::printf(
      "[check] fast vs tiled round throughput (median paired): %.2fx "
      "(need >= 1.30x)\n",
      paired_speedup);
  if (paired_speedup < 1.3) {
    std::printf("[check] FAIL: fast kind below the 1.3x acceptance bar\n");
    return 1;
  }
  return 0;
}
