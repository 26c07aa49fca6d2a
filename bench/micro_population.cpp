// Microbenchmark: virtual million-client populations (DESIGN.md §12).
//
// Phase 1 (flat RSS): runs the same FedAvg workload (k clients per round,
// paper-shaped 1M-client federation at HS_SCALE=1) over VirtualPopulation
// at increasing population sizes and reads the process peak RSS (VmHWM)
// after each. The lazy provider's working set is O(k) — per-worker
// ClientSlot arenas plus the O(#devices) test sets — so the peak must stay
// flat as N grows 100x: the acceptance gate is peak RSS at the largest N
// within 10% of the smallest. Populations run in ascending order because
// VmHWM is monotonic; only that ordering makes the ratio meaningful.
//
// Phase 2 (parity): builds VirtualPopulation and MaterializedPopulation
// from the same (spec, root) and runs the identical simulation on both —
// final model state and loss history must match bit-for-bit (the
// Identical column), the per-client half of which is asserted in
// tests/test_population.cpp.
//
// Honours HS_ROUNDS / HS_SEED / HS_SCALE / HS_THREADS; HS_TRACE wires the
// runs into the trace_smoke_population ctest. Appends one JSONL record per
// row to BENCH_population.json.
#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fl/population.h"
#include "image/fastpath.h"

using namespace hetero;
using namespace hetero::bench;

namespace {

/// Peak resident set size of this process in kB (VmHWM; 0 off-Linux).
std::size_t vm_hwm_kb() {
#ifdef __linux__
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(6)));
    }
  }
#endif
  return 0;
}

/// Small-geometry population recipe: the bench measures memory scaling, so
/// scenes, tensors, and local datasets stay tiny while N explodes.
PopulationSpec bench_spec(std::size_t num_clients,
                          const SceneGenerator& scenes) {
  PopulationConfig pcfg;
  pcfg.num_clients = num_clients;
  pcfg.samples_per_client = 8;
  pcfg.test_per_class = 2;
  pcfg.capture.tensor_size = 8;
  return PopulationSpec::single_label(paper_devices(), pcfg, scenes);
}

SimulationResult run_fedavg(const ClientProvider& pop, std::size_t rounds,
                            std::size_t k, const Scale& scale,
                            const std::string& label) {
  ModelSpec spec;
  spec.arch = "mlp-tiny";
  spec.image_size = 8;
  spec.num_classes = 12;
  Rng model_rng(scale.seed());
  auto model = make_model(spec, model_rng);
  FedAvg algo(paper_local_config());

  SimulationConfig sim;
  sim.rounds = rounds;
  sim.clients_per_round = k;
  sim.seed = scale.seed() + 1;
  sim.num_threads = scale.threads();
  sim.observer = trace_sink().run(label);
  return run_simulation(*model, algo, pop, sim);
}

}  // namespace

int main() {
  const Scale scale;
  print_header("micro",
               "virtual populations: flat RSS over 100x client growth "
               "(FedAvg)",
               scale);

  const std::size_t rounds = static_cast<std::size_t>(scale.rounds(2, 20));
  const std::size_t k = static_cast<std::size_t>(scale.n(10, 100));
  const std::vector<std::size_t> sweep =
      scale.paper_scale() ? std::vector<std::size_t>{10'000, 1'000'000}
                          : std::vector<std::size_t>{5'000, 50'000};

  SceneGenerator scenes(16);
  const Rng pop_root = Rng(scale.seed()).fork(1);

  Table table({"Population", "N", "Rounds", "K", "FinalLoss", "PeakRSS(MB)",
               "RSSRatio", "Identical"});
  std::ofstream jsonl("BENCH_population.json", std::ios::app);

  // Phase 1: ascending-N sweep over the lazy provider.
  std::size_t base_hwm_kb = 0;
  for (std::size_t n : sweep) {
    const VirtualPopulation pop(bench_spec(n, scenes), pop_root);
    const SimulationResult r =
        run_fedavg(pop, rounds, k, scale,
                   "micro_population.virtual.n=" + std::to_string(n));
    const std::size_t hwm = vm_hwm_kb();
    if (base_hwm_kb == 0) base_hwm_kb = hwm;
    const double ratio =
        base_hwm_kb > 0 ? static_cast<double>(hwm) /
                              static_cast<double>(base_hwm_kb)
                        : 0.0;
    char loss_s[32], rss_s[32], ratio_s[32];
    std::snprintf(loss_s, sizeof loss_s, "%.4f", r.train_loss_history.back());
    std::snprintf(rss_s, sizeof rss_s, "%.1f",
                  static_cast<double>(hwm) / 1024.0);
    std::snprintf(ratio_s, sizeof ratio_s, "%.3f", ratio);
    table.add_row({"virtual", std::to_string(n), std::to_string(rounds),
                   std::to_string(k), loss_s, rss_s, ratio_s, "-"});
    jsonl << "{\"bench\":\"micro_population\",\"population\":\"virtual\","
          << "\"n\":" << n << ",\"rounds\":" << rounds << ",\"k\":" << k
          << ",\"vm_hwm_kb\":" << hwm << ",\"rss_ratio\":" << ratio << "}\n";
    std::fprintf(stderr,
                 "[micro_population] virtual N=%zu: peak RSS %.1f MB "
                 "(ratio %.3f vs N=%zu)\n",
                 n, static_cast<double>(hwm) / 1024.0, ratio, sweep.front());
  }

  // Phase 2: virtual vs materialized parity at a size the eager layout can
  // afford. Same spec + root, same simulation — results must be
  // bit-identical.
  {
    const std::size_t n = 200;
    const std::size_t parity_k = std::min<std::size_t>(k, 20);
    const PopulationSpec spec = bench_spec(n, scenes);
    const VirtualPopulation lazy(spec, pop_root);
    const MaterializedPopulation eager(spec, pop_root);
    const SimulationResult rv = run_fedavg(
        lazy, rounds, parity_k, scale, "micro_population.parity.virtual");
    const SimulationResult rm = run_fedavg(
        eager, rounds, parity_k, scale, "micro_population.parity.eager");
    const bool identical =
        rv.train_loss_history == rm.train_loss_history &&
        rv.final_metrics.per_device == rm.final_metrics.per_device;
    char loss_s[32];
    std::snprintf(loss_s, sizeof loss_s, "%.4f",
                  rv.train_loss_history.back());
    table.add_row({"parity", std::to_string(n), std::to_string(rounds),
                   std::to_string(parity_k), loss_s, "-", "-",
                   identical ? "yes" : "NO"});
    jsonl << "{\"bench\":\"micro_population\",\"population\":\"parity\","
          << "\"n\":" << n << ",\"rounds\":" << rounds
          << ",\"k\":" << parity_k << ",\"identical\":"
          << (identical ? "true" : "false") << "}\n";
    std::fprintf(stderr, "[micro_population] parity N=%zu: %s\n", n,
                 identical ? "bit-identical" : "RESULTS DIVERGED");
  }

  // Phase 3: cold generation. Every client_dataset call re-runs scene
  // synthesis + the full capture pipeline, so this row isolates the ISP
  // substrate's share of materialization cost: the reference ISP path vs the
  // vectorized fast path (bit-identical — tests/test_isp_parity.cpp), same
  // clients, same bytes out.
  {
    const std::size_t n = 16;
    const VirtualPopulation pop(bench_spec(n, scenes), pop_root);
    const img::PathKind env_path = img::active_path();
    auto materialize_all = [&](img::PathKind kind) {
      img::set_active_path(kind);
      ClientSlot slot;
      Timer t;
      for (std::size_t c = 0; c < n; ++c) (void)pop.client_dataset(c, slot);
      return t.elapsed_s() * 1e6;
    };
    const std::size_t reps = std::max<std::size_t>(scale.repeats(), 3);
    std::vector<double> ratios, ref_all, fast_all;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const double ref_us = materialize_all(img::PathKind::kReference);
      const double fast_us = materialize_all(img::PathKind::kFast);
      ref_all.push_back(ref_us);
      fast_all.push_back(fast_us);
      ratios.push_back(ref_us / fast_us);
    }
    img::set_active_path(env_path);
    std::sort(ratios.begin(), ratios.end());
    std::sort(ref_all.begin(), ref_all.end());
    std::sort(fast_all.begin(), fast_all.end());
    const double speedup = ratios[ratios.size() / 2];
    const double ref_med = ref_all[ref_all.size() / 2];
    const double fast_med = fast_all[fast_all.size() / 2];
    char sp_s[32];
    std::snprintf(sp_s, sizeof sp_s, "%.2fx", speedup);
    table.add_row({"cold", std::to_string(n), "-", "-", "-", "-", sp_s, "-"});
    jsonl << "{\"bench\":\"micro_population\",\"population\":\"cold\","
          << "\"n\":" << n << ",\"reference_us\":" << ref_med
          << ",\"fast_us\":" << fast_med << ",\"speedup\":" << speedup
          << "}\n";
    std::fprintf(stderr,
                 "[micro_population] cold N=%zu: %.0f us reference vs %.0f us "
                 "fast (%.2fx, median paired)\n",
                 n, ref_med, fast_med, speedup);
  }

  finish(table, "micro_population");
  std::printf(
      "\n[jsonl] BENCH_population.json (appended)\n"
      "Expected shape: RSSRatio stays within 1.10 as N grows 100x (the lazy "
      "provider's working set is O(k), not O(N)); the parity row's Identical "
      "column must read yes (virtual and materialized populations are the "
      "same recipe); the cold row's RSSRatio column shows the fast ISP path's "
      "speedup over reference on materialization.\n");
  return 0;
}
