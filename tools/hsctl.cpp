// hsctl — command-line front end to the HeteroSwitch library.
//
//   hsctl devices                       list the Table 1 device registry
//   hsctl capture [options]             render a scene, capture it with a
//                                       device, export PPM images
//   hsctl signature                     device-by-device heterogeneity
//                                       distance matrix (statistics-level
//                                       Table 2)
//   hsctl train [options]               centralized train-on-one-device,
//                                       evaluate on all devices
//   hsctl fl [options]                  run a federated simulation
//   hsctl serve [options]               FL root server over TCP
//   hsctl client [options]              FL worker node over TCP
//   hsctl edge [options]                FL edge aggregator over TCP
//
// Common options: --seed N. See `hsctl <command> --help` for the rest.
//
// The distributed trio (serve/client/edge) speaks the binary wire protocol
// of DESIGN.md §14. Every node must be launched with the SAME population /
// method / seed flags: the protocol ships only round assignments and model
// states, and relies on each node deterministically rebuilding the same
// population and algorithm. A distributed run is then byte-identical to
// `hsctl fl` with the same flags, because the root runs the same
// run_simulation with the remote workers as its train step.
// HS_NET="maxframe=BYTES" tunes the frame bound.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/builder.h"
#include "device/device_profile.h"
#include "fl/eval.h"
#include "fl/compression.h"
#include "fl/privacy.h"
#include "fl/simulation.h"
#include "hetero/hetero_metrics.h"
#include "hetero/heteroswitch.h"
#include "image/ppm.h"
#include "net/event_loop.h"
#include "net/node.h"
#include "nn/model_zoo.h"
#include "runtime/faults.h"
#include "scene/scene_gen.h"
#include "util/config.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

using namespace hetero;

namespace {

/// Progress printer for `hsctl fl`: one line every 10 rounds, with the
/// richer RoundStats the observer API delivers (loss spread + switches).
class ProgressObserver : public RoundObserver {
 public:
  void on_round_end(std::size_t round, const RoundStats& stats) override {
    if (round % 10 != 0) return;
    std::printf("  round %zu  loss %.3f  [%.3f, %.3f]  (%.1fs)\n", round,
                stats.mean_train_loss, stats.min_train_loss,
                stats.max_train_loss, timer_.elapsed_s());
    std::fflush(stdout);
  }

 private:
  Timer timer_;
};

/// Minimal --key value argument parser.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) == 0) {
        key = key.substr(2);
        if (key == "help") {
          help_ = true;
        } else if (i + 1 < argc) {
          values_[key] = argv[++i];
        } else {
          std::fprintf(stderr, "missing value for --%s\n", key.c_str());
          ok_ = false;
        }
      } else {
        std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
        ok_ = false;
      }
    }
  }

  bool ok() const { return ok_; }
  bool help() const { return help_; }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// Numeric flags are strict: anything but the whole value throws,
  /// naming the flag.
  std::uint64_t get_uint(const std::string& key,
                         std::uint64_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::optional<std::uint64_t> v = parse_uint(it->second);
    if (!v) bad_value(key, "a non-negative integer");
    return *v;
  }
  std::uint16_t get_port(const std::string& key,
                         std::uint16_t fallback) const {
    const std::uint64_t port = get_uint(key, fallback);
    if (port > 65535) bad_value(key, "a port in 0..65535");
    return static_cast<std::uint16_t>(port);
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::optional<double> v = parse_double(it->second);
    if (!v) bad_value(key, "a finite number");
    return *v;
  }

 private:
  [[noreturn]] void bad_value(const std::string& key,
                              const std::string& expected) const {
    throw std::invalid_argument("--" + key + ": expected " + expected +
                                ", got '" + values_.at(key) + "'");
  }

  std::map<std::string, std::string> values_;
  bool ok_ = true;
  bool help_ = false;
};

int cmd_devices() {
  Table table({"Device", "Vendor", "Tier", "Share", "Sensor", "ISP"});
  for (const auto& d : paper_devices()) {
    char sensor[96];
    std::snprintf(sensor, sizeof(sensor), "%zux%zu %d-bit noise=%.3f",
                  d.sensor.raw_width, d.sensor.raw_height, d.sensor.bit_depth,
                  d.sensor.shot_noise);
    table.add_row({d.name, d.vendor, std::string(1, d.tier),
                   Table::fmt(d.market_share, 0) + "%", sensor,
                   d.isp.describe()});
  }
  table.print(std::cout);
  return 0;
}

int cmd_capture(const Args& args) {
  if (args.help()) {
    std::printf(
        "hsctl capture [--device NAME] [--class K] [--seed N] [--prefix P]\n"
        "Renders one scene, captures it with the device, and writes:\n"
        "  P_scene.ppm  P_raw.ppm  P_processed.ppm\n");
    return 0;
  }
  const std::string device_name = args.get("device", "GalaxyS9");
  const std::size_t cls = args.get_uint("class", 0);
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string prefix = args.get("prefix", "hsctl");

  const DeviceProfile& device = device_by_name(device_name);
  SceneGenerator scenes(64);
  Rng rng(seed);
  const Image scene = scenes.generate(cls, rng);
  const SensorModel sensor = device.sensor_model();
  Rng cap_rng = rng.fork(1);
  const RawImage raw = sensor.capture(scene, cap_rng);
  const Image processed = run_isp(raw, device.isp);

  const std::string scene_path = prefix + "_scene.ppm";
  const std::string raw_path = prefix + "_raw.ppm";
  const std::string out_path = prefix + "_processed.ppm";
  // The scene is linear light; encode for display.
  if (!write_ppm(scene_path, srgb_encode(scene)) ||
      !write_ppm_mosaic(raw_path, raw) || !write_ppm(out_path, processed)) {
    std::fprintf(stderr, "capture: failed to write PPM files\n");
    return 1;
  }
  std::printf("class '%s' captured by %s\n  %s\n  %s\n  %s\n",
              SceneGenerator::class_name(cls), device.name.c_str(),
              scene_path.c_str(), raw_path.c_str(), out_path.c_str());
  return 0;
}

int cmd_signature(const Args& args) {
  if (args.help()) {
    std::printf(
        "hsctl signature [--per-class K] [--seed N]\n"
        "Statistics-level heterogeneity distance between all devices.\n");
    return 0;
  }
  const std::size_t per_class = args.get_uint("per-class", 3);
  const std::uint64_t seed = args.get_uint("seed", 42);
  SceneGenerator scenes(64);
  CaptureConfig cfg;
  std::vector<Dataset> datasets;
  for (const auto& d : paper_devices()) {
    Rng rng(seed);  // identical scene stream per device
    datasets.push_back(build_device_dataset(d, per_class, scenes, cfg, rng));
  }
  std::vector<const Dataset*> ptrs;
  for (const auto& d : datasets) ptrs.push_back(&d);
  const auto matrix = pairwise_heterogeneity(ptrs);

  std::vector<std::string> header = {"Device"};
  for (const auto& d : paper_devices()) header.push_back(d.name);
  Table table(header);
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    std::vector<std::string> row = {paper_devices()[i].name};
    for (std::size_t j = 0; j < matrix.size(); ++j) {
      row.push_back(Table::fmt(matrix[i][j], 3));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  return 0;
}

int cmd_train(const Args& args) {
  if (args.help()) {
    std::printf(
        "hsctl train [--device NAME] [--epochs E] [--per-class K] "
        "[--arch A] [--seed N]\n"
        "Trains on one device's captures, evaluates on every device.\n");
    return 0;
  }
  const std::string device_name = args.get("device", "GalaxyS9");
  const std::size_t epochs = args.get_uint("epochs", 10);
  const std::size_t per_class = args.get_uint("per-class", 12);
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string arch = args.get("arch", "mobile-mini");

  SceneGenerator scenes(64);
  CaptureConfig cfg;
  Rng root(seed);
  Rng train_rng = root.fork(1);
  Dataset train = build_device_dataset(device_by_name(device_name), per_class,
                                       scenes, cfg, train_rng);
  ModelSpec spec;
  spec.arch = arch;
  Rng model_rng = root.fork(2);
  auto model = make_model(spec, model_rng);
  LocalTrainConfig local;
  local.lr = 0.1f;
  local.batch_size = 10;
  Timer timer;
  Rng epoch_rng = root.fork(3);
  float loss = 0.0f;
  for (std::size_t e = 0; e < epochs; ++e) {
    loss = local_train(*model, train, local, epoch_rng);
  }
  std::printf("trained %s on %s for %zu epochs (loss %.3f, %.1fs)\n",
              arch.c_str(), device_name.c_str(), epochs, loss,
              timer.elapsed_s());
  Table table({"TestDevice", "Accuracy"});
  for (const auto& d : paper_devices()) {
    Rng test_rng = root.fork(500);
    Dataset test = build_device_dataset(d, 4, scenes, cfg, test_rng);
    table.add_row({d.name, Table::pct(evaluate_accuracy(*model, test))});
  }
  table.print(std::cout);
  return 0;
}

/// Everything a federated run needs, built deterministically from the
/// shared command-line flags. The scene generator is owned here because
/// PopulationSpec borrows it. serve/client/edge build the same stack from
/// the same flags, which is what makes a distributed run byte-identical to
/// the monolithic `hsctl fl`.
struct FlStack {
  std::unique_ptr<SceneGenerator> scenes;
  std::unique_ptr<ClientProvider> population;
  std::unique_ptr<SplitFederatedAlgorithm> algorithm;
  std::unique_ptr<Model> model;
};

std::unique_ptr<SplitFederatedAlgorithm> build_algorithm(const Args& args) {
  const std::string method = args.get("method", "heteroswitch");
  LocalTrainConfig local;
  local.lr = 0.1f;
  local.batch_size = 10;
  if (method == "fedavg") return std::make_unique<FedAvg>(local);
  if (method == "heteroswitch") {
    return std::make_unique<HeteroSwitch>(local, HeteroSwitchOptions{});
  }
  if (method == "qfedavg") {
    return std::make_unique<QFedAvg>(local, args.get_double("q", 1e-6));
  }
  if (method == "fedprox") {
    return std::make_unique<FedProx>(
        local, static_cast<float>(args.get_double("mu", 0.1)));
  }
  if (method == "scaffold") return std::make_unique<Scaffold>(local);
  if (method == "fedavgm") {
    return std::make_unique<FedAvgM>(
        local, static_cast<float>(args.get_double("beta", 0.7)));
  }
  if (method == "compressed") {
    CompressionOptions comp;
    comp.top_k_fraction = static_cast<float>(args.get_double("topk", 0.1));
    comp.quantize_bits = static_cast<int>(args.get_uint("bits", 0));
    return std::make_unique<CompressedFedAvg>(local, comp);
  }
  if (method == "dpfedavg") {
    DpOptions dp;
    dp.clip_norm = static_cast<float>(args.get_double("clip", 1.0));
    dp.noise_multiplier = static_cast<float>(args.get_double("noise", 0.05));
    return std::make_unique<DpFedAvg>(local, dp);
  }
  std::fprintf(stderr, "unknown method: %s\n", method.c_str());
  return nullptr;
}

/// Builds the stack. `need_population` is false for edge aggregators, which
/// only fold updates and never touch client data or the model.
bool build_fl_stack(const Args& args, bool need_population, FlStack& out) {
  out.algorithm = build_algorithm(args);
  if (!out.algorithm) return false;
  if (!need_population) return true;

  const std::size_t n_clients = args.get_uint("clients", 30);
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string population_kind = args.get("population", "materialized");

  out.scenes = std::make_unique<SceneGenerator>(64);
  Rng root(seed);
  PopulationConfig pcfg;
  pcfg.num_clients = n_clients;
  pcfg.samples_per_client = 20;
  pcfg.test_per_class = 5;
  pcfg.capture.tensor_size = 16;
  pcfg.capture.illuminant_sigma_override = -1.0f;
  const PopulationSpec pspec =
      PopulationSpec::single_label(paper_devices(), pcfg, *out.scenes);
  const Rng pop_root = root.fork(1);
  if (population_kind == "virtual") {
    std::printf("virtual population (%zu clients, lazy)...\n", n_clients);
    out.population = std::make_unique<VirtualPopulation>(pspec, pop_root);
  } else if (population_kind == "materialized") {
    std::printf("building population (%zu clients)...\n", n_clients);
    out.population = std::make_unique<MaterializedPopulation>(pspec, pop_root);
  } else {
    std::fprintf(stderr, "unknown population kind: %s\n",
                 population_kind.c_str());
    return false;
  }

  ModelSpec spec;
  spec.image_size = 16;
  Rng model_rng = root.fork(2);
  out.model = make_model(spec, model_rng);
  return true;
}

/// HS_NET="maxframe=BYTES" — strict parse, throws on anything it does not
/// recognise (the repo's env-knob convention). Returns the frame bound.
std::size_t parse_net_env() {
  std::size_t max_payload = net::kDefaultMaxPayload;
  const char* env = std::getenv("HS_NET");
  if (env == nullptr || *env == '\0') return max_payload;
  std::string spec(env);
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("HS_NET: expected key=value, got '" + item +
                               "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "maxframe") {
      const std::optional<std::uint64_t> bytes = parse_uint(value);
      if (!bytes || *bytes == 0) {
        throw std::runtime_error("HS_NET: bad maxframe '" + value + "'");
      }
      max_payload = static_cast<std::size_t>(*bytes);
    } else {
      throw std::runtime_error("HS_NET: unknown key '" + key + "'");
    }
  }
  return max_payload;
}

bool split_host_port(const std::string& s, std::string& host,
                     std::uint16_t& port) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  const std::optional<std::uint64_t> p = parse_uint(s.substr(colon + 1));
  if (!p || *p == 0 || *p > 65535) return false;
  host = s.substr(0, colon);
  port = static_cast<std::uint16_t>(*p);
  return true;
}

/// The SimulationConfig of `hsctl fl` and `hsctl serve`, built from the
/// same flags.
SimulationConfig fl_sim_config(const Args& args) {
  SimulationConfig sim;
  sim.rounds = args.get_uint("rounds", 40);
  sim.clients_per_round = args.get_uint("per-round", 8);
  sim.seed = args.get_uint("seed", 42) + 3;
  sim.edge_groups = args.get_uint("edges", 0);
  sim.faults = parse_fault_spec(args.get("faults", ""));
  sim.faults.min_clients =
      args.get_uint("min-clients", sim.faults.min_clients);
  sim.sched = parse_sched_spec(args.get("sched", ""));
  sim.sched.buffer = args.get_uint("buffer", sim.sched.buffer);
  sim.sched.mix_alpha = args.get_double("alpha", sim.sched.mix_alpha);
  sim.sched.staleness_exponent =
      args.get_double("staleness-exp", sim.sched.staleness_exponent);
  sim.checkpoint.dir = args.get("checkpoint", "");
  sim.checkpoint.every = args.get_uint("ckpt-every", 1);
  return sim;
}

/// The result block shared by `fl` and `serve`: scheduler and fault totals,
/// the final-metrics table, and the last round's train loss in full
/// precision so two runs compare exactly.
void print_fl_result(const SplitFederatedAlgorithm& algo,
                     const SimulationConfig& sim, const ClientProvider& pop,
                     const SimulationResult& r) {
  const RuntimeStats& rt = r.runtime;
  if (sim.sched.scheduled()) {
    std::printf(
        "sched: %s  buffer %zu  dispatched %zu  committed %zu  "
        "staleness mean %.2f max %zu  virtual %.3fs  aborted flushes %zu\n",
        sched_mode_name(sim.sched.mode),
        sim.sched.resolve_buffer(sim.clients_per_round),
        rt.clients_dispatched, rt.updates_committed, rt.staleness_mean,
        rt.staleness_max, rt.virtual_seconds, rt.rounds_aborted);
  }
  if (sim.faults.enabled()) {
    std::printf(
        "faults: dropped %zu  quarantined %zu  straggled %zu  retries %zu  "
        "aborted rounds %zu\n",
        rt.clients_dropped, rt.clients_quarantined, rt.clients_straggled,
        rt.fault_retries, rt.rounds_aborted);
  }
  std::printf("\n%s after %zu rounds:\n", algo.name().c_str(), sim.rounds);
  Table table({"Device", "Accuracy"});
  const std::vector<std::string>& device_names = pop.device_names();
  for (std::size_t d = 0; d < device_names.size(); ++d) {
    table.add_row({device_names[d], Table::pct(r.final_metrics.per_device[d])});
  }
  table.print(std::cout);
  std::printf("average %.2f%%  variance %.2f  worst-case %.2f%%\n",
              r.final_metrics.average * 100, r.final_metrics.variance * 1e4,
              r.final_metrics.worst_case * 100);
  if (!r.train_loss_history.empty()) {
    std::printf("final train loss %.17g\n", r.train_loss_history.back());
  }
}

int cmd_fl(const Args& args) {
  if (args.help()) {
    std::printf(
        "hsctl fl [--method M] [--rounds T] [--clients N] [--per-round K] "
        "[--seed S]\n"
        "         [--faults SPEC] [--min-clients N]\n"
        "         [--sched sync|async|buffered] [--buffer B] [--alpha A] "
        "[--staleness-exp E]\n"
        "         [--population materialized|virtual] [--checkpoint DIR] "
        "[--ckpt-every N]\n"
        "Methods: fedavg heteroswitch qfedavg fedprox scaffold fedavgm "
        "dpfedavg compressed\n"
        "Faults:  SPEC is key=value pairs, e.g. "
        "drop=0.1,straggle=0.2,corrupt=0.05\n"
        "         (keys: drop fail retries backoff straggle delay timeout "
        "corrupt min seed tiers)\n"
        "Sched:   async aggregates per arrival with staleness decay "
        "(1+s)^-E;\n"
        "         buffered flushes every B terminal outcomes (0 = K); sync "
        "(the default)\n"
        "         runs rounds of K. --alpha and compute= act in every mode. "
        "--sched also\n"
        "         accepts a full spec, e.g. "
        "\"buffered,buffer=4,compute=0.01\".\n"
        "Population: virtual generates clients lazily (O(k) memory, scales "
        "to millions);\n"
        "         materialized is the eager layout. Bit-identical results "
        "either way.\n"
        "Checkpoint: write <DIR>/checkpoint.bin every --ckpt-every rounds "
        "and resume from\n"
        "         it when present (sync, or buffered with wave=1 and B = K).\n"
        "Edges:   --edges E folds each round through E partial digests (the "
        "two-level\n"
        "         tree of DESIGN.md §14; any --sched mode, "
        "partial-aggregation methods only).\n");
    return 0;
  }
  SimulationConfig sim = fl_sim_config(args);
  FlStack stack;
  if (!build_fl_stack(args, /*need_population=*/true, stack)) return 1;
  ProgressObserver progress;
  sim.observer = &progress;
  const SimulationResult r =
      run_simulation(*stack.model, *stack.algorithm, *stack.population, sim);
  print_fl_result(*stack.algorithm, sim, *stack.population, r);
  return 0;
}

int cmd_serve(const Args& args) {
  if (args.help()) {
    std::printf(
        "hsctl serve [--port P] [--host H] (--workers W | --edges E) "
        "[hsctl fl flags]\n"
        "Aggregation root of a distributed run: accepts W workers (flat) or\n"
        "E edge aggregators (two-level digest tree), then runs the same\n"
        "simulation as `hsctl fl` with the remote nodes as its train step\n"
        "and prints the same result block. Every node must be launched with\n"
        "the same fl flags; the run is byte-identical to `hsctl fl` (with\n"
        "--edges E for the edge tree). Faults, --alpha, compute= and\n"
        "--checkpoint work as in `hsctl fl`. Refused: continuous refill\n"
        "(async, or buffered without wave=1), methods other than fedavg,\n"
        "fedprox and qfedavg (their client phase reads server state), and\n"
        "under --edges qfedavg and flush windows other than one wave.\n"
        "--port 0 picks a free port and prints it. A lost worker or edge\n"
        "fails the run.\n"
        "HS_NET=\"maxframe=BYTES\" bounds the frame size.\n");
    return 0;
  }
  const std::uint16_t port = args.get_port("port", 7433);
  const std::string host = args.get("host", "127.0.0.1");
  const std::size_t workers = args.get_uint("workers", 0);
  SimulationConfig sim = fl_sim_config(args);
  const std::size_t edges = sim.edge_groups;
  if ((workers == 0) == (edges == 0)) {
    std::fprintf(stderr, "serve: pass exactly one of --workers or --edges\n");
    return 1;
  }
  const std::size_t max_payload = parse_net_env();
  FlStack stack;
  if (!build_fl_stack(args, /*need_population=*/true, stack)) return 1;
  ProgressObserver progress;
  sim.observer = &progress;

  net::EventLoop loop(max_payload);
  const std::size_t nodes = edges > 0 ? edges : workers;
  net::RootServer root(loop, nodes, edges, sim.rounds,
                       [&loop](const std::function<bool()>& until) {
                         loop.run(until);
                       });
  loop.set_handler([&root](std::size_t conn, const net::Frame& frame) {
    root.on_frame(conn, frame);
  });
  loop.set_closed_handler([&root](std::size_t conn) { root.on_closed(conn); });
  check_simulation_config(*stack.algorithm, *stack.population, sim, &root);
  const std::uint16_t bound = loop.listen(host, port);
  std::printf("serving on %s:%u (%zu %s, %zu rounds)\n", host.c_str(),
              static_cast<unsigned>(bound), nodes,
              edges > 0 ? "edges" : "workers", sim.rounds);
  std::fflush(stdout);
  loop.run([&root] { return root.ready() || root.failed(); });
  if (root.failed()) {
    std::fprintf(stderr, "hsctl serve: %s\n", root.error().c_str());
    return 1;
  }
  const SimulationResult r = run_simulation(
      *stack.model, *stack.algorithm, *stack.population, sim, &root);
  root.finish();
  loop.run([] { return true; });
  const net::NetCounters& net_totals = loop.counters();
  std::printf(
      "net: %llu frames / %llu bytes out, %llu frames / %llu bytes in, "
      "%llu bad\n",
      static_cast<unsigned long long>(net_totals.frames_tx),
      static_cast<unsigned long long>(net_totals.bytes_tx),
      static_cast<unsigned long long>(net_totals.frames_rx),
      static_cast<unsigned long long>(net_totals.bytes_rx),
      static_cast<unsigned long long>(net_totals.frames_bad));
  print_fl_result(*stack.algorithm, sim, *stack.population, r);
  return 0;
}

int cmd_client(const Args& args) {
  if (args.help()) {
    std::printf(
        "hsctl client --connect HOST:PORT --index I [fl flags]\n"
        "Worker node: connects to the root (or an edge), rebuilds the same\n"
        "population/model/method from the same fl flags, and trains its\n"
        "assigned clients each round until the server says Bye.\n");
    return 0;
  }
  std::string host;
  std::uint16_t port = 0;
  if (!split_host_port(args.get("connect", ""), host, port)) {
    std::fprintf(stderr, "client: --connect HOST:PORT required\n");
    return 1;
  }
  const std::uint64_t index = args.get_uint("index", 0);
  const std::size_t max_payload = parse_net_env();
  FlStack stack;
  if (!build_fl_stack(args, /*need_population=*/true, stack)) return 1;

  net::EventLoop loop(max_payload);
  const std::size_t conn = loop.connect(host, port);
  net::WorkerNode node(*stack.model, *stack.algorithm, *stack.population,
                       loop, conn, index);
  loop.set_handler([&node](std::size_t c, const net::Frame& frame) {
    node.on_frame(c, frame);
  });
  bool closed = false;
  loop.set_closed_handler([&closed](std::size_t) { closed = true; });
  node.start();
  loop.run([&] { return node.done() || node.failed() || closed; });
  if (node.failed()) {
    std::fprintf(stderr, "client: protocol failure: %s\n",
                 node.error().c_str());
    return 1;
  }
  if (!node.done()) {
    std::fprintf(stderr, "client: connection lost before Bye\n");
    return 1;
  }
  std::printf("client %llu: trained %zu rounds\n",
              static_cast<unsigned long long>(index), node.rounds_trained());
  return 0;
}

int cmd_edge(const Args& args) {
  if (args.help()) {
    std::printf(
        "hsctl edge --connect HOST:PORT [--port P] [--host H] --index I "
        "--workers W [--method ...]\n"
        "Edge aggregator: connects upstream to the root, accepts W workers\n"
        "on --port (0 picks a free port and prints it), relays wave configs\n"
        "and model states, and folds each wave's surviving updates into one\n"
        "renormalized weighted digest (DESIGN.md §14). Needs the same\n"
        "--method flags as the root; no population or model. A lost worker\n"
        "or root fails the node.\n");
    return 0;
  }
  std::string up_host;
  std::uint16_t up_port = 0;
  if (!split_host_port(args.get("connect", ""), up_host, up_port)) {
    std::fprintf(stderr, "edge: --connect HOST:PORT required\n");
    return 1;
  }
  const std::uint16_t port = args.get_port("port", 7434);
  const std::string host = args.get("host", "127.0.0.1");
  const std::uint64_t index = args.get_uint("index", 0);
  const std::size_t workers = args.get_uint("workers", 0);
  if (workers == 0) {
    std::fprintf(stderr, "edge: --workers W required\n");
    return 1;
  }
  const std::size_t max_payload = parse_net_env();
  FlStack stack;
  if (!build_fl_stack(args, /*need_population=*/false, stack)) return 1;

  net::EventLoop loop(max_payload);
  const std::uint16_t bound = loop.listen(host, port);
  const std::size_t up_conn = loop.connect(up_host, up_port);
  net::EdgeNode node(*stack.algorithm, loop, up_conn, index, workers);
  loop.set_handler([&node](std::size_t c, const net::Frame& frame) {
    node.on_frame(c, frame);
  });
  loop.set_closed_handler([&node](std::size_t c) { node.on_closed(c); });
  node.start();
  std::printf("edge %llu on %s:%u (upstream %s:%u, %zu workers)\n",
              static_cast<unsigned long long>(index), host.c_str(),
              static_cast<unsigned>(bound), up_host.c_str(),
              static_cast<unsigned>(up_port), workers);
  std::fflush(stdout);
  loop.run([&] { return node.done() || node.failed(); });
  if (node.failed()) {
    std::fprintf(stderr, "hsctl edge: %s\n", node.error().c_str());
    return 1;
  }
  std::printf("edge %llu: run complete\n",
              static_cast<unsigned long long>(index));
  return 0;
}

void print_usage() {
  std::printf(
      "hsctl — HeteroSwitch library front end\n"
      "usage: hsctl <command> [options]\n\n"
      "commands:\n"
      "  devices     list the device registry (Table 1)\n"
      "  capture     capture one scene with a device, export PPMs\n"
      "  signature   statistics-level device heterogeneity matrix\n"
      "  train       centralized cross-device characterization\n"
      "  fl          run a federated simulation\n"
      "  serve       FL root server over TCP (binary wire protocol)\n"
      "  client      FL worker node over TCP\n"
      "  edge        FL edge aggregator over TCP\n"
      "run `hsctl <command> --help` for command options.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string command = argv[1];
  Args args(argc, argv, 2);
  if (!args.ok()) return 1;
  try {
    if (command == "devices") return cmd_devices();
    if (command == "capture") return cmd_capture(args);
    if (command == "signature") return cmd_signature(args);
    if (command == "train") return cmd_train(args);
    if (command == "fl") return cmd_fl(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "client") return cmd_client(args);
    if (command == "edge") return cmd_edge(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hsctl %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
  print_usage();
  return 1;
}
