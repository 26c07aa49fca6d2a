#include "net/loopback.h"

#include <functional>
#include <memory>
#include <utility>

namespace hetero::net {
namespace {

/// HS_CHECK takes a literal; node failures carry a dynamic error string.
void check(bool cond, const std::string& msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// One direction of one connection: sender-stamped frames accumulate in
/// `bytes` until the pump feeds them through the receiver's parser.
struct Channel {
  std::size_t dst_endpoint = 0;
  std::size_t dst_conn = 0;
  std::uint64_t next_seq = 0;
  std::vector<std::uint8_t> bytes;
  FrameParser parser{kDefaultMaxPayload};
  bool counted_bad = false;
};

class LoopbackHub;

/// Per-endpoint FrameSink: maps the endpoint's local conn ids onto the
/// hub's outgoing channels and owns the run/seq stamping.
class HubSink : public FrameSink {
 public:
  HubSink(LoopbackHub& hub, std::size_t endpoint)
      : hub_(hub), endpoint_(endpoint) {}
  void send(std::size_t conn, FrameType type,
            const std::vector<std::uint8_t>& payload) override;

 private:
  LoopbackHub& hub_;
  std::size_t endpoint_;
};

class LoopbackHub {
 public:
  explicit LoopbackHub(NetCounters& counters) : counters_(counters) {}

  std::size_t add_endpoint() {
    endpoints_.push_back(Endpoint{});
    endpoints_.back().sink =
        std::make_unique<HubSink>(*this, endpoints_.size() - 1);
    return endpoints_.size() - 1;
  }

  void set_handler(std::size_t endpoint,
                   std::function<void(std::size_t, const Frame&)> handler) {
    endpoints_[endpoint].handler = std::move(handler);
  }

  FrameSink& sink(std::size_t endpoint) { return *endpoints_[endpoint].sink; }

  /// Connects two endpoints with a bidirectional byte pipe; returns the
  /// local conn ids (at a, at b).
  std::pair<std::size_t, std::size_t> connect(std::size_t a, std::size_t b) {
    const std::size_t conn_a = endpoints_[a].out.size();
    const std::size_t conn_b = endpoints_[b].out.size();
    endpoints_[a].out.push_back(channels_.size());
    channels_.push_back(std::make_unique<Channel>());
    channels_.back()->dst_endpoint = b;
    channels_.back()->dst_conn = conn_b;
    endpoints_[b].out.push_back(channels_.size());
    channels_.push_back(std::make_unique<Channel>());
    channels_.back()->dst_endpoint = a;
    channels_.back()->dst_conn = conn_a;
    return {conn_a, conn_b};
  }

  void send(std::size_t endpoint, std::size_t conn, FrameType type,
            const std::vector<std::uint8_t>& payload) {
    HS_CHECK(conn < endpoints_[endpoint].out.size(),
             "loopback: send on unknown connection");
    Channel& ch = *channels_[endpoints_[endpoint].out[conn]];
    const std::vector<std::uint8_t> frame =
        encode_frame(type, kLoopbackRun, ch.next_seq++, payload);
    ch.bytes.insert(ch.bytes.end(), frame.begin(), frame.end());
    ++counters_.frames_tx;
    counters_.bytes_tx += frame.size();
  }

  /// Drains every channel, in creation order, until a full pass moves no
  /// bytes. Handlers run inline and may enqueue more frames; those are
  /// picked up on the next pass, keeping delivery order a pure function of
  /// the topology.
  void pump() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t c = 0; c < channels_.size(); ++c) {
        Channel& ch = *channels_[c];
        if (ch.bytes.empty()) continue;
        progress = true;
        counters_.bytes_rx += ch.bytes.size();
        ch.parser.feed(ch.bytes.data(), ch.bytes.size());
        ch.bytes.clear();
        Frame frame;
        while (ch.parser.next(frame)) {
          ++counters_.frames_rx;
          endpoints_[ch.dst_endpoint].handler(ch.dst_conn, frame);
        }
        if (ch.parser.quarantined() && !ch.counted_bad) {
          ch.counted_bad = true;
          ++counters_.frames_bad;
          ++counters_.conns_quarantined;
        }
      }
    }
  }

  bool any_parser_failed() const {
    for (const auto& ch : channels_) {
      if (ch->parser.quarantined()) return true;
    }
    return false;
  }

 private:
  static constexpr std::uint64_t kLoopbackRun = 1;

  struct Endpoint {
    std::function<void(std::size_t, const Frame&)> handler;
    std::unique_ptr<HubSink> sink;
    std::vector<std::size_t> out;  ///< local conn id -> channel index
  };

  NetCounters& counters_;
  std::vector<Endpoint> endpoints_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

void HubSink::send(std::size_t conn, FrameType type,
                   const std::vector<std::uint8_t>& payload) {
  hub_.send(endpoint_, conn, type, payload);
}

}  // namespace

LoopbackResult run_distributed_loopback(Model& model,
                                        SplitFederatedAlgorithm& algorithm,
                                        const ClientProvider& population,
                                        const SimulationConfig& cfg,
                                        std::size_t num_workers,
                                        std::size_t num_edges) {
  HS_CHECK(!cfg.faults.enabled(),
           "loopback: fault injection is monolithic-only");
  HS_CHECK(!cfg.sched.scheduled(),
           "loopback: scheduled modes are monolithic-only");
  HS_CHECK(!cfg.checkpoint.enabled(),
           "loopback: checkpointing is monolithic-only");
  HS_CHECK(num_workers > 0, "loopback: need at least one worker");
  HS_CHECK(num_edges == 0 || num_workers >= num_edges,
           "loopback: need at least one worker per edge");

  LoopbackResult out;
  LoopbackHub hub(out.counters);

  NetSimConfig net_cfg;
  net_cfg.rounds = cfg.rounds;
  net_cfg.clients_per_round = cfg.clients_per_round;
  net_cfg.seed = cfg.seed;
  net_cfg.eval_every = cfg.eval_every;
  net_cfg.num_downstream = num_edges > 0 ? num_edges : num_workers;
  net_cfg.edge_groups = num_edges;
  net_cfg.observer = cfg.observer;
  net_cfg.counters = &out.counters;

  const std::size_t root_ep = hub.add_endpoint();
  RootServer root(model, algorithm, population, net_cfg, hub.sink(root_ep));
  hub.set_handler(root_ep, [&root](std::size_t conn, const Frame& frame) {
    root.on_frame(conn, frame);
  });

  // Worker replicas: independent deep copies, exactly like the parallel
  // executor's per-worker models. local_update set_states the pulled global
  // before training, so the replica's prior weights never leak in.
  std::vector<std::unique_ptr<Model>> worker_models;
  std::vector<std::unique_ptr<WorkerNode>> workers;
  std::vector<std::unique_ptr<EdgeNode>> edges;
  worker_models.reserve(num_workers);
  workers.reserve(num_workers);

  if (num_edges == 0) {
    for (std::size_t w = 0; w < num_workers; ++w) {
      const std::size_t worker_ep = hub.add_endpoint();
      const auto [root_conn, worker_conn] = hub.connect(root_ep, worker_ep);
      (void)root_conn;
      worker_models.push_back(model.clone());
      workers.push_back(std::make_unique<WorkerNode>(
          *worker_models.back(), algorithm, population, hub.sink(worker_ep),
          worker_conn, w));
      WorkerNode& node = *workers.back();
      hub.set_handler(worker_ep,
                      [&node](std::size_t conn, const Frame& frame) {
                        node.on_frame(conn, frame);
                      });
    }
  } else {
    std::vector<std::size_t> edge_eps(num_edges);
    std::vector<std::size_t> edge_worker_count(num_edges, 0);
    for (std::size_t w = 0; w < num_workers; ++w) {
      ++edge_worker_count[edge_group_of(w, num_workers, num_edges)];
    }
    edges.reserve(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e) {
      edge_eps[e] = hub.add_endpoint();
      const auto [root_conn, edge_conn] = hub.connect(root_ep, edge_eps[e]);
      (void)root_conn;
      edges.push_back(std::make_unique<EdgeNode>(
          algorithm, hub.sink(edge_eps[e]), edge_conn, e,
          edge_worker_count[e]));
      EdgeNode& node = *edges.back();
      hub.set_handler(edge_eps[e],
                      [&node](std::size_t conn, const Frame& frame) {
                        node.on_frame(conn, frame);
                      });
    }
    std::vector<std::size_t> next_local_index(num_edges, 0);
    for (std::size_t w = 0; w < num_workers; ++w) {
      const std::size_t e = edge_group_of(w, num_workers, num_edges);
      const std::size_t worker_ep = hub.add_endpoint();
      const auto [edge_conn, worker_conn] =
          hub.connect(edge_eps[e], worker_ep);
      (void)edge_conn;
      worker_models.push_back(model.clone());
      workers.push_back(std::make_unique<WorkerNode>(
          *worker_models.back(), algorithm, population, hub.sink(worker_ep),
          worker_conn, next_local_index[e]++));
      WorkerNode& node = *workers.back();
      hub.set_handler(worker_ep,
                      [&node](std::size_t conn, const Frame& frame) {
                        node.on_frame(conn, frame);
                      });
    }
  }

  for (auto& edge : edges) edge->start();
  for (auto& worker : workers) worker->start();
  hub.pump();

  check(!hub.any_parser_failed(), "loopback: frame parser quarantined");
  check(!root.failed(), "loopback root failed: " + root.error());
  for (const auto& edge : edges) {
    check(!edge->failed(), "loopback edge failed: " + edge->error());
    check(edge->done(), "loopback edge never finished");
  }
  for (const auto& worker : workers) {
    check(!worker->failed(), "loopback worker failed: " + worker->error());
    check(worker->done(), "loopback worker never finished");
  }
  check(root.done(), "loopback root never finished");

  out.result = root.take_result();
  return out;
}

}  // namespace hetero::net
