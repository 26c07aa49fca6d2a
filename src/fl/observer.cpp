#include "fl/observer.h"

#include <cstdint>

#include "fl/algorithm.h"
#include "fl/simulation.h"
#include "obs/tracer.h"

namespace hetero {

ClientObservation make_observation(const ClientUpdate& update,
                                   std::size_t order) {
  ClientObservation o;
  o.client_id = update.client_id;
  o.order = order;
  o.weight = update.weight;
  o.train_loss = update.train_loss;
  o.flags = update.flags;
  o.update_bytes = static_cast<std::size_t>(update_payload_bytes(update));
  o.train_seconds = update.train_seconds;
  return o;
}

// --------------------------------------------------------- MulticastObserver

void MulticastObserver::add(RoundObserver* child) {
  if (child) children_.push_back(child);
}

void MulticastObserver::on_round_begin(
    std::size_t round, const std::vector<std::size_t>& selected) {
  for (RoundObserver* c : children_) c->on_round_begin(round, selected);
}

void MulticastObserver::on_client_end(std::size_t round,
                                      const ClientObservation& client) {
  for (RoundObserver* c : children_) c->on_client_end(round, client);
}

void MulticastObserver::on_round_end(std::size_t round,
                                     const RoundStats& stats) {
  for (RoundObserver* c : children_) c->on_round_end(round, stats);
}

void MulticastObserver::on_eval(std::size_t round,
                                const DeviceMetrics& metrics) {
  for (RoundObserver* c : children_) c->on_eval(round, metrics);
}

// ----------------------------------------------------------- TracingObserver

void TracingObserver::on_round_begin(std::size_t round,
                                     const std::vector<std::size_t>& selected) {
  obs::JsonObjectBuilder b = tracer_.event("round_begin");
  b.add("round", static_cast<std::uint64_t>(round));
  b.add("k", static_cast<std::uint64_t>(selected.size()));
  std::vector<std::uint64_t> clients(selected.begin(), selected.end());
  b.add_array("clients", clients);
  tracer_.write(b);
}

void TracingObserver::on_client_end(std::size_t round,
                                    const ClientObservation& client) {
  obs::JsonObjectBuilder b = tracer_.event("client_end");
  b.add("round", static_cast<std::uint64_t>(round));
  b.add("client", static_cast<std::uint64_t>(client.client_id));
  b.add("order", static_cast<std::uint64_t>(client.order));
  b.add("weight", client.weight);
  b.add("loss", client.train_loss);
  b.add("flags", static_cast<std::uint64_t>(client.flags));
  b.add("bytes", static_cast<std::uint64_t>(client.update_bytes));
  // Emitted only when a fault fired so zero-fault traces are byte-identical
  // to traces from builds without the fault layer.
  if (client.fault != 0) b.add("fault", static_cast<std::uint64_t>(client.fault));
  // Virtual-clock fields (deterministic — emitted regardless of the
  // timings flag). "vseconds" appears only when the client occupied
  // virtual time; the scheduler provenance trio only for scheduled runs,
  // so sync traces stay byte-identical to pre-scheduler builds.
  if (client.virtual_seconds > 0.0) b.add("vseconds", client.virtual_seconds);
  if (client.scheduled) {
    b.add("vt", client.virtual_time);
    b.add("version", client.version);
    b.add("staleness", static_cast<std::uint64_t>(client.staleness));
  }
  if (tracer_.include_timings()) b.add("seconds", client.train_seconds);
  tracer_.write(b);
}

void TracingObserver::on_round_end(std::size_t round, const RoundStats& stats) {
  obs::JsonObjectBuilder b = tracer_.event("round_end");
  b.add("round", static_cast<std::uint64_t>(round));
  b.add("loss", stats.mean_train_loss);
  b.add("loss_min", stats.min_train_loss);
  b.add("loss_max", stats.max_train_loss);
  b.add("clients", static_cast<std::uint64_t>(stats.num_clients));
  b.add("weight", stats.weight_sum);
  b.add("bytes_up", static_cast<std::uint64_t>(stats.bytes_up));
  b.add("bytes_down", static_cast<std::uint64_t>(stats.bytes_down));
  // Virtual round makespan — deterministic, so emitted independent of the
  // timings flag, but only when virtual time actually passed (clean sync
  // rounds stay byte-identical to pre-scheduler traces).
  if (stats.virtual_seconds > 0.0) b.add("vseconds", stats.virtual_seconds);
  // std::map iterates keys sorted, keeping the emitted field order stable.
  // pop.* extras are timing-class data (gen_seconds is wall time), so they
  // are gated with the timings flag to keep deterministic traces
  // byte-identical across runs and thread counts.
  for (const auto& [key, value] : stats.extras) {
    if (!tracer_.include_timings() && key.rfind("pop.", 0) == 0) continue;
    b.add(key, value);
  }
  if (tracer_.include_timings()) b.add("seconds", stats.round_seconds);
  tracer_.write(b);
}

void TracingObserver::on_eval(std::size_t round, const DeviceMetrics& metrics) {
  obs::JsonObjectBuilder b = tracer_.event("eval");
  b.add("round", static_cast<std::uint64_t>(round));
  b.add("average", metrics.average);
  b.add("variance", metrics.variance);
  b.add("worst_case", metrics.worst_case);
  b.add("devices", static_cast<std::uint64_t>(metrics.per_device.size()));
  b.add_array("per_device", metrics.per_device);
  tracer_.write(b);
}

}  // namespace hetero
