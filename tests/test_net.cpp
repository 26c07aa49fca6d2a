// Wire-protocol and distributed-daemon tests (DESIGN.md §14):
//   * FrameParser robustness — truncated, oversized, wrong-magic, and
//     bit-flipped frames all fail cleanly (no frame surfaces, no UB; the
//     ASan/UBSan lane runs exactly this suite);
//   * payload codec round trips — tensors (dense, sparse, rank-0, -0.0f),
//     client updates, round configs, digests — are bit-exact, and every
//     truncation of a valid payload is rejected;
//   * protocol state machines reject malformed messages (connection
//     quarantined, root marked failed);
//   * the in-process loopback transport reproduces run_simulation exactly:
//     model state, loss history, and the traced observer event stream are
//     byte-identical for the flat root<-workers topology AND the two-level
//     root<-edges<-workers tree (vs the monolithic edge_groups fold).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "device/device_profile.h"
#include "fl/algorithm.h"
#include "fl/observer.h"
#include "fl/population.h"
#include "fl/simulation.h"
#include "fl/trainer.h"
#include "net/loopback.h"
#include "net/node.h"
#include "net/protocol.h"
#include "net/wire.h"
#include "nn/model_zoo.h"
#include "obs/jsonl.h"
#include "obs/tracer.h"
#include "scene/scene_gen.h"
#include "util/rng.h"

namespace hetero {
namespace {

using net::Frame;
using net::FrameParser;
using net::FrameType;
using net::ParseError;

std::vector<std::uint8_t> tiny_payload() { return {1, 2, 3, 4, 5, 6, 7, 8}; }

// ------------------------------------------------- frame-parser robustness --

TEST(FrameParser, RoundTripsFramesFedOneByteAtATime) {
  const auto payload = tiny_payload();
  std::vector<std::uint8_t> bytes =
      net::encode_frame(FrameType::kModelPull, 7, 0, payload);
  const auto second = net::encode_frame(FrameType::kModelState, 7, 1, {});
  bytes.insert(bytes.end(), second.begin(), second.end());

  FrameParser parser;
  std::vector<Frame> got;
  Frame f;
  for (std::uint8_t b : bytes) {
    parser.feed(&b, 1);
    while (parser.next(f)) got.push_back(std::move(f));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_FALSE(parser.quarantined());
  EXPECT_EQ(parser.buffered(), 0u);
  EXPECT_EQ(got[0].header.type, static_cast<std::uint8_t>(FrameType::kModelPull));
  EXPECT_EQ(got[0].header.run, 7u);
  EXPECT_EQ(got[0].header.seq, 0u);
  EXPECT_EQ(got[0].payload, payload);
  EXPECT_EQ(got[1].header.seq, 1u);
  EXPECT_TRUE(got[1].payload.empty());
}

TEST(FrameParser, TruncatedFrameYieldsNothingWithoutQuarantine) {
  const auto bytes = net::encode_frame(FrameType::kHello, 1, 0, tiny_payload());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameParser parser;
    parser.feed(bytes.data(), cut);
    Frame f;
    EXPECT_FALSE(parser.next(f)) << "cut at " << cut;
    EXPECT_FALSE(parser.quarantined()) << "cut at " << cut;
  }
}

TEST(FrameParser, WrongMagicQuarantinesAndStaysQuarantined) {
  auto bytes = net::encode_frame(FrameType::kHello, 1, 0, tiny_payload());
  bytes[0] ^= 0xFF;
  FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_FALSE(parser.next(f));
  EXPECT_TRUE(parser.quarantined());
  EXPECT_EQ(parser.error(), ParseError::kBadMagic);
  // Quarantine is sticky: even a pristine frame is refused afterwards.
  const auto good = net::encode_frame(FrameType::kHello, 1, 0, {});
  parser.feed(good.data(), good.size());
  EXPECT_FALSE(parser.next(f));
  EXPECT_EQ(parser.error(), ParseError::kBadMagic);
}

TEST(FrameParser, BadVersionAndReservedAreRejected) {
  {
    auto bytes = net::encode_frame(FrameType::kHello, 1, 0, {});
    bytes[4] = net::kWireVersion + 1;
    FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(parser.next(f));
    EXPECT_EQ(parser.error(), ParseError::kBadVersion);
  }
  {
    auto bytes = net::encode_frame(FrameType::kHello, 1, 0, {});
    bytes[6] = 1;  // reserved must be zero
    FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(parser.next(f));
    EXPECT_EQ(parser.error(), ParseError::kBadReserved);
  }
}

TEST(FrameParser, OversizedPayloadLengthIsRejectedBeforeBuffering) {
  // A 32-byte payload against a 16-byte bound: the parser must refuse from
  // the header alone, not allocate and wait for the bytes.
  const std::vector<std::uint8_t> payload(32, 0xAB);
  const auto bytes = net::encode_frame(FrameType::kUpdatePush, 1, 0, payload);
  FrameParser parser(/*max_payload=*/16);
  parser.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_FALSE(parser.next(f));
  EXPECT_EQ(parser.error(), ParseError::kOversized);
}

TEST(FrameParser, SequenceBreaksAreRejected) {
  const auto first = net::encode_frame(FrameType::kHello, 1, 0, {});
  const auto skipped = net::encode_frame(FrameType::kHello, 1, 2, {});
  FrameParser parser;
  parser.feed(first.data(), first.size());
  Frame f;
  ASSERT_TRUE(parser.next(f));
  parser.feed(skipped.data(), skipped.size());
  EXPECT_FALSE(parser.next(f));
  EXPECT_EQ(parser.error(), ParseError::kBadSeq);
}

TEST(FrameParser, EverySingleBitFlipFailsCleanly) {
  // CRC-32 detects all single-bit errors, and the magic/version/reserved
  // checks run first — so no flip anywhere in a frame may ever surface a
  // frame. Flips that enlarge payload_len leave the parser waiting for
  // bytes that never come; that is also "no frame", not a crash.
  const auto pristine =
      net::encode_frame(FrameType::kUpdatePush, 3, 0, tiny_payload());
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bytes = pristine;
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
      FrameParser parser;
      parser.feed(bytes.data(), bytes.size());
      Frame f;
      EXPECT_FALSE(parser.next(f)) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(FrameParser, RandomGarbageNeverCrashes) {
  Rng rng(99);
  for (int trial = 0; trial < 32; ++trial) {
    FrameParser parser;
    std::vector<std::uint8_t> junk(256);
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    parser.feed(junk.data(), junk.size());
    Frame f;
    while (parser.next(f)) {
      // A lucky magic prefix could in principle survive until the CRC; a
      // fully valid frame from random bytes is a 2^-32 event per trial.
    }
  }
}

// -------------------------------------------------------- codec round trips --

void expect_tensor_bits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << "at flat index " << i;
  }
}

Tensor tensor_round_trip(const Tensor& t) {
  net::WireWriter w;
  net::put_tensor(w, t);
  const auto bytes = w.take();
  net::WireReader r(bytes);
  Tensor out;
  EXPECT_TRUE(net::get_tensor(r, out));
  EXPECT_EQ(r.remaining(), 0u);
  return out;
}

TEST(WireCodec, DenseTensorRoundTripsBitExactly) {
  Rng rng(11);
  const Tensor t = Tensor::randn({3, 4, 5}, rng, 1.0f);
  expect_tensor_bits(t, tensor_round_trip(t));
}

TEST(WireCodec, RankZeroTensorRoundTrips) {
  // The repo convention: a default Tensor has rank 0 and ZERO elements (the
  // empty dim product must not decode as a one-element scalar) — FedAvg's
  // empty aux tensor travels exactly like this.
  const Tensor t;
  const Tensor out = tensor_round_trip(t);
  EXPECT_EQ(out.rank(), 0u);
  EXPECT_EQ(out.size(), 0u);
}

TEST(WireCodec, SparseTensorRoundTripsAndIsSmaller) {
  Tensor t({256});
  t[3] = 1.5f;
  t[200] = -2.25f;
  net::WireWriter dense_probe;
  net::put_tensor(dense_probe, t);
  // 2 nonzeros of 256: far under the dense 1KiB.
  EXPECT_LT(dense_probe.data().size(), 256 * sizeof(float));
  expect_tensor_bits(t, tensor_round_trip(t));

  // All-zero is the extreme sparse case.
  const Tensor z({64, 2});
  expect_tensor_bits(z, tensor_round_trip(z));
}

TEST(WireCodec, NegativeZeroSurvivesLosslessly) {
  // -0.0f is not bit-zero, so the sparse encoder must either emit it
  // explicitly or choose dense; either way the bit pattern must survive.
  Tensor t({128});
  t[7] = -0.0f;
  t[90] = 3.0f;
  const Tensor out = tensor_round_trip(t);
  expect_tensor_bits(t, out);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(out[7]), 0x80000000u);
}

TEST(WireCodec, UpdatePushRoundTripsBitExactly) {
  Rng rng(13);
  net::UpdatePushMsg msg;
  msg.round = 5;
  msg.position = 2;
  msg.update.client_id = 77;
  msg.update.weight = 24.0;
  msg.update.train_loss = 1.125;
  msg.update.aux_scalar = -0.5;
  msg.update.flags = 3;
  msg.update.train_seconds = 0.25;
  msg.update.payload_bytes = 4096;
  msg.update.state = Tensor::randn({17}, rng, 1.0f);
  msg.update.aux = Tensor();  // FedAvg ships an empty aux

  const auto payload = net::encode_update_push(msg);
  net::UpdatePushMsg out;
  ASSERT_TRUE(net::decode_update_push(payload, out));
  EXPECT_EQ(out.round, msg.round);
  EXPECT_EQ(out.position, msg.position);
  EXPECT_EQ(out.update.client_id, msg.update.client_id);
  EXPECT_EQ(out.update.weight, msg.update.weight);
  EXPECT_EQ(out.update.train_loss, msg.update.train_loss);
  EXPECT_EQ(out.update.aux_scalar, msg.update.aux_scalar);
  EXPECT_EQ(out.update.flags, msg.update.flags);
  EXPECT_EQ(out.update.train_seconds, msg.update.train_seconds);
  EXPECT_EQ(out.update.payload_bytes, msg.update.payload_bytes);
  expect_tensor_bits(msg.update.state, out.update.state);
  EXPECT_EQ(out.update.aux.size(), 0u);
}

TEST(WireCodec, RoundConfigRoundTripsRngStateExactly) {
  net::RoundConfigMsg msg;
  msg.round = 9;
  msg.round_rng = Rng(123).fork(4).save_state();
  msg.n_selected = 6;
  msg.edge_groups = 2;
  msg.client_ids = {10, 30, 50};
  msg.positions = {0, 2, 4};

  const auto payload = net::encode_round_config(msg);
  net::RoundConfigMsg out;
  ASSERT_TRUE(net::decode_round_config(payload, out));
  EXPECT_EQ(out.round, msg.round);
  EXPECT_EQ(out.n_selected, msg.n_selected);
  EXPECT_EQ(out.edge_groups, msg.edge_groups);
  EXPECT_EQ(out.client_ids, msg.client_ids);
  EXPECT_EQ(out.positions, msg.positions);
  // Restoring the shipped state must reproduce the stream bit-for-bit.
  Rng a;
  a.restore_state(msg.round_rng);
  Rng b;
  b.restore_state(out.round_rng);
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(a.fork(7).uniform_int(1u << 30), b.fork(7).uniform_int(1u << 30));
    ASSERT_EQ(a.uniform_int(1u << 30), b.uniform_int(1u << 30));
  }
}

TEST(WireCodec, DigestRoundTripsMetas) {
  Rng rng(17);
  net::DigestMsg msg;
  msg.round = 3;
  msg.edge_index = 1;
  msg.has_digest = 1;
  msg.digest.client_id = 0;
  msg.digest.weight = 48.0;
  msg.digest.train_loss = 2.5;
  msg.digest.state = Tensor::randn({9}, rng, 1.0f);
  net::WireUpdateMeta meta;
  meta.client_id = 42;
  meta.position = 3;
  meta.weight = 24.0;
  meta.train_loss = 2.25;
  meta.flags = 1;
  meta.quarantined = 0;
  meta.update_bytes = 128;
  meta.train_seconds = 0.5;
  msg.metas.push_back(meta);
  meta.client_id = 43;
  meta.position = 4;
  meta.quarantined = 1;
  msg.metas.push_back(meta);

  const auto payload = net::encode_digest(msg);
  net::DigestMsg out;
  ASSERT_TRUE(net::decode_digest(payload, out));
  EXPECT_EQ(out.round, msg.round);
  EXPECT_EQ(out.edge_index, msg.edge_index);
  EXPECT_EQ(out.has_digest, 1);
  expect_tensor_bits(msg.digest.state, out.digest.state);
  ASSERT_EQ(out.metas.size(), 2u);
  EXPECT_EQ(out.metas[0].client_id, 42u);
  EXPECT_EQ(out.metas[0].quarantined, 0);
  EXPECT_EQ(out.metas[1].client_id, 43u);
  EXPECT_EQ(out.metas[1].quarantined, 1);
}

TEST(WireCodec, EveryTruncationOfAValidPayloadIsRejected) {
  Rng rng(19);
  net::UpdatePushMsg msg;
  msg.round = 1;
  msg.position = 0;
  msg.update.client_id = 5;
  msg.update.weight = 8.0;
  msg.update.state = Tensor::randn({6}, rng, 1.0f);
  const auto payload = net::encode_update_push(msg);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<std::uint8_t> prefix(payload.begin(), payload.begin() + cut);
    net::UpdatePushMsg out;
    EXPECT_FALSE(net::decode_update_push(prefix, out)) << "cut at " << cut;
  }
  // Trailing garbage is a schema mismatch, not padding.
  auto padded = payload;
  padded.push_back(0);
  net::UpdatePushMsg out;
  EXPECT_FALSE(net::decode_update_push(padded, out));
}

// ----------------------------------------------- protocol state machines --

/// Records outgoing frames without a transport.
struct RecordingSink : net::FrameSink {
  std::vector<std::pair<std::size_t, FrameType>> sent;
  void send(std::size_t conn, FrameType type,
            const std::vector<std::uint8_t>& /*payload*/) override {
    sent.emplace_back(conn, type);
  }
};

PopulationSpec net_spec(const SceneGenerator& scenes, std::size_t clients) {
  PopulationConfig pcfg;
  pcfg.num_clients = clients;
  pcfg.samples_per_client = 4;
  pcfg.test_per_class = 1;
  pcfg.capture.tensor_size = 8;
  return PopulationSpec::single_label(paper_devices(), pcfg, scenes);
}

std::unique_ptr<Model> net_model(std::uint64_t seed) {
  ModelSpec spec;
  spec.arch = "mlp-tiny";
  spec.image_size = 8;
  spec.num_classes = 12;
  Rng rng(seed);
  return make_model(spec, rng);
}

LocalTrainConfig net_train_cfg() {
  LocalTrainConfig cfg;
  cfg.lr = 0.05f;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  return cfg;
}

TEST(RootServer, MalformedHelloQuarantinesTheConnection) {
  SceneGenerator scenes(16);
  const VirtualPopulation pop(net_spec(scenes, 8), Rng(7).fork(1));
  auto model = net_model(21);
  FedAvg algo(net_train_cfg());
  net::NetSimConfig cfg;
  cfg.rounds = 1;
  cfg.clients_per_round = 2;
  cfg.num_downstream = 1;
  RecordingSink sink;
  net::RootServer root(*model, algo, pop, cfg, sink);

  Frame bad;
  bad.header.type = static_cast<std::uint8_t>(FrameType::kHello);
  bad.payload = {0xFF};  // not a valid role byte
  root.on_frame(0, bad);
  EXPECT_TRUE(root.failed());
  EXPECT_EQ(root.frames_rejected(), 1u);
  EXPECT_FALSE(root.done());
}

TEST(RootServer, UpdatePushFromUnknownConnectionFails) {
  SceneGenerator scenes(16);
  const VirtualPopulation pop(net_spec(scenes, 8), Rng(7).fork(1));
  auto model = net_model(22);
  FedAvg algo(net_train_cfg());
  net::NetSimConfig cfg;
  cfg.rounds = 1;
  cfg.clients_per_round = 2;
  cfg.num_downstream = 2;
  RecordingSink sink;
  net::RootServer root(*model, algo, pop, cfg, sink);

  net::UpdatePushMsg msg;
  msg.round = 0;
  msg.position = 0;
  Frame frame;
  frame.header.type = static_cast<std::uint8_t>(FrameType::kUpdatePush);
  frame.payload = net::encode_update_push(msg);
  root.on_frame(5, frame);  // never said Hello
  EXPECT_TRUE(root.failed());
  EXPECT_EQ(root.frames_rejected(), 1u);
}

// ------------------------------------------------ loopback byte identity --

/// Captures a timing-free trace: with include_timings off the event stream
/// is a pure function of the run, so equality is byte equality.
struct TraceCapture {
  std::ostringstream out;
  obs::JsonlWriter writer{out};
  obs::Tracer tracer;
  TracingObserver observer{tracer};

  TraceCapture() : tracer(writer, timing_free()) { tracer.begin_run("net-eq"); }

  static obs::TracerOptions timing_free() {
    obs::TracerOptions options;
    options.include_timings = false;
    return options;
  }
  std::string text() const { return out.str(); }
};

SimulationConfig loopback_sim_cfg() {
  SimulationConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 4;
  cfg.seed = 2024;
  cfg.eval_every = 2;
  cfg.num_threads = 1;
  return cfg;
}

TEST(Loopback, FlatRunByteIdenticalToMonolithic) {
  SceneGenerator scenes(16);
  const Rng pop_root = Rng(7).fork(1);
  const PopulationSpec spec = net_spec(scenes, 10);
  const VirtualPopulation pop(spec, pop_root);

  TraceCapture mono_trace;
  SimulationConfig cfg = loopback_sim_cfg();
  cfg.observer = &mono_trace.observer;
  auto mono_model = net_model(31);
  FedAvg mono_algo(net_train_cfg());
  const SimulationResult mono = run_simulation(*mono_model, mono_algo, pop, cfg);

  TraceCapture net_trace;
  SimulationConfig net_cfg = loopback_sim_cfg();
  net_cfg.observer = &net_trace.observer;
  auto net_model_ = net_model(31);
  FedAvg net_algo(net_train_cfg());
  const net::LoopbackResult dist = net::run_distributed_loopback(
      *net_model_, net_algo, pop, net_cfg, /*num_workers=*/2);

  expect_tensor_bits(mono_model->state(), net_model_->state());
  EXPECT_EQ(mono.train_loss_history, dist.result.train_loss_history);
  ASSERT_EQ(mono.checkpoints.size(), dist.result.checkpoints.size());
  for (std::size_t i = 0; i < mono.checkpoints.size(); ++i) {
    EXPECT_EQ(mono.checkpoints[i].first, dist.result.checkpoints[i].first);
    EXPECT_EQ(mono.checkpoints[i].second.per_device,
              dist.result.checkpoints[i].second.per_device);
  }
  EXPECT_EQ(mono.final_metrics.per_device, dist.result.final_metrics.per_device);
  EXPECT_EQ(mono.final_metrics.average, dist.result.final_metrics.average);
  // The observer event streams must be byte-identical.
  EXPECT_EQ(mono_trace.text(), net_trace.text());
  // Transport sanity: traffic flowed, nothing was rejected.
  EXPECT_GT(dist.counters.frames_tx, 0u);
  EXPECT_EQ(dist.counters.frames_tx, dist.counters.frames_rx);
  EXPECT_EQ(dist.counters.bytes_tx, dist.counters.bytes_rx);
  EXPECT_EQ(dist.counters.frames_bad, 0u);
  EXPECT_EQ(dist.counters.conns_quarantined, 0u);
}

TEST(Loopback, EdgeTreeByteIdenticalToMonolithicEdgeGroups) {
  SceneGenerator scenes(16);
  const Rng pop_root = Rng(7).fork(1);
  const PopulationSpec spec = net_spec(scenes, 10);
  const VirtualPopulation pop(spec, pop_root);

  TraceCapture mono_trace;
  SimulationConfig cfg = loopback_sim_cfg();
  cfg.edge_groups = 2;  // the in-process fold the edge tier must reproduce
  cfg.observer = &mono_trace.observer;
  auto mono_model = net_model(33);
  FedAvg mono_algo(net_train_cfg());
  const SimulationResult mono = run_simulation(*mono_model, mono_algo, pop, cfg);

  TraceCapture net_trace;
  SimulationConfig net_cfg = loopback_sim_cfg();
  net_cfg.edge_groups = 2;
  net_cfg.observer = &net_trace.observer;
  auto net_model_ = net_model(33);
  FedAvg net_algo(net_train_cfg());
  const net::LoopbackResult dist = net::run_distributed_loopback(
      *net_model_, net_algo, pop, net_cfg, /*num_workers=*/4, /*num_edges=*/2);

  expect_tensor_bits(mono_model->state(), net_model_->state());
  EXPECT_EQ(mono.train_loss_history, dist.result.train_loss_history);
  EXPECT_EQ(mono.final_metrics.per_device, dist.result.final_metrics.per_device);
  EXPECT_EQ(mono_trace.text(), net_trace.text());
  EXPECT_EQ(dist.counters.frames_bad, 0u);
}

TEST(Loopback, RefusesConfigsTheWireLayerCannotReproduce) {
  SceneGenerator scenes(16);
  const VirtualPopulation pop(net_spec(scenes, 8), Rng(7).fork(1));
  auto model = net_model(35);
  FedAvg algo(net_train_cfg());
  SimulationConfig cfg = loopback_sim_cfg();
  cfg.faults.dropout_prob = 0.1;  // fault injection: monolithic only
  EXPECT_THROW(net::run_distributed_loopback(*model, algo, pop, cfg, 2),
               std::exception);
}

}  // namespace
}  // namespace hetero
