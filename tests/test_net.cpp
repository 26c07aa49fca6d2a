// Wire-protocol and distributed-daemon tests (DESIGN.md §14):
//   * FrameParser robustness — truncated, oversized, wrong-magic, and
//     bit-flipped frames all fail cleanly (no frame surfaces, no UB; the
//     ASan/UBSan lane runs exactly this suite);
//   * payload codec round trips — tensors (dense, sparse, rank-0, -0.0f),
//     client updates, round configs (per-client streams and corrupt
//     decisions), digests — are bit-exact, and every truncation of a valid
//     payload is rejected;
//   * protocol state machines reject malformed messages and fail on a lost
//     peer (root train step throws, edge reports failed);
//   * the in-process loopback transport reproduces run_simulation exactly:
//     model state, loss history, and the traced observer event stream are
//     byte-identical for the flat root<-workers topology AND the two-level
//     root<-edges<-workers tree (vs the in-process edge_groups fold), with
//     faults, one-wave buffered runs, alpha, aborts and resume.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
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
#include "test_util.h"
#include "util/bytes.h"
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
  ByteWriter w;
  net::put_tensor(w, t);
  const auto bytes = w.take();
  ByteReader r(bytes);
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
  ByteWriter dense_probe;
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

TEST(WireCodec, UpdatePushFrameBytesPinned) {
  // The wire v1 layout of one UpdatePush frame carrying a dense state and a
  // sparse aux, field by field. A change to any byte here is a protocol
  // change: it needs a kWireVersion bump, not a new constant.
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
  msg.update.state = Tensor({5}, {1.5f, -2.0f, 0.25f, 3.0f, -0.0f});
  msg.update.aux = Tensor({64});
  msg.update.aux[3] = 1.5f;
  msg.update.aux[40] = -2.25f;
  const auto frame = net::encode_frame(net::FrameType::kUpdatePush, 0x1234, 7,
                                       net::encode_update_push(msg));
  const char* expected =
      "464e5348" "01" "06" "0000"                // HSNF, v1, type, reserved
      "3412000000000000" "0700000000000000"      // run, seq
      "8a000000" "3d4ffa9c"                      // 138 payload bytes, CRC-32
      "0500000000000000" "0200000000000000"      // round, position
      "4d00000000000000" "0000000000003840"      // client 77, weight 24
      "000000000000f23f" "000000000000e0bf"      // loss 1.125, aux -0.5
      "03000000" "000000000000d03f"              // flags, train_seconds
      "0010000000000000"                         // payload_bytes 4096
      "01000000" "0500000000000000" "00"         // state: rank 1, {5}, dense
      "0000c03f" "000000c0" "0000803e" "00004040" "00000080"
      "01000000" "4000000000000000" "01"         // aux: rank 1, {64}, sparse
      "0200000000000000"                         // two nonzeros
      "03000000" "0000c03f" "28000000" "000010c0";  // [3] 1.5, [40] -2.25
  EXPECT_EQ(frame.size(), 170u);
  EXPECT_EQ(hetero::testing::to_hex(frame.data(), frame.size()), expected);
}

/// A wave assignment of three clients: one clean, one corrupt, and one
/// whose stream holds a cached normal draw.
net::RoundConfigMsg sample_round_config() {
  net::RoundConfigMsg msg;
  msg.round = 9;
  msg.n_selected = 6;
  const Rng wave = Rng(123).fork(4);
  for (std::uint64_t pos : {0u, 2u, 4u}) {
    RemoteClient c;
    c.client_id = 10 + 20 * pos;
    c.position = pos;
    c.stream = wave.fork(c.client_id).save_state();
    msg.clients.push_back(c);
  }
  msg.clients[1].corrupt = true;
  msg.clients[1].corrupt_kind = 2;
  msg.clients[1].corrupt_pos = 0xDEADBEEF12345678ull;
  Rng cached = wave.fork(90);
  cached.normal();
  msg.clients[2].stream = cached.save_state();
  return msg;
}

TEST(WireCodec, RoundConfigRoundTripsRngStateExactly) {
  const net::RoundConfigMsg msg = sample_round_config();
  ASSERT_TRUE(msg.clients[2].stream.has_cached_normal);
  const auto payload = net::encode_round_config(msg);
  net::RoundConfigMsg out;
  ASSERT_TRUE(net::decode_round_config(payload, out));
  EXPECT_EQ(out.round, msg.round);
  EXPECT_EQ(out.n_selected, msg.n_selected);
  ASSERT_EQ(out.clients.size(), msg.clients.size());
  for (std::size_t j = 0; j < msg.clients.size(); ++j) {
    const RemoteClient& a = msg.clients[j];
    const RemoteClient& b = out.clients[j];
    EXPECT_EQ(b.client_id, a.client_id);
    EXPECT_EQ(b.position, a.position);
    EXPECT_EQ(b.corrupt, a.corrupt);
    EXPECT_EQ(b.corrupt_kind, a.corrupt_kind);
    EXPECT_EQ(b.corrupt_pos, a.corrupt_pos);
    for (int w = 0; w < 4; ++w) EXPECT_EQ(b.stream.s[w], a.stream.s[w]);
    EXPECT_EQ(b.stream.has_cached_normal, a.stream.has_cached_normal);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.stream.cached_normal),
              std::bit_cast<std::uint64_t>(a.stream.cached_normal));
    // Restoring the shipped state must reproduce the stream bit-for-bit.
    Rng x;
    x.restore_state(a.stream);
    Rng y;
    y.restore_state(b.stream);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(x.normal()),
              std::bit_cast<std::uint64_t>(y.normal()));
    for (int i = 0; i < 16; ++i) ASSERT_EQ(x.next_u64(), y.next_u64());
  }
}

TEST(WireCodec, RoundConfigRejectsOutOfRangeCorruptFields) {
  // Layout: 24 header bytes, then per client 16 id/position bytes, the
  // 41-byte stream, the corrupt flag and the corrupt kind.
  const auto payload = net::encode_round_config(sample_round_config());
  const std::size_t flag = 24 + 67 + 16 + 41;
  net::RoundConfigMsg out;
  ASSERT_TRUE(net::decode_round_config(payload, out));
  ASSERT_EQ(payload[flag], 1);
  ASSERT_EQ(payload[flag + 1], 2);
  auto bad_kind = payload;
  bad_kind[flag + 1] = 3;  // only NaN, +Inf and -Inf exist
  EXPECT_FALSE(net::decode_round_config(bad_kind, out));
  auto bad_flag = payload;
  bad_flag[flag] = 2;
  EXPECT_FALSE(net::decode_round_config(bad_flag, out));
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

  // The same for a round config carrying corrupt entries.
  const auto config = net::encode_round_config(sample_round_config());
  for (std::size_t cut = 0; cut < config.size(); ++cut) {
    std::vector<std::uint8_t> prefix(config.begin(), config.begin() + cut);
    net::RoundConfigMsg cfg_out;
    EXPECT_FALSE(net::decode_round_config(prefix, cfg_out)) << "cut at " << cut;
  }
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

/// A root whose transport pump does nothing: frames arrive only through
/// the test's own on_frame calls.
net::RootServer::Pump idle_pump() {
  return [](const std::function<bool()>&) {};
}

Frame hello_frame(net::NodeRole role, std::uint64_t index) {
  Frame frame;
  frame.header.type = static_cast<std::uint8_t>(FrameType::kHello);
  frame.payload = net::encode_hello(net::HelloMsg{role, index});
  return frame;
}

TEST(RootServer, MalformedHelloQuarantinesTheConnection) {
  RecordingSink sink;
  net::RootServer root(sink, /*num_downstream=*/1, /*edges=*/0,
                       /*rounds=*/1, idle_pump());

  Frame bad;
  bad.header.type = static_cast<std::uint8_t>(FrameType::kHello);
  bad.payload = {0xFF};  // not a valid role byte
  root.on_frame(0, bad);
  EXPECT_TRUE(root.failed());
  EXPECT_EQ(root.frames_rejected(), 1u);
  EXPECT_FALSE(root.ready());
}

TEST(RootServer, UpdatePushFromUnknownConnectionFails) {
  RecordingSink sink;
  net::RootServer root(sink, /*num_downstream=*/2, /*edges=*/0,
                       /*rounds=*/1, idle_pump());

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

TEST(RootServer, LostNodeMidWaveFailsTheTrainStep) {
  RecordingSink sink;
  net::RootServer* self = nullptr;
  // The transport reports worker 1's connection closed while the wave's
  // updates are outstanding.
  net::RootServer root(sink, /*num_downstream=*/2, /*edges=*/0,
                       /*rounds=*/1,
                       [&self](const std::function<bool()>& until) {
                         self->on_closed(11);
                         EXPECT_TRUE(until());
                       });
  self = &root;
  // Closing before Hello is harmless.
  root.on_closed(11);
  EXPECT_FALSE(root.failed());
  root.on_frame(10, hello_frame(net::NodeRole::kWorker, 0));
  root.on_frame(11, hello_frame(net::NodeRole::kWorker, 1));
  ASSERT_TRUE(root.ready());

  std::vector<RemoteClient> clients(2);
  clients[0].client_id = 3;
  clients[1].client_id = 5;
  clients[1].position = 1;
  RemoteWave out;
  try {
    root.train(/*wave=*/0, /*wave_size=*/2, Tensor({4}), clients, out);
    ADD_FAILURE() << "train returned with a node lost";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("worker 1"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(root.failed());
}

TEST(EdgeNode, LostWorkerFailsTheNode) {
  FedAvg algo(net_train_cfg());
  RecordingSink sink;
  net::EdgeNode edge(algo, sink, /*upstream_conn=*/0, /*edge_index=*/0,
                     /*num_workers=*/2);
  edge.start();
  edge.on_closed(4);  // never said Hello: harmless
  EXPECT_FALSE(edge.failed());
  edge.on_frame(3, hello_frame(net::NodeRole::kWorker, 1));
  edge.on_closed(3);
  EXPECT_TRUE(edge.failed());
  EXPECT_NE(edge.error().find("worker 1"), std::string::npos) << edge.error();
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
  // Continuous refill: a remote batch would span model versions.
  SimulationConfig async = loopback_sim_cfg();
  async.sched = parse_sched_spec("async");
  EXPECT_THROW(net::run_distributed_loopback(*model, algo, pop, async, 2),
               std::exception);
  // Edges fold one wave each; a window of three clients is not one.
  SimulationConfig partial = loopback_sim_cfg();
  partial.sched = parse_sched_spec("buffered,wave=1,buffer=3");
  EXPECT_THROW(
      net::run_distributed_loopback(*model, algo, pop, partial, 2, 2),
      std::exception);
  // SCAFFOLD's client phase reads server-held control variates.
  Scaffold scaffold(net_train_cfg());
  EXPECT_THROW(net::run_distributed_loopback(*model, scaffold, pop,
                                             loopback_sim_cfg(), 2),
               std::exception);
}

/// Runs `base` in process with `edges` edge groups and through the
/// loopback daemon with `workers` workers under `edges` edges, and checks
/// that the two agree bit for bit: final state, loss history, per-device
/// metrics, the timing-free trace and the fault counters. Returns the
/// in-process run's stats so callers can check the faults fired.
RuntimeStats expect_daemon_matches(const SimulationConfig& base,
                                   std::size_t workers, std::size_t edges) {
  SceneGenerator scenes(16);
  const VirtualPopulation pop(net_spec(scenes, 10), Rng(7).fork(1));

  TraceCapture mono_trace;
  SimulationConfig cfg = base;
  cfg.edge_groups = edges;
  cfg.observer = &mono_trace.observer;
  auto mono_model = net_model(37);
  FedAvg mono_algo(net_train_cfg());
  const SimulationResult mono =
      run_simulation(*mono_model, mono_algo, pop, cfg);

  TraceCapture net_trace;
  cfg.observer = &net_trace.observer;
  auto net_model_ = net_model(37);
  FedAvg net_algo(net_train_cfg());
  const net::LoopbackResult dist = net::run_distributed_loopback(
      *net_model_, net_algo, pop, cfg, workers, edges);

  expect_tensor_bits(mono_model->state(), net_model_->state());
  EXPECT_EQ(mono.train_loss_history, dist.result.train_loss_history);
  EXPECT_EQ(mono.final_metrics.per_device,
            dist.result.final_metrics.per_device);
  EXPECT_EQ(mono_trace.text(), net_trace.text());
  const RuntimeStats& a = mono.runtime;
  const RuntimeStats& b = dist.result.runtime;
  EXPECT_EQ(a.clients_dropped, b.clients_dropped);
  EXPECT_EQ(a.clients_quarantined, b.clients_quarantined);
  EXPECT_EQ(a.rounds_aborted, b.rounds_aborted);
  EXPECT_EQ(dist.counters.frames_bad, 0u);
  return a;
}

SimulationConfig faulty_cfg(const std::string& faults) {
  SimulationConfig cfg = loopback_sim_cfg();
  cfg.rounds = 5;
  cfg.faults = parse_fault_spec(faults);
  return cfg;
}

constexpr const char* kAllFaults =
    "drop=0.2,fail=0.3,retries=1,straggle=0.3,delay=0.5,timeout=0.8,"
    "corrupt=0.2";

TEST(Loopback, FaultyFlatRunMatchesRunSimulation) {
  const RuntimeStats rt = expect_daemon_matches(faulty_cfg(kAllFaults), 3, 0);
  EXPECT_GT(rt.clients_dropped, 0u);
  EXPECT_GT(rt.clients_quarantined, 0u);
  EXPECT_GT(rt.clients_straggled, 0u);
}

TEST(Loopback, FaultyEdgeTreeMatchesRunSimulation) {
  const RuntimeStats rt = expect_daemon_matches(faulty_cfg(kAllFaults), 4, 2);
  EXPECT_GT(rt.clients_dropped, 0u);
  EXPECT_GT(rt.clients_quarantined, 0u);
}

/// Counts edge blocks (window positions grouped as the edge tier groups
/// them) in which no client survived, so the edge sent no digest.
struct EmptyBlockCounter : RoundObserver {
  std::size_t k = 0, edges = 0, empty = 0;
  std::vector<bool> survived;
  void on_round_begin(std::size_t, const std::vector<std::size_t>&) override {
    survived.assign(edges, false);
  }
  void on_client_end(std::size_t, const ClientObservation& c) override {
    if (c.fault <= static_cast<unsigned>(FaultKind::kStraggler)) {
      survived[edge_group_of(c.order, k, edges)] = true;
    }
  }
  void on_round_end(std::size_t, const RoundStats&) override {
    for (bool s : survived) empty += s ? 0 : 1;
  }
};

TEST(Loopback, EdgesWithNoSurvivorMatchRunSimulation) {
  SimulationConfig cfg = faulty_cfg("corrupt=0.6");
  expect_daemon_matches(cfg, 3, 3);
  // The config must actually leave some edge without a digest.
  SceneGenerator scenes(16);
  const VirtualPopulation pop(net_spec(scenes, 10), Rng(7).fork(1));
  EmptyBlockCounter counter;
  counter.k = cfg.clients_per_round;
  counter.edges = 3;
  cfg.edge_groups = 3;
  cfg.observer = &counter;
  auto model = net_model(37);
  FedAvg algo(net_train_cfg());
  run_simulation(*model, algo, pop, cfg);
  EXPECT_GT(counter.empty, 0u);
}

TEST(Loopback, BufferedWaveRunsMatchRunSimulation) {
  SimulationConfig cfg = loopback_sim_cfg();
  cfg.sched = parse_sched_spec("buffered,wave=1");
  expect_daemon_matches(cfg, 2, 0);
  SimulationConfig faulty = faulty_cfg("corrupt=0.2");
  faulty.sched = cfg.sched;
  expect_daemon_matches(faulty, 4, 2);
}

TEST(Loopback, BufferedWaveWithSmallerBufferMatchesRunSimulation) {
  SimulationConfig cfg = loopback_sim_cfg();
  cfg.rounds = 5;
  cfg.sched = parse_sched_spec("buffered,wave=1,buffer=3");
  const RuntimeStats rt = expect_daemon_matches(cfg, 2, 0);
  EXPECT_GT(rt.staleness_max, 0u);
}

TEST(Loopback, ServerMixingMatchesRunSimulation) {
  SimulationConfig cfg = loopback_sim_cfg();
  cfg.sched = parse_sched_spec("buffered,wave=1,alpha=0.5");
  expect_daemon_matches(cfg, 2, 0);
}

TEST(Loopback, AbortedRoundsMatchRunSimulation) {
  const RuntimeStats rt =
      expect_daemon_matches(faulty_cfg("drop=0.6,min=4"), 2, 0);
  EXPECT_GT(rt.rounds_aborted, 0u);
}

TEST(Loopback, DaemonResumesFromItsCheckpointBitIdentically) {
  SceneGenerator scenes(16);
  const VirtualPopulation pop(net_spec(scenes, 10), Rng(7).fork(1));
  const std::string dir =
      ::testing::TempDir() + "hs_net_resume_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::remove((dir + "/checkpoint.bin").c_str());

  // Reference: six rounds in process over two edge groups.
  SimulationConfig cfg = loopback_sim_cfg();
  cfg.rounds = 6;
  cfg.edge_groups = 2;
  auto ref_model = net_model(39);
  FedAvg ref_algo(net_train_cfg());
  const SimulationResult ref = run_simulation(*ref_model, ref_algo, pop, cfg);

  // A daemon checkpoints three rounds; a fresh daemon resumes to six.
  cfg.checkpoint.dir = dir;
  cfg.checkpoint.every = 1;
  {
    SimulationConfig first = cfg;
    first.rounds = 3;
    auto model = net_model(39);
    FedAvg algo(net_train_cfg());
    net::run_distributed_loopback(*model, algo, pop, first, 4, 2);
  }
  auto model = net_model(39);
  FedAvg algo(net_train_cfg());
  const net::LoopbackResult resumed =
      net::run_distributed_loopback(*model, algo, pop, cfg, 4, 2);

  expect_tensor_bits(ref_model->state(), model->state());
  EXPECT_EQ(ref.train_loss_history, resumed.result.train_loss_history);
  EXPECT_EQ(ref.final_metrics.per_device,
            resumed.result.final_metrics.per_device);
  std::remove((dir + "/checkpoint.bin").c_str());
}

}  // namespace
}  // namespace hetero
