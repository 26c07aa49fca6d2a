// Serialization (tensors, archives, model checkpoints) and PPM export.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "fl/checkpoint.h"
#include "image/ppm.h"
#include "nn/model_zoo.h"
#include "tensor/serialize.h"
#include "test_util.h"

namespace hetero {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Serialize, TensorStreamRoundTrip) {
  Rng rng(1);
  Tensor t = Tensor::randn({3, 4, 5}, rng);
  std::stringstream ss;
  write_tensor(ss, t);
  Tensor back = read_tensor(ss);
  EXPECT_EQ(back.shape(), t.shape());
  hetero::testing::expect_tensor_near(back, t, 0.0f);
}

TEST(Serialize, EmptyAndScalarTensors) {
  std::stringstream ss;
  write_tensor(ss, Tensor());
  write_tensor(ss, Tensor({1}, {42.0f}));
  Tensor empty = read_tensor(ss);
  Tensor scalar = read_tensor(ss);
  EXPECT_EQ(empty.rank(), 0u);
  EXPECT_FLOAT_EQ(scalar[0], 42.0f);
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(2);
  Tensor t = Tensor::randn({17}, rng);
  const std::string path = temp_path("hs_test_tensor.bin");
  save_tensor(path, t);
  Tensor back = load_tensor(path);
  hetero::testing::expect_tensor_near(back, t, 0.0f);
  std::remove(path.c_str());
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream ss("NOPE and some garbage");
  EXPECT_THROW(read_tensor(ss), std::runtime_error);
}

TEST(Serialize, TruncatedInputRejected) {
  Rng rng(3);
  Tensor t = Tensor::randn({100}, rng);
  std::stringstream ss;
  write_tensor(ss, t);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_tensor(truncated), std::runtime_error);
}

TEST(Serialize, WrappedVolumeRejected) {
  // Two dims of 2^32 multiply to 2^64, which wraps a 64-bit volume to 0: with
  // count 0 the header would pass for an empty tensor whose shape claims
  // 2^64 elements.
  std::stringstream ss;
  const std::uint32_t version = 1, rank = 2;
  const std::uint64_t dim = 1ull << 32, count = 0;
  ss.write("HSTN", 4);
  ss.write(reinterpret_cast<const char*>(&version), sizeof(version));
  ss.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
  ss.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  ss.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  ss.write(reinterpret_cast<const char*>(&count), sizeof(count));
  EXPECT_THROW(read_tensor(ss), std::runtime_error);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_tensor("/nonexistent/dir/tensor.bin"),
               std::runtime_error);
}

TEST(Serialize, SequentialTensorsInOneStream) {
  Rng rng(4);
  Tensor a = Tensor::randn({2, 2}, rng);
  Tensor b = Tensor::randn({5}, rng);
  std::stringstream ss;
  write_tensor(ss, a);
  write_tensor(ss, b);
  hetero::testing::expect_tensor_near(read_tensor(ss), a, 0.0f);
  hetero::testing::expect_tensor_near(read_tensor(ss), b, 0.0f);
}

TEST(TensorArchive, PutGetContains) {
  TensorArchive ar;
  EXPECT_FALSE(ar.contains("w"));
  ar.put("w", Tensor({2}, {1, 2}));
  EXPECT_TRUE(ar.contains("w"));
  EXPECT_FLOAT_EQ(ar.get("w")[1], 2.0f);
  EXPECT_THROW(ar.get("missing"), std::runtime_error);
}

TEST(TensorArchive, StreamRoundTrip) {
  Rng rng(5);
  TensorArchive ar;
  ar.put("alpha", Tensor::randn({3, 3}, rng));
  ar.put("beta", Tensor::randn({7}, rng));
  std::stringstream ss;
  ar.write(ss);
  TensorArchive back = TensorArchive::read(ss);
  EXPECT_EQ(back.size(), 2u);
  hetero::testing::expect_tensor_near(back.get("alpha"), ar.get("alpha"),
                                      0.0f);
  hetero::testing::expect_tensor_near(back.get("beta"), ar.get("beta"), 0.0f);
}

TEST(TensorArchive, ModelCheckpointRoundTrip) {
  // The canonical use: persist and restore a model's full state.
  Rng rng(6);
  ModelSpec spec;
  spec.arch = "mlp-tiny";
  spec.image_size = 8;
  auto model = make_model(spec, rng);
  const Tensor state = model->state();

  TensorArchive ar;
  ar.put("state", state);
  const std::string path = temp_path("hs_test_ckpt.bin");
  ar.save(path);

  auto model2 = make_model(spec, rng);  // different random init
  TensorArchive loaded = TensorArchive::load(path);
  model2->set_state(loaded.get("state"));
  hetero::testing::expect_tensor_near(model2->state(), state, 0.0f);
  std::remove(path.c_str());
}

TEST(TensorArchive, OverwriteKey) {
  TensorArchive ar;
  ar.put("x", Tensor({1}, {1.0f}));
  ar.put("x", Tensor({1}, {2.0f}));
  EXPECT_EQ(ar.size(), 1u);
  EXPECT_FLOAT_EQ(ar.get("x")[0], 2.0f);
}

TEST(Ppm, WritesValidHeaderAndPayload) {
  Image img(2, 3);
  img.set_pixel(0, 0, 1.0f, 0.0f, 0.0f);
  img.set_pixel(1, 2, 0.0f, 0.0f, 1.0f);
  const std::string path = temp_path("hs_test.ppm");
  ASSERT_TRUE(write_ppm(path, img));
  std::ifstream in(path, std::ios::binary);
  std::string magic, dims1, dims2, maxval;
  in >> magic >> dims1 >> dims2 >> maxval;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(dims1, "3");
  EXPECT_EQ(dims2, "2");
  EXPECT_EQ(maxval, "255");
  in.get();  // the single whitespace after the header
  std::vector<unsigned char> payload(2 * 3 * 3);
  in.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  EXPECT_EQ(in.gcount(), 18);
  EXPECT_EQ(payload[0], 255);  // red pixel, R byte
  EXPECT_EQ(payload[1], 0);
  EXPECT_EQ(payload[17], 255);  // blue pixel, B byte
  std::remove(path.c_str());
}

TEST(Ppm, MosaicExport) {
  RawImage raw(4, 4);
  for (std::size_t y = 0; y < 4; ++y) {
    for (std::size_t x = 0; x < 4; ++x) raw.at(y, x) = 0.5f;
  }
  const std::string path = temp_path("hs_test_mosaic.ppm");
  ASSERT_TRUE(write_ppm_mosaic(path, raw));
  EXPECT_GT(std::filesystem::file_size(path), 15u);
  std::remove(path.c_str());
}

TEST(Ppm, EmptyImageFails) {
  EXPECT_FALSE(write_ppm(temp_path("x.ppm"), Image()));
  EXPECT_FALSE(write_ppm_mosaic(temp_path("x.ppm"), RawImage()));
}

// ----------------------------------------------------------- checkpoints --

/// Writes a small valid checkpoint to `path` and returns its bytes.
std::string write_small_checkpoint(const std::string& path) {
  SimulationCheckpoint ck;
  ck.next_round = 3;
  ck.seed = 7;
  ck.num_clients = 10;
  ck.clients_per_round = 2;
  ck.algorithm = "FedAvg";
  ck.model_state = Tensor({4});
  ck.loss_history = {1.5, 1.25};
  write_checkpoint(path, ck);
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointFile, ForgedLossCountRejected) {
  const std::string path = temp_path("hs_ckpt_forged.bin");
  std::string bytes = write_small_checkpoint(path);
  // After the loss_history count come its two values, the empty
  // virtual-time vector's count and the four empty map counts.
  const std::size_t at = bytes.size() - (2 * 8 + 8 + 4 * 8) - 8;
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + at, sizeof(count));
  ASSERT_EQ(count, 2u);
  // 2^40 doubles would be an 8 TiB reservation, 2^61 more than a vector
  // can hold; both must fail as a malformed file.
  for (const std::uint64_t forged : {1ull << 40, 1ull << 61}) {
    std::memcpy(bytes.data() + at, &forged, sizeof(forged));
    write_bytes(path, bytes);
    SimulationCheckpoint out;
    EXPECT_THROW(read_checkpoint(path, out), std::runtime_error) << forged;
  }
  std::remove(path.c_str());
}

TEST(CheckpointFile, EveryStrictPrefixRejected) {
  const std::string path = temp_path("hs_ckpt_prefix.bin");
  const std::string bytes = write_small_checkpoint(path);
  SimulationCheckpoint out;
  ASSERT_TRUE(read_checkpoint(path, out));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_bytes(path, bytes.substr(0, len));
    EXPECT_THROW(read_checkpoint(path, out), std::runtime_error)
        << "prefix of " << len << " bytes";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hetero
