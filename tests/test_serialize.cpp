// HSCK checkpoint files — the HSTN tensor records inside them, every
// length bound, the CRC — and PPM export.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "fl/checkpoint.h"
#include "image/ppm.h"
#include "test_util.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace hetero {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// -------------------------------------------------------------- helpers --

/// Writes `ck` to `path` and returns the file's bytes.
std::string checkpoint_bytes(const std::string& path,
                             const SimulationCheckpoint& ck) {
  write_checkpoint(path, ck);
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

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
  return checkpoint_bytes(path, ck);
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes the trailing CRC-32 after a deliberate edit, so the edit
/// reaches the parser's own checks.
void reseal(std::string& bytes) {
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  const std::uint32_t crc =
      crc32(reinterpret_cast<const std::uint8_t*>(bytes.data()), body);
  std::memcpy(bytes.data() + body, &crc, sizeof(crc));
}

/// A checkpoint of a two-client run whose only payload is `model_state`.
SimulationCheckpoint tensor_checkpoint(Tensor model_state) {
  SimulationCheckpoint ck;
  ck.num_clients = 2;
  ck.clients_per_round = 1;
  ck.algorithm = "FedAvg";
  ck.model_state = std::move(model_state);
  return ck;
}

/// Writes `ck` and reads it back.
SimulationCheckpoint round_trip(const SimulationCheckpoint& ck) {
  const std::string path = temp_path("hs_ckpt_tensor.bin");
  write_checkpoint(path, ck);
  SimulationCheckpoint back;
  EXPECT_TRUE(read_checkpoint(path, back));
  std::remove(path.c_str());
  return back;
}

/// Offset of the first HSTN record (the model state) in a checkpoint.
std::size_t model_state_record(const std::string& bytes) {
  const std::size_t at = bytes.find("HSTN");
  EXPECT_NE(at, std::string::npos);
  return at;
}

/// The error message read_checkpoint throws for `bytes`, or "" if it loads.
std::string load_error(const std::string& path, const std::string& bytes) {
  write_bytes(path, bytes);
  SimulationCheckpoint out;
  try {
    read_checkpoint(path, out);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// --------------------------------------------------- HSTN tensor records --

TEST(Serialize, TensorStreamRoundTrip) {
  Rng rng(1);
  Tensor t = Tensor::randn({3, 4, 5}, rng);
  const SimulationCheckpoint back = round_trip(tensor_checkpoint(t));
  EXPECT_EQ(back.model_state.shape(), t.shape());
  hetero::testing::expect_tensor_near(back.model_state, t, 0.0f);
}

TEST(Serialize, EmptyAndScalarTensors) {
  SimulationCheckpoint ck = tensor_checkpoint(Tensor());
  ck.algo.tensors["scalar"] = Tensor({1}, {42.0f});
  const SimulationCheckpoint back = round_trip(ck);
  EXPECT_EQ(back.model_state.rank(), 0u);
  EXPECT_FLOAT_EQ(back.algo.tensors.at("scalar")[0], 42.0f);
}

TEST(Serialize, BadMagicRejected) {
  const std::string path = temp_path("hs_ckpt_tensor_magic.bin");
  std::string bytes = checkpoint_bytes(path, tensor_checkpoint(Tensor({4})));
  std::memcpy(bytes.data() + model_state_record(bytes), "NOPE", 4);
  reseal(bytes);
  EXPECT_NE(load_error(path, bytes), "");
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedInputRejected) {
  Rng rng(3);
  const std::string path = temp_path("hs_ckpt_tensor_cut.bin");
  const std::string full =
      checkpoint_bytes(path, tensor_checkpoint(Tensor::randn({100}, rng)));
  // Cut the record halfway through its 400 data bytes and seal what is
  // left, so the cut reaches the record parser instead of the CRC check.
  const std::size_t data = model_state_record(full) + 4 + 4 + 4 + 8 + 8;
  std::string truncated = full.substr(0, data + 200) + "CRC!";
  reseal(truncated);
  EXPECT_NE(load_error(path, truncated), "");
  std::remove(path.c_str());
}

TEST(Serialize, WrappedVolumeRejected) {
  // Two dims of 2^32 multiply to 2^64, which wraps a 64-bit volume to 0: with
  // count 0 the header would pass for an empty tensor whose shape claims
  // 2^64 elements.
  const std::string path = temp_path("hs_ckpt_tensor_wrap.bin");
  const std::string full = checkpoint_bytes(path, tensor_checkpoint(Tensor()));
  ByteWriter forged;
  forged.bytes("HSTN", 4);
  forged.u32(1);  // version
  forged.u32(2);  // rank
  forged.u64(1ull << 32);
  forged.u64(1ull << 32);
  forged.u64(0);  // count
  // The empty model state's record is 20 bytes: magic, version, rank 0 and
  // count 0.
  const std::size_t at = model_state_record(full);
  std::string bytes = full.substr(0, at) +
                      std::string(forged.data().begin(), forged.data().end()) +
                      full.substr(at + 20);
  reseal(bytes);
  EXPECT_NE(load_error(path, bytes), "");
  std::remove(path.c_str());
}

TEST(Serialize, SequentialTensorsInOneStream) {
  Rng rng(4);
  Tensor a = Tensor::randn({2, 2}, rng);
  Tensor b = Tensor::randn({5}, rng);
  SimulationCheckpoint ck = tensor_checkpoint(a);
  ck.algo.tensors["b"] = b;
  const SimulationCheckpoint back = round_trip(ck);
  hetero::testing::expect_tensor_near(back.model_state, a, 0.0f);
  hetero::testing::expect_tensor_near(back.algo.tensors.at("b"), b, 0.0f);
}

// ------------------------------------------------------------ PPM export --

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

TEST(CheckpointFile, ForgedLossCountRejected) {
  const std::string path = temp_path("hs_ckpt_forged.bin");
  std::string bytes = write_small_checkpoint(path);
  // After the loss_history count come its two values, the empty
  // virtual-time vector's count, the four empty map counts and the CRC.
  const std::size_t at = bytes.size() - 4 - (2 * 8 + 8 + 4 * 8) - 8;
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + at, sizeof(count));
  ASSERT_EQ(count, 2u);
  // 2^40 doubles would be an 8 TiB reservation, 2^61 more than a vector
  // can hold; both must fail as a malformed file, CRC intact.
  for (const std::uint64_t forged : {1ull << 40, 1ull << 61}) {
    std::memcpy(bytes.data() + at, &forged, sizeof(forged));
    reseal(bytes);
    write_bytes(path, bytes);
    SimulationCheckpoint out;
    EXPECT_THROW(read_checkpoint(path, out), std::runtime_error) << forged;
  }
  std::remove(path.c_str());
}

TEST(CheckpointFile, EverySingleBitFlipRejected) {
  // Without the CRC, a flip inside a stored double (a loss, the cached
  // normal, a model weight) loads silently as a different run.
  const std::string path = temp_path("hs_ckpt_flip.bin");
  const std::string bytes = write_small_checkpoint(path);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      write_bytes(path, flipped);
      SimulationCheckpoint out;
      EXPECT_THROW(read_checkpoint(path, out), std::runtime_error)
          << "byte " << i << " bit " << bit;
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointFile, OtherVersionsRejectedByNumber) {
  const std::string path = temp_path("hs_ckpt_version.bin");
  std::string bytes = write_small_checkpoint(path);
  for (const std::uint32_t version : {1u, 3u}) {
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    reseal(bytes);
    write_bytes(path, bytes);
    SimulationCheckpoint out;
    try {
      read_checkpoint(path, out);
      ADD_FAILURE() << "version " << version << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointFile, TrailingBytesRejected) {
  const std::string path = temp_path("hs_ckpt_trailing.bin");
  std::string bytes = write_small_checkpoint(path);
  bytes.insert(bytes.size() - 4, 1, '\0');
  reseal(bytes);
  write_bytes(path, bytes);
  SimulationCheckpoint out;
  EXPECT_THROW(read_checkpoint(path, out), std::runtime_error);
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

TEST(CheckpointFile, SmallFileBytesPinned) {
  // The HSCK v2 and HSTN v1 layouts, field by field. A change to any byte
  // here is a format change: it needs a version bump, not a new constant.
  const std::string path = temp_path("hs_ckpt_pinned.bin");
  const std::string bytes = write_small_checkpoint(path);
  const std::string expected = std::string("4853434b02000000") +  // HSCK v2
      "0300000000000000" "0700000000000000"     // next round, seed
      "0a00000000000000" "0200000000000000"     // N, k
      "06000000" "466564417667" +               // "FedAvg"
      std::string(4 * 16, '0') +                // rng words
      std::string(2 * 16, '0') +                // no cached normal
      "4853544e" "01000000" "01000000"          // HSTN v1, rank 1
      "0400000000000000" "0400000000000000" +   // dim 4, count 4
      std::string(4 * 8, '0') +                 // four 0.0f
      "0200000000000000"                        // loss history:
      "000000000000f83f" "000000000000f43f" +   //   1.5, 1.25
      std::string(5 * 16, '0') +                // five empty counts
      "d7bd0b68";                               // CRC-32
  EXPECT_EQ(bytes.size(), 210u);
  EXPECT_EQ(hetero::testing::to_hex(bytes.data(), bytes.size()), expected);
  std::remove(path.c_str());
}

TEST(CheckpointFile, ForgedTensorVolumeRejectedBeforeAllocating) {
  // The model state's record claims 2^20 floats (4 MiB) in a 210-byte
  // file, CRC intact: the reader must refuse on the length bound before
  // it allocates, not after zero-filling a tensor and running out of input.
  const std::string path = temp_path("hs_ckpt_forged_tensor.bin");
  std::string bytes = write_small_checkpoint(path);
  const std::size_t at = model_state_record(bytes);
  const std::uint64_t claimed = 1ull << 20;
  std::memcpy(bytes.data() + at + 12, &claimed, sizeof(claimed));  // dim
  std::memcpy(bytes.data() + at + 20, &claimed, sizeof(claimed));  // count
  reseal(bytes);
  const std::string error = load_error(path, bytes);
  EXPECT_NE(error.find("1048576 items of 4 bytes exceed the"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("bytes left in the file"), std::string::npos) << error;
  EXPECT_EQ(error.find("truncated"), std::string::npos) << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hetero
