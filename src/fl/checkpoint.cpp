#include "fl/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "util/bytes.h"
#include "util/crc32.h"

namespace hetero {
namespace {

constexpr char kMagic[4] = {'H', 'S', 'C', 'K'};
// Version 2 appends a CRC-32 of every preceding byte; version 1 had none.
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + sizeof(std::uint32_t);
constexpr std::size_t kCrcBytes = sizeof(std::uint32_t);
// Smallest keyed map entry on disk: a u32 key length plus an 8-byte value
// (a tensor entry is larger still).
constexpr std::uint64_t kMinEntryBytes = sizeof(std::uint32_t) + 8;

// A tensor is stored as an "HSTN" version-1 record:
//   magic | u32 version | u32 rank | u64 dims[rank] | u64 count | f32[count]
// The count is explicit because a default-constructed tensor is rank 0
// with zero elements, distinct from a one-element rank-0 scalar.
constexpr char kTensorMagic[4] = {'H', 'S', 'T', 'N'};
constexpr std::uint32_t kTensorVersion = 1;
constexpr std::uint32_t kMaxTensorRank = 8;
constexpr std::uint64_t kMaxTensorDim = 1ull << 32;
constexpr std::uint64_t kMaxTensorElements = 1ull << 31;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

/// Throws unless every read so far stayed inside the body and `n` items of
/// `item_bytes` each fit in the bytes left. Every count and length read
/// from the file passes through here before anything is allocated for it,
/// so a forged one fails as a malformed file instead of reserving memory.
void check_fits(const ByteReader& r, std::uint64_t n,
                std::uint64_t item_bytes) {
  if (!r.ok()) fail("truncated file");
  if (n > r.remaining() / item_bytes) {
    fail(std::to_string(n) + " items of " + std::to_string(item_bytes) +
         " bytes exceed the " + std::to_string(r.remaining()) +
         " bytes left in the file");
  }
}

void put_string(ByteWriter& w, const std::string& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.bytes(s.data(), s.size());
}

std::string get_string(ByteReader& r) {
  const std::uint32_t n = r.u32();
  check_fits(r, n, 1);
  std::string s(n, '\0');
  r.bytes(s.data(), n);
  return s;
}

// One put_value/get_value pair per stored value type; doubles are raw
// 8-byte bit patterns, so the round trip is bit-exact, not text-exact.

void put_value(ByteWriter& w, double v) { w.f64(v); }
void get_value(ByteReader& r, double& v) { v = r.f64(); }
void put_value(ByteWriter& w, std::uint64_t v) { w.u64(v); }
void get_value(ByteReader& r, std::uint64_t& v) { v = r.u64(); }

void put_value(ByteWriter& w, const std::vector<double>& v) {
  w.u64(v.size());
  for (double x : v) w.f64(x);
}

void get_value(ByteReader& r, std::vector<double>& v) {
  const std::uint64_t n = r.u64();
  check_fits(r, n, sizeof(double));
  v.resize(n);
  for (double& x : v) x = r.f64();
}

void put_value(ByteWriter& w, const Tensor& t) {
  w.bytes(kTensorMagic, sizeof(kTensorMagic));
  w.u32(kTensorVersion);
  w.u32(static_cast<std::uint32_t>(t.rank()));
  for (std::size_t d : t.shape()) w.u64(d);
  w.u64(t.size());
  w.bytes(t.data(), t.size() * sizeof(float));
}

void get_value(ByteReader& r, Tensor& t) {
  char magic[sizeof(kTensorMagic)];
  r.bytes(magic, sizeof(magic));
  const std::uint32_t version = r.u32();
  const std::uint32_t rank = r.u32();
  if (!r.ok()) fail("truncated file");
  if (std::memcmp(magic, kTensorMagic, sizeof(magic)) != 0) {
    fail("bad tensor magic");
  }
  if (version != kTensorVersion) {
    fail("unsupported tensor version " + std::to_string(version));
  }
  if (rank > kMaxTensorRank) fail("tensor rank too large");
  // The volume saturates one past the element cap instead of wrapping, so
  // dims like {2^32, 2^32} cannot multiply to 0 and pass for an empty
  // tensor; a zero dim still makes any shape empty.
  std::vector<std::size_t> shape(rank);
  std::uint64_t volume = 1;
  for (std::size_t& d : shape) {
    const std::uint64_t dim = r.u64();
    if (dim > kMaxTensorDim) fail("tensor dim too big");
    volume = dim != 0 && volume > kMaxTensorElements / dim
                 ? kMaxTensorElements + 1
                 : volume * dim;
    d = static_cast<std::size_t>(dim);
  }
  if (volume > kMaxTensorElements) fail("tensor too large");
  const std::uint64_t count = r.u64();
  check_fits(r, count, sizeof(float));
  if (rank == 0 && count == 0) {
    t = Tensor();  // default-constructed
    return;
  }
  if (count != volume) fail("tensor element count mismatch");
  t = Tensor::uninit(std::move(shape));
  r.bytes(t.data(), count * sizeof(float));
}

template <class V>
void put_value(ByteWriter& w, const std::map<std::string, V>& m) {
  w.u64(m.size());
  for (const auto& [key, value] : m) {
    put_string(w, key);
    put_value(w, value);
  }
}

template <class V>
void get_value(ByteReader& r, std::map<std::string, V>& m) {
  const std::uint64_t n = r.u64();
  check_fits(r, n, kMinEntryBytes);
  m.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = get_string(r);
    get_value(r, m[std::move(key)]);
  }
}

}  // namespace

std::string checkpoint_path(const CheckpointOptions& opts) {
  return opts.dir + "/checkpoint.bin";
}

void write_checkpoint(const std::string& path,
                      const SimulationCheckpoint& ck) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path());
  }
  ByteWriter w;
  w.bytes(kMagic, sizeof(kMagic));
  w.u32(kVersion);
  w.u64(ck.next_round);
  w.u64(ck.seed);
  w.u64(ck.num_clients);
  w.u64(ck.clients_per_round);
  put_string(w, ck.algorithm);
  for (std::uint64_t s : ck.rng.s) w.u64(s);
  w.u64(ck.rng.has_cached_normal ? 1 : 0);
  w.f64(ck.rng.cached_normal);
  put_value(w, ck.model_state);
  put_value(w, ck.loss_history);
  put_value(w, ck.round_virtual_seconds);
  put_value(w, ck.counters);
  put_value(w, ck.algo.scalars);
  put_value(w, ck.algo.words);
  put_value(w, ck.algo.tensors);
  w.u32(crc32(w.data().data(), w.data().size()));
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) fail("cannot open " + tmp);
    file.write(reinterpret_cast<const char*>(w.data().data()),
               static_cast<std::streamsize>(w.data().size()));
    if (!file) fail("write failed on " + tmp);
  }
  // Atomic publish: a crash before this line leaves the old checkpoint.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("rename to " + path + " failed");
  }
}

bool read_checkpoint(const std::string& path, SimulationCheckpoint& out) {
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream file(path, std::ios::binary);
    if (!file) return false;
    bytes.assign(std::istreambuf_iterator<char>(file), {});
    if (file.bad()) fail("cannot read " + path);
  }
  if (bytes.size() < kHeaderBytes + kCrcBytes) fail("truncated file " + path);
  const std::size_t body = bytes.size() - kCrcBytes;
  ByteReader r(bytes.data(), body);
  char magic[sizeof(kMagic)];
  r.bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    fail("bad magic in " + path);
  }
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    fail("unsupported version " + std::to_string(version) + " in " + path +
         " (this build reads version " + std::to_string(kVersion) + ")");
  }
  // The CRC covers every byte before it, so a flipped bit anywhere in the
  // body fails here instead of loading as a different run.
  if (crc32(bytes.data(), body) !=
      ByteReader(bytes.data() + body, kCrcBytes).u32()) {
    fail("CRC mismatch in " + path);
  }
  out.next_round = r.u64();
  out.seed = r.u64();
  out.num_clients = r.u64();
  out.clients_per_round = r.u64();
  out.algorithm = get_string(r);
  for (std::uint64_t& s : out.rng.s) s = r.u64();
  out.rng.has_cached_normal = r.u64() != 0;
  out.rng.cached_normal = r.f64();
  get_value(r, out.model_state);
  get_value(r, out.loss_history);
  get_value(r, out.round_virtual_seconds);
  get_value(r, out.counters);
  get_value(r, out.algo.scalars);
  get_value(r, out.algo.words);
  get_value(r, out.algo.tensors);
  if (!r.ok()) fail("truncated file " + path);
  if (r.remaining() != 0) fail("trailing bytes in " + path);
  return true;
}

}  // namespace hetero
