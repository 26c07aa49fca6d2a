#include "tensor/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace hetero {
namespace {

constexpr char kTensorMagic[4] = {'H', 'S', 'T', 'N'};
constexpr char kArchiveMagic[4] = {'H', 'S', 'A', 'R'};
constexpr std::uint32_t kVersion = 1;

void write_raw(std::ostream& os, const void* data, std::size_t bytes) {
  os.write(static_cast<const char*>(data),
           static_cast<std::streamsize>(bytes));
  if (!os) throw std::runtime_error("serialize: write failed");
}

void read_raw(std::istream& is, void* data, std::size_t bytes) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (is.gcount() != static_cast<std::streamsize>(bytes)) {
    throw std::runtime_error("serialize: truncated input");
  }
}

template <typename T>
void write_pod(std::ostream& os, T v) {
  write_raw(os, &v, sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v;
  read_raw(is, &v, sizeof(T));
  return v;
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod<std::uint64_t>(os, s.size());
  write_raw(os, s.data(), s.size());
}

std::string read_string(std::istream& is) {
  const auto n = read_pod<std::uint64_t>(is);
  if (n > (1ull << 20)) throw std::runtime_error("serialize: key too long");
  std::string s(n, '\0');
  read_raw(is, s.data(), n);
  return s;
}

}  // namespace

void write_tensor(std::ostream& os, const Tensor& t) {
  write_raw(os, kTensorMagic, 4);
  write_pod<std::uint32_t>(os, kVersion);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(t.rank()));
  for (std::size_t d : t.shape()) {
    write_pod<std::uint64_t>(os, static_cast<std::uint64_t>(d));
  }
  // Element count is stored explicitly: a default-constructed tensor is
  // rank 0 with zero elements, distinct from a rank-0 scalar.
  write_pod<std::uint64_t>(os, static_cast<std::uint64_t>(t.size()));
  write_raw(os, t.data(), t.size() * sizeof(float));
}

Tensor read_tensor(std::istream& is) {
  char magic[4];
  read_raw(is, magic, 4);
  if (std::memcmp(magic, kTensorMagic, 4) != 0) {
    throw std::runtime_error("read_tensor: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kVersion) {
    throw std::runtime_error("read_tensor: unsupported version");
  }
  const auto rank = read_pod<std::uint32_t>(is);
  if (rank > 8) throw std::runtime_error("read_tensor: rank too large");
  // The volume saturates one past the element cap instead of wrapping, so
  // dims like {2^32, 2^32} cannot multiply to 0 and pass for an empty
  // tensor; a zero dim still makes any shape empty.
  constexpr std::size_t kMaxElements = 1ull << 31;
  std::vector<std::size_t> shape(rank);
  std::size_t volume = 1;
  for (auto& d : shape) {
    d = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
    if (d > (1ull << 32)) throw std::runtime_error("read_tensor: dim too big");
    volume = d != 0 && volume > kMaxElements / d ? kMaxElements + 1
                                                 : volume * d;
  }
  if (volume > kMaxElements) {
    throw std::runtime_error("read_tensor: tensor too large");
  }
  const auto count = read_pod<std::uint64_t>(is);
  if (rank == 0 && count == 0) return Tensor();  // default-constructed
  if (count != volume) {
    throw std::runtime_error("read_tensor: element count mismatch");
  }
  Tensor t(std::move(shape));
  read_raw(is, t.data(), t.size() * sizeof(float));
  return t;
}

void save_tensor(const std::string& path, const Tensor& t) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_tensor: cannot open " + path);
  write_tensor(out, t);
}

Tensor load_tensor(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_tensor: cannot open " + path);
  return read_tensor(in);
}

void TensorArchive::put(const std::string& key, Tensor t) {
  entries_[key] = std::move(t);
}

bool TensorArchive::contains(const std::string& key) const {
  return entries_.count(key) > 0;
}

const Tensor& TensorArchive::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw std::runtime_error("TensorArchive: missing key " + key);
  }
  return it->second;
}

void TensorArchive::write(std::ostream& os) const {
  write_raw(os, kArchiveMagic, 4);
  write_pod<std::uint32_t>(os, kVersion);
  write_pod<std::uint64_t>(os, entries_.size());
  for (const auto& [key, tensor] : entries_) {
    write_string(os, key);
    write_tensor(os, tensor);
  }
}

TensorArchive TensorArchive::read(std::istream& is) {
  char magic[4];
  read_raw(is, magic, 4);
  if (std::memcmp(magic, kArchiveMagic, 4) != 0) {
    throw std::runtime_error("TensorArchive: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kVersion) {
    throw std::runtime_error("TensorArchive: unsupported version");
  }
  const auto count = read_pod<std::uint64_t>(is);
  if (count > (1ull << 20)) {
    throw std::runtime_error("TensorArchive: too many entries");
  }
  TensorArchive archive;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = read_string(is);
    archive.entries_[std::move(key)] = read_tensor(is);
  }
  return archive;
}

void TensorArchive::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("TensorArchive: cannot open " + path);
  write(out);
}

TensorArchive TensorArchive::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("TensorArchive: cannot open " + path);
  return read(in);
}

}  // namespace hetero
