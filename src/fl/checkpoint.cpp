#include "fl/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "tensor/serialize.h"
#include "util/config.h"

namespace hetero {
namespace {

constexpr char kMagic[4] = {'H', 'S', 'C', 'K'};
constexpr std::uint32_t kVersion = 1;
// Smallest keyed map entry on disk: a u32 key length plus an 8-byte value
// (a tensor entry is larger still).
constexpr std::uint64_t kMinEntryBytes = sizeof(std::uint32_t) + 8;

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_f64(std::ostream& os, double v) {
  // Raw bit pattern: the round-trip must be bit-exact, not text-exact.
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(os, bits);
}

void write_string(std::ostream& os, const std::string& s) {
  write_u32(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::uint32_t read_u32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("checkpoint: truncated file");
  return v;
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("checkpoint: truncated file");
  return v;
}

double read_f64(std::istream& is) {
  const std::uint64_t bits = read_u64(is);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Bytes between the read position and the end of the file. Every length
/// field read from disk is bounded by this before anything is allocated,
/// so a forged count fails as a malformed file instead of reserving
/// terabytes.
std::uint64_t bytes_left(std::istream& is) {
  const std::streampos here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(here);
  if (!is || here < 0 || end < here) {
    throw std::runtime_error("checkpoint: unreadable file");
  }
  return static_cast<std::uint64_t>(end - here);
}

/// Reads a u64 item count and rejects one whose items, at `min_item_bytes`
/// each, could not fit in the rest of the file.
std::uint64_t read_count(std::istream& is, std::uint64_t min_item_bytes) {
  const std::uint64_t n = read_u64(is);
  if (n > bytes_left(is) / min_item_bytes) {
    throw std::runtime_error("checkpoint: length exceeds file size");
  }
  return n;
}

std::string read_string(std::istream& is) {
  const std::uint32_t n = read_u32(is);
  if (n > bytes_left(is)) {
    throw std::runtime_error("checkpoint: length exceeds file size");
  }
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  if (!is) throw std::runtime_error("checkpoint: truncated file");
  return s;
}

void write_f64_vector(std::ostream& os, const std::vector<double>& v) {
  write_u64(os, v.size());
  for (double x : v) write_f64(os, x);
}

std::vector<double> read_f64_vector(std::istream& is) {
  const std::uint64_t n = read_count(is, sizeof(std::uint64_t));
  std::vector<double> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_f64(is));
  return v;
}

}  // namespace

CheckpointOptions parse_checkpoint_spec(const std::string& spec) {
  CheckpointOptions opts;
  std::size_t start = 0;
  bool first = true;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string field = spec.substr(start, end - start);
    if (first) {
      opts.dir = field;
      first = false;
    } else if (!field.empty()) {
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("parse_checkpoint_spec: bad field '" + field +
                                 "'");
      }
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "every") {
        const std::optional<std::uint64_t> n = parse_uint(value);
        if (!n || *n == 0) {
          throw std::runtime_error(
              "parse_checkpoint_spec: every must be a positive integer, got '" +
              value + "'");
        }
        opts.every = static_cast<std::size_t>(*n);
      } else if (key == "resume") {
        if (value != "0" && value != "1") {
          throw std::runtime_error(
              "parse_checkpoint_spec: resume must be 0 or 1, got '" + value +
              "'");
        }
        opts.resume = value == "1";
      } else {
        throw std::runtime_error("parse_checkpoint_spec: unknown key '" + key +
                                 "'");
      }
    }
    start = end + 1;
  }
  if (opts.dir.empty()) {
    throw std::runtime_error("parse_checkpoint_spec: empty directory");
  }
  return opts;
}

std::string checkpoint_path(const CheckpointOptions& opts) {
  return opts.dir + "/checkpoint.bin";
}

void write_checkpoint(const std::string& path,
                      const SimulationCheckpoint& ck) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path());
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("checkpoint: cannot open " + tmp);
    os.write(kMagic, sizeof(kMagic));
    write_u32(os, kVersion);
    write_u64(os, ck.next_round);
    write_u64(os, ck.seed);
    write_u64(os, ck.num_clients);
    write_u64(os, ck.clients_per_round);
    write_string(os, ck.algorithm);
    for (std::uint64_t s : ck.rng.s) write_u64(os, s);
    write_u64(os, ck.rng.has_cached_normal ? 1 : 0);
    write_f64(os, ck.rng.cached_normal);
    write_tensor(os, ck.model_state);
    write_f64_vector(os, ck.loss_history);
    write_f64_vector(os, ck.round_virtual_seconds);
    write_u64(os, ck.counters.size());
    for (const auto& [key, value] : ck.counters) {
      write_string(os, key);
      write_f64(os, value);
    }
    write_u64(os, ck.algo.scalars.size());
    for (const auto& [key, value] : ck.algo.scalars) {
      write_string(os, key);
      write_f64(os, value);
    }
    write_u64(os, ck.algo.words.size());
    for (const auto& [key, value] : ck.algo.words) {
      write_string(os, key);
      write_u64(os, value);
    }
    write_u64(os, ck.algo.tensors.size());
    for (const auto& [key, value] : ck.algo.tensors) {
      write_string(os, key);
      write_tensor(os, value);
    }
    if (!os) throw std::runtime_error("checkpoint: write failed on " + tmp);
  }
  // Atomic publish: a crash before this line leaves the old checkpoint.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint: rename to " + path + " failed");
  }
}

bool read_checkpoint(const std::string& path, SimulationCheckpoint& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  char magic[4];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("checkpoint: bad magic in " + path);
  }
  const std::uint32_t version = read_u32(is);
  if (version != kVersion) {
    throw std::runtime_error("checkpoint: unsupported version in " + path);
  }
  out.next_round = read_u64(is);
  out.seed = read_u64(is);
  out.num_clients = read_u64(is);
  out.clients_per_round = read_u64(is);
  out.algorithm = read_string(is);
  for (std::uint64_t& s : out.rng.s) s = read_u64(is);
  out.rng.has_cached_normal = read_u64(is) != 0;
  out.rng.cached_normal = read_f64(is);
  out.model_state = read_tensor(is);
  out.loss_history = read_f64_vector(is);
  out.round_virtual_seconds = read_f64_vector(is);
  out.counters.clear();
  const std::uint64_t n_counters = read_count(is, kMinEntryBytes);
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    std::string key = read_string(is);
    out.counters[std::move(key)] = read_f64(is);
  }
  out.algo = AlgorithmCheckpoint{};
  const std::uint64_t n_scalars = read_count(is, kMinEntryBytes);
  for (std::uint64_t i = 0; i < n_scalars; ++i) {
    std::string key = read_string(is);
    out.algo.scalars[std::move(key)] = read_f64(is);
  }
  const std::uint64_t n_words = read_count(is, kMinEntryBytes);
  for (std::uint64_t i = 0; i < n_words; ++i) {
    std::string key = read_string(is);
    out.algo.words[std::move(key)] = read_u64(is);
  }
  const std::uint64_t n_tensors = read_count(is, kMinEntryBytes);
  for (std::uint64_t i = 0; i < n_tensors; ++i) {
    std::string key = read_string(is);
    out.algo.tensors[std::move(key)] = read_tensor(is);
  }
  return true;
}

}  // namespace hetero
