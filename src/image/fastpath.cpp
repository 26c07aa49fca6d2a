#include "image/fastpath.h"

#include <atomic>
#include <vector>

namespace hetero::img {
namespace {

std::atomic<std::uint64_t> g_grow_count{0};
std::atomic<PathKind> g_active_path{PathKind::kFast};

}  // namespace

PathKind active_path() {
  return g_active_path.load(std::memory_order_relaxed);
}

void set_active_path(PathKind kind) {
  g_active_path.store(kind, std::memory_order_relaxed);
}

float* scratch(std::size_t slot, std::size_t count) {
  thread_local std::vector<std::vector<float>> slots;
  if (slot >= slots.size()) slots.resize(slot + 1);
  std::vector<float>& buf = slots[slot];
  if (buf.size() < count) {
    buf.resize(count);
    g_grow_count.fetch_add(1, std::memory_order_relaxed);
  }
  return buf.data();
}

std::uint64_t scratch_grow_count() {
  return g_grow_count.load(std::memory_order_relaxed);
}

}  // namespace hetero::img
