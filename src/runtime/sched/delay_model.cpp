#include "runtime/sched/delay_model.h"

#include <algorithm>

#include "device/device_profile.h"
#include "fl/client_provider.h"

namespace hetero {

double tier_speed_scale(char tier, const std::string& vendor) {
  double scale = 1.0;
  switch (tier) {
    case 'H': scale = 0.7; break;
    case 'M': scale = 1.0; break;
    case 'L': scale = 1.9; break;
    default: scale = 1.0; break;
  }
  // Stable per-vendor nudge (±4%) so same-tier devices from different
  // vendors do not finish at exactly the same virtual instant.
  std::size_t h = 0;
  for (char c : vendor) h = h * 131 + static_cast<unsigned char>(c);
  const double nudge = static_cast<double>(h % 9) / 100.0 - 0.04;
  return scale * (1.0 + nudge);
}

std::vector<double> device_speed_scales(
    const std::vector<DeviceProfile>& devices) {
  std::vector<double> scales;
  scales.reserve(devices.size());
  for (const DeviceProfile& d : devices) {
    scales.push_back(tier_speed_scale(d.tier, d.vendor));
  }
  return scales;
}

double DelayModel::compute_seconds(std::size_t client, double jitter_u) const {
  if (base_compute_s <= 0.0) return 0.0;
  double scale = 1.0, work = 1.0;
  if (provider != nullptr) {
    scale = provider->speed_scale_of(client);
    work = provider->work_of(client);
  }
  const double jitter = std::max(0.0, 1.0 + jitter_frac * jitter_u);
  return base_compute_s * work * scale * jitter;
}

}  // namespace hetero
