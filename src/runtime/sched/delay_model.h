// Per-client virtual compute times derived from device profiles.
//
// The paper's Table 1 vendor grid assigns every device a performance tier
// ('H'/'M'/'L'); "On the Impact of Device and Behavioral Heterogeneity in
// FL" shows those speed classes — not a single global straggler knob —
// decide which hardware distributions actually reach the server. This
// model turns (device tier, vendor, local dataset size) into deterministic
// virtual compute seconds for the event scheduler, and the same per-client
// scales feed FaultOptions::delay_scale_fn so HS_FAULTS stragglers and
// the scheduler share one seeded delay source (the FaultPlan stream).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hetero {

struct DeviceProfile;
class ClientProvider;

/// Relative compute slowdown of one device tier: H < M (= 1) < L. A small
/// deterministic vendor nudge keeps same-tier devices from being exact
/// clones, mirroring how Table 2's degradation structure varies by vendor.
double tier_speed_scale(char tier, const std::string& vendor);

/// tier_speed_scale for each device, in registry order. Feed the result to
/// FlPopulation::device_speed_scale.
std::vector<double> device_speed_scales(
    const std::vector<DeviceProfile>& devices);

/// Deterministic virtual compute-time model: client i training on w_i
/// samples takes
///   base_compute_s * w_i * scale_i * (1 + jitter_frac * u)
/// virtual seconds, where u in [-1, 1) comes from the client's fault
/// stream (FaultDecision::compute_jitter) so identical seeds reproduce
/// identical timelines for any thread count.
struct DelayModel {
  double base_compute_s = 0.0;  ///< seconds per work unit (sample)
  double jitter_frac = 0.0;     ///< relative jitter amplitude in [0, 1)
  /// The one source of per-client speed (speed_scale_of) and work
  /// (work_of); null = homogeneous scale and work 1. Non-owning; must
  /// outlive the scheduler run.
  const ClientProvider* provider = nullptr;

  double compute_seconds(std::size_t client, double jitter_u) const;
};

}  // namespace hetero
