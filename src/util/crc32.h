// CRC-32 (IEEE 802.3 polynomial), shared by the wire protocol's frame check
// (net/wire) and the checkpoint file's trailer (fl/checkpoint).
#pragma once

#include <cstddef>
#include <cstdint>

namespace hetero {

/// Table-driven CRC-32. `seed` chains partial computations:
/// crc32(b, crc32(a)) == crc32(a+b).
std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed = 0);

}  // namespace hetero
