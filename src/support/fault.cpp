#include "support/fault.hpp"

#include <algorithm>

namespace aero {

namespace {

/** splitmix64: cheap, well-mixed; good enough to pick bits and bytes. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
corrupt_bytes(std::string& bytes, FaultKind kind, uint64_t seed,
              uint64_t min_offset)
{
    if (bytes.size() <= min_offset)
        return bytes.size();
    const uint64_t span = bytes.size() - min_offset;
    const uint64_t offset = min_offset + mix64(seed) % span;
    switch (kind) {
      case FaultKind::kBitFlip:
        bytes[offset] ^= static_cast<char>(1 << (mix64(seed + 1) % 8));
        break;
      case FaultKind::kTruncate:
        bytes.resize(offset);
        break;
      case FaultKind::kGarbage: {
        uint64_t r = mix64(seed + 2);
        const uint64_t n = std::min<uint64_t>(16, bytes.size() - offset);
        for (uint64_t i = 0; i < n; ++i) {
            r = mix64(r);
            bytes[offset + i] = static_cast<char>(r & 0xff);
        }
        break;
      }
      default:
        break;
    }
    return offset;
}

} // namespace aero
