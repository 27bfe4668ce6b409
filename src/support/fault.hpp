#pragma once

/**
 * @file
 * Deterministic byte-level corruption of serialized trace images, for
 * the robustness and decoder-parity suites.
 *
 * corrupt_bytes damages an image in memory (a flipped bit, a torn tail,
 * a run of garbage) at an offset derived from a seed; the test then
 * hands the image to a real reader (MappedBinaryEventSource, file-backed
 * or over an istream, BinaryEventSource, TextEventSource), so every drill
 * exercises the decoder users run. Nothing here is compiled into a
 * reader.
 */

#include <cstdint>
#include <string>

namespace aero {

/** What goes wrong in the image. */
enum class FaultKind : uint8_t {
    kNone = 0,
    kBitFlip,  ///< flip one bit of one byte
    kTruncate, ///< end the image at the chosen byte
    kGarbage,  ///< replace up to 16 bytes with seeded garbage
};

/**
 * Deterministically corrupt a serialized trace image in place. The
 * offset is derived from `seed` within [min_offset, bytes.size()).
 * @return the chosen offset (bytes.size() when the image is too small).
 */
uint64_t corrupt_bytes(std::string& bytes, FaultKind kind, uint64_t seed,
                       uint64_t min_offset = 0);

} // namespace aero
