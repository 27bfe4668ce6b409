#pragma once

/**
 * @file
 * AERO_ALWAYS_INLINE: inline a hot-path helper that -O2's size limits
 * would leave out of line (GCC and Clang); a plain `inline` elsewhere.
 * Reserved for per-event fast paths whose call overhead a benchmark row
 * shows.
 */

#if defined(__GNUC__)
#define AERO_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define AERO_ALWAYS_INLINE inline
#endif
