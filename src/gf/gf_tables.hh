/**
 * @file
 * Compile-time GF(2^8) log/antilog tables shared by the scalar entry
 * points (gf256.hh/gf256.cc) and the region-kernel variants. Other
 * layers reach them only through gf256.hh's inline mul.
 */

#ifndef CHAMELEON_GF_GF_TABLES_HH_
#define CHAMELEON_GF_GF_TABLES_HH_

#include <array>
#include <cstdint>

namespace chameleon {
namespace gf {
namespace detail {

/** Primitive polynomial x^8+x^4+x^3+x^2+1 -> 0x11D. */
inline constexpr unsigned kPoly = 0x11D;

struct Tables
{
    std::array<uint8_t, 256> log{};
    std::array<uint8_t, 512> exp{}; // doubled so mul never reduces mod 255

    constexpr Tables()
    {
        unsigned x = 1;
        for (unsigned i = 0; i < 255; ++i) {
            exp[i] = static_cast<uint8_t>(x);
            exp[i + 255] = static_cast<uint8_t>(x);
            log[x] = static_cast<uint8_t>(i);
            x <<= 1;
            if (x & 0x100)
                x ^= kPoly;
        }
        exp[510] = exp[255];
        exp[511] = exp[256];
        log[0] = 0; // unused sentinel; callers guard zero operands
    }
};

inline constexpr Tables kTables{};

} // namespace detail
} // namespace gf
} // namespace chameleon

#endif // CHAMELEON_GF_GF_TABLES_HH_
