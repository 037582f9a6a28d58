/**
 * @file
 * GF(2^8) arithmetic, the algebra underlying every erasure code here.
 *
 * The field is constructed from the AES/Rijndael-compatible primitive
 * polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the same polynomial
 * Jerasure/GF-complete default to for w = 8. Single-element
 * multiplication uses log/antilog tables; bulk chunk operations go
 * through the region kernels (mulAddRegion / mulRegion / addRegion /
 * mulAddRegionMulti), which dispatch once at startup to the fastest
 * compiled-in variant the CPU supports (AVX2 > SSSE3 > 64-bit SWAR >
 * scalar reference; see gf_kernels.hh for the contract and
 * gf_dispatch.cc for the selection policy). All variants are
 * byte-identical; regions need no particular alignment, though
 * 64-byte-aligned buffers (ec::Buffer) avoid cacheline splits.
 */

#ifndef CHAMELEON_GF_GF256_HH_
#define CHAMELEON_GF_GF256_HH_

#include <cstddef>
#include <cstdint>
#include <span>

#include "gf/gf_tables.hh"

namespace chameleon {
namespace gf {

/** Field element. */
using Elem = uint8_t;

/** Additive identity. */
inline constexpr Elem kZero = 0;
/** Multiplicative identity. */
inline constexpr Elem kOne = 1;

/** Addition = subtraction = XOR in characteristic 2. */
inline Elem add(Elem a, Elem b) { return a ^ b; }
inline Elem sub(Elem a, Elem b) { return a ^ b; }

/**
 * Field multiplication via log tables. Inline so small-matrix
 * elimination (ec::LinearCode's repair algebra) pays no call per
 * cell; byte regions go through the kernels below instead.
 */
inline Elem
mul(Elem a, Elem b)
{
    if (a == 0 || b == 0)
        return 0;
    return detail::kTables.exp[detail::kTables.log[a] +
                               detail::kTables.log[b]];
}

/** Multiplicative inverse; a must be nonzero. */
Elem inv(Elem a);

/** a / b with b nonzero. */
Elem div(Elem a, Elem b);

/** a raised to integer power e (e >= 0). */
Elem pow(Elem a, unsigned e);

/**
 * dst ^= coeff * src over byte regions (the GF "axpy").
 *
 * This is the single hot loop of encoding, decoding, and the relay
 * nodes' partial-decode combination (Equation (1) of the paper).
 * Regions must be the same length and may not alias unless equal.
 */
void mulAddRegion(std::span<Elem> dst, std::span<const Elem> src,
                  Elem coeff);

/** dst = coeff * src over byte regions. */
void mulRegion(std::span<Elem> dst, std::span<const Elem> src, Elem coeff);

/** dst ^= src over byte regions. */
void addRegion(std::span<Elem> dst, std::span<const Elem> src);

/**
 * Fused multi-source axpy: dst ^= sum_i coeffs[i] * srcs[i], the
 * whole right-hand side of Equation (1) in one cache-blocked pass.
 *
 * Encoding a parity chunk, decoding an erased chunk, and a relay's
 * partial-decode combination are all single calls here: the
 * destination is streamed through once while every source folds into
 * an in-register accumulator, instead of one full read-modify-write
 * pass per source. Zero coefficients are skipped. Every source must
 * be at least dst.size() bytes and must not overlap dst.
 */
void mulAddRegionMulti(std::span<Elem> dst,
                       std::span<const Elem *const> srcs,
                       std::span<const Elem> coeffs);

/**
 * Name of the region-kernel variant this process dispatches through
 * ("avx2", "ssse3", "swar", or "scalar"); fixed after first use.
 */
const char *kernelName();

} // namespace gf
} // namespace chameleon

#endif // CHAMELEON_GF_GF256_HH_
