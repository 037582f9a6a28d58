#include "gf/gf256.hh"

#include <array>

#include "gf/gf_kernels.hh"
#include "gf/gf_tables.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace gf {

namespace {

using detail::kTables;

/** Bytes pushed through each region entry point, for codec-throughput
 * accounting in exported metric snapshots. Handles resolve once, in
 * the process-wide registry: they outlive any per-run registry and
 * are shared by every concurrent run (Counter is atomic). */
struct RegionCounters
{
    telemetry::Counter &mulAdd;
    telemetry::Counter &mul;
    telemetry::Counter &add;
    telemetry::Counter &multi;

    RegionCounters()
        : mulAdd(telemetry::processMetrics()
                     .counter("gf.bytes.muladd")),
          mul(telemetry::processMetrics().counter("gf.bytes.mul")),
          add(telemetry::processMetrics().counter("gf.bytes.add")),
          multi(telemetry::processMetrics()
                    .counter("gf.bytes.muladd_multi"))
    {
    }
};

RegionCounters &
counters()
{
    static RegionCounters c;
    return c;
}

} // namespace

Elem
inv(Elem a)
{
    CHAMELEON_ASSERT(a != 0, "inverse of zero");
    return kTables.exp[255 - kTables.log[a]];
}

Elem
div(Elem a, Elem b)
{
    CHAMELEON_ASSERT(b != 0, "division by zero");
    if (a == 0)
        return 0;
    unsigned diff = 255u + kTables.log[a] - kTables.log[b];
    return kTables.exp[diff % 255];
}

Elem
pow(Elem a, unsigned e)
{
    if (e == 0)
        return kOne;
    if (a == 0)
        return kZero;
    unsigned le = (static_cast<unsigned>(kTables.log[a]) * e) % 255;
    return kTables.exp[le];
}

void
mulAddRegion(std::span<Elem> dst, std::span<const Elem> src, Elem coeff)
{
    CHAMELEON_ASSERT(dst.size() == src.size(),
                     "region size mismatch: ", dst.size(), " vs ",
                     src.size());
    if (coeff == 0 || dst.empty())
        return;
    counters().mulAdd.add(static_cast<int64_t>(dst.size()));
    if (coeff == 1) {
        detail::activeKernels().add(dst.data(), src.data(),
                                    dst.size());
        return;
    }
    detail::activeKernels().mulAdd(dst.data(), src.data(), dst.size(),
                                   coeff);
}

void
mulRegion(std::span<Elem> dst, std::span<const Elem> src, Elem coeff)
{
    CHAMELEON_ASSERT(dst.size() == src.size(), "region size mismatch");
    if (coeff == 0) {
        for (auto &b : dst)
            b = 0;
        return;
    }
    if (dst.empty())
        return;
    if (coeff == 1) {
        if (dst.data() != src.data())
            std::copy(src.begin(), src.end(), dst.begin());
        return;
    }
    counters().mul.add(static_cast<int64_t>(dst.size()));
    detail::activeKernels().mul(dst.data(), src.data(), dst.size(),
                                coeff);
}

void
addRegion(std::span<Elem> dst, std::span<const Elem> src)
{
    CHAMELEON_ASSERT(dst.size() == src.size(), "region size mismatch");
    if (dst.empty())
        return;
    counters().add.add(static_cast<int64_t>(dst.size()));
    detail::activeKernels().add(dst.data(), src.data(), dst.size());
}

void
mulAddRegionMulti(std::span<Elem> dst, std::span<const Elem *const> srcs,
                  std::span<const Elem> coeffs)
{
    CHAMELEON_ASSERT(srcs.size() == coeffs.size(),
                     "source/coefficient count mismatch: ",
                     srcs.size(), " vs ", coeffs.size());
    if (dst.empty() || srcs.empty())
        return;

    // Strip zero coefficients so kernels see only real work; small
    // fixed batches keep the filtered arrays on the stack (repair
    // plans are capped well below this by the executor's mask width).
    constexpr std::size_t kBatch = 64;
    std::array<const Elem *, kBatch> fsrcs;
    std::array<Elem, kBatch> fcoeffs;
    std::size_t cnt = 0;
    for (std::size_t i = 0; i < srcs.size(); ++i) {
        if (coeffs[i] == 0)
            continue;
        CHAMELEON_ASSERT(srcs[i] != nullptr, "null source region");
        fsrcs[cnt] = srcs[i];
        fcoeffs[cnt] = coeffs[i];
        if (++cnt == kBatch) {
            detail::activeKernels().mulAddMulti(
                dst.data(), fsrcs.data(), fcoeffs.data(), cnt,
                dst.size());
            counters().multi.add(
                static_cast<int64_t>(cnt * dst.size()));
            cnt = 0;
        }
    }
    if (cnt > 0) {
        detail::activeKernels().mulAddMulti(dst.data(), fsrcs.data(),
                                            fcoeffs.data(), cnt,
                                            dst.size());
        counters().multi.add(static_cast<int64_t>(cnt * dst.size()));
    }
}

const char *
kernelName()
{
    return detail::activeKernels().name;
}

} // namespace gf
} // namespace chameleon
