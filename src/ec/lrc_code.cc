#include "ec/lrc_code.hh"

#include <algorithm>

#include "util/logging.hh"

namespace chameleon {
namespace ec {

namespace {

int
groupSizeOf(int k, int l, int gi)
{
    // Uneven split: the first k % l groups take one extra chunk.
    return k / l + (gi < k % l ? 1 : 0);
}

int
groupStartOf(int k, int l, int gi)
{
    return gi * (k / l) + std::min(gi, k % l);
}

gf::Matrix
buildLrcGenerator(int k, int l, int g, int m)
{
    CHAMELEON_ASSERT(l >= 1 && l <= k,
                     "LRC requires 1 <= l <= k, got k=", k, " l=", l);
    CHAMELEON_ASSERT(g >= 1, "LRC needs >= 1 local parity per group");
    CHAMELEON_ASSERT(m >= 1, "LRC needs >= 1 global parity");
    const int n = k + l * g + m;
    CHAMELEON_ASSERT(n <= 256, "LRC(", k, ",", l, ",", g, ",", m,
                     ") exceeds GF(2^8) limit");
    gf::Matrix gen(static_cast<std::size_t>(n),
                   static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i)
        gen.set(i, i, gf::kOne);
    // Local parities. g == 1 keeps the classic XOR rows (and, with
    // l | k, a generator byte-identical to the original three-arg
    // LrcCode); g > 1 uses per-group Cauchy rows, making each group
    // MDS against g local losses.
    for (int gi = 0; gi < l; ++gi) {
        const int start = groupStartOf(k, l, gi);
        const int size = groupSizeOf(k, l, gi);
        if (g == 1) {
            for (int j = 0; j < size; ++j)
                gen.set(k + gi, start + j, gf::kOne);
        } else {
            gf::Matrix local =
                gf::Matrix::cauchy(static_cast<std::size_t>(g),
                                   static_cast<std::size_t>(size));
            for (int r = 0; r < g; ++r)
                for (int c = 0; c < size; ++c)
                    gen.set(k + gi * g + r, start + c,
                            local.at(r, c));
        }
    }
    // Global parities: Cauchy combinations of all data chunks.
    gf::Matrix parity = gf::Matrix::cauchy(static_cast<std::size_t>(m),
                                           static_cast<std::size_t>(k));
    for (int r = 0; r < m; ++r)
        for (int c = 0; c < k; ++c)
            gen.set(k + l * g + r, c, parity.at(r, c));
    return gen;
}

} // namespace

LrcCode::LrcCode(int k, int l, int m)
    : LrcCode(k, l, 1, m)
{
    CHAMELEON_ASSERT(k % l == 0,
                     "classic LRC requires l | k, got k=", k, " l=", l);
}

LrcCode::LrcCode(int k, int l, int g, int m)
    : LinearCode(k, l * g + m, buildLrcGenerator(k, l, g, m)),
      l_(l), g_(g), mGlobal_(m)
{
}

std::string
LrcCode::name() const
{
    if (g_ == 1)
        return "LRC(" + std::to_string(k()) + "," +
               std::to_string(l_) + "," + std::to_string(mGlobal_) +
               ")";
    return "LRC(" + std::to_string(k()) + "," + std::to_string(l_) +
           "," + std::to_string(g_) + "," + std::to_string(mGlobal_) +
           ")";
}

int
LrcCode::groupSize(int gi) const
{
    CHAMELEON_ASSERT(gi >= 0 && gi < l_, "bad group ", gi);
    return groupSizeOf(k(), l_, gi);
}

int
LrcCode::groupStart(int gi) const
{
    CHAMELEON_ASSERT(gi >= 0 && gi < l_, "bad group ", gi);
    return groupStartOf(k(), l_, gi);
}

int
LrcCode::groupSize() const
{
    CHAMELEON_ASSERT(k() % l_ == 0,
                     name(), " has uneven groups; use groupSize(gi)");
    return k() / l_;
}

int
LrcCode::groupOf(ChunkIndex idx) const
{
    if (idx < k()) {
        const int base = k() / l_;
        const int rem = k() % l_;
        const int fat = rem * (base + 1);
        if (idx < fat)
            return idx / (base + 1);
        return rem + (idx - fat) / base;
    }
    if (idx < k() + l_ * g_)
        return (idx - k()) / g_;
    return -1;
}

RepairSpec
LrcCode::makeRepairSpec(ChunkIndex failed,
                        std::span<const ChunkIndex> available,
                        Rng &rng) const
{
    auto available_of = [&](const std::vector<ChunkIndex> &want) {
        std::vector<ChunkIndex> have;
        for (ChunkIndex w : want)
            if (w != failed &&
                std::find(available.begin(), available.end(), w) !=
                    available.end())
                have.push_back(w);
        return have;
    };

    const int g = groupOf(failed);
    if (g >= 0) {
        // Data chunk or local parity: try the local group (its data
        // chunks plus its local parities) first. The solver both
        // decides solvability and drops zero-coefficient helpers, so
        // with g_ > 1 only one local parity is actually read.
        std::vector<ChunkIndex> want;
        for (int j = 0; j < groupSize(g); ++j)
            want.push_back(groupStart(g) + j);
        for (int j = 0; j < g_; ++j)
            want.push_back(static_cast<ChunkIndex>(k() + g * g_ + j));
        auto helpers = available_of(want);
        if (helpers.size() == want.size() - 1)
            if (auto spec = specFor(failed, helpers))
                return std::move(*spec);
    } else {
        // Global parity: read the k data chunks when intact.
        std::vector<ChunkIndex> want;
        for (ChunkIndex j = 0; j < k(); ++j)
            want.push_back(j);
        auto helpers = available_of(want);
        if (helpers.size() == want.size())
            return specFromHelpers(failed, helpers);
    }

    // Degraded path (another failure in the group / missing data):
    // shuffle the survivors and let the coefficient solver pick a
    // minimal combination (zero-coefficient helpers are dropped).
    std::vector<ChunkIndex> pool(available.begin(), available.end());
    for (std::size_t i = 0; i + 1 < pool.size(); ++i) {
        auto j = i + rng.below(pool.size() - i);
        std::swap(pool[i], pool[j]);
    }
    auto spec = specFor(failed, pool);
    CHAMELEON_ASSERT(spec.has_value(),
                     name(), ": failure pattern not recoverable for chunk ",
                     failed);
    return std::move(*spec);
}

HelperPool
LrcCode::helperPool(ChunkIndex failed,
                    std::span<const ChunkIndex> available) const
{
    auto available_of = [&](const std::vector<ChunkIndex> &want) {
        std::vector<ChunkIndex> have;
        for (ChunkIndex w : want)
            if (w != failed &&
                std::find(available.begin(), available.end(), w) !=
                    available.end())
                have.push_back(w);
        return have;
    };

    HelperPool pool;
    pool.combinable = true;
    const int g = groupOf(failed);
    if (g >= 0) {
        std::vector<ChunkIndex> want;
        for (int j = 0; j < groupSize(g); ++j)
            want.push_back(groupStart(g) + j);
        for (int j = 0; j < g_; ++j)
            want.push_back(static_cast<ChunkIndex>(k() + g * g_ + j));
        auto local = available_of(want);
        if (auto minimal = minimalHelpersFor(failed, local)) {
            pool.candidates = std::move(*minimal);
            pool.required = static_cast<int>(pool.candidates.size());
            pool.fixedSet = true;
            return pool;
        }
    } else {
        std::vector<ChunkIndex> data;
        for (ChunkIndex j = 0; j < k(); ++j)
            data.push_back(j);
        if (available_of(data).size() == data.size()) {
            pool.candidates = std::move(data);
            pool.required = k();
            pool.fixedSet = true;
            return pool;
        }
    }

    // Degraded: derive the true minimal helper set from the
    // generator. An unrepairable pattern yields an empty candidate
    // list (< required), which the admission gates report as
    // unrecoverable instead of panicking inside makeRepairSpec.
    if (auto minimal = minimalHelpersFor(failed, available)) {
        pool.candidates = std::move(*minimal);
        pool.required = static_cast<int>(pool.candidates.size());
        pool.fixedSet = true;
        return pool;
    }
    pool.candidates.clear();
    pool.required = k();
    pool.fixedSet = false;
    return pool;
}

} // namespace ec
} // namespace chameleon
