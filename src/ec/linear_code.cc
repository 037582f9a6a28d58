#include "ec/linear_code.hh"

#include <algorithm>

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace chameleon {
namespace ec {

LinearCode::LinearCode(int k, int m, gf::Matrix gen)
    : k_(k), m_(m), gen_(std::move(gen))
{
    CHAMELEON_ASSERT(k >= 1 && m >= 1, "k and m must be positive");
    CHAMELEON_ASSERT(gen_.rows() == static_cast<std::size_t>(k + m) &&
                     gen_.cols() == static_cast<std::size_t>(k),
                     "generator must be (k+m) x k");
    // Systematic check: identity on the first k rows.
    for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) {
            gf::Elem want = (i == j) ? gf::kOne : gf::kZero;
            CHAMELEON_ASSERT(gen_.at(i, j) == want,
                             "generator is not systematic at (", i,
                             ",", j, ")");
        }
    }
}

std::vector<Buffer>
LinearCode::encode(const std::vector<Buffer> &data) const
{
    CHAMELEON_ASSERT(data.size() == static_cast<std::size_t>(k_),
                     "encode expects ", k_, " data chunks, got ",
                     data.size());
    const std::size_t size = data[0].size();
    for (const auto &d : data)
        CHAMELEON_ASSERT(d.size() == size, "chunk sizes differ");

    // One fused kernel call per parity chunk: the row of G applied to
    // all k data chunks in a single cache-blocked pass.
    std::vector<const gf::Elem *> srcs(static_cast<std::size_t>(k_));
    for (int j = 0; j < k_; ++j)
        srcs[static_cast<std::size_t>(j)] =
            data[static_cast<std::size_t>(j)].data();
    std::vector<Buffer> parity(m_, Buffer(size, 0));
    for (int p = 0; p < m_; ++p)
        gf::mulAddRegionMulti(std::span<uint8_t>(parity[p]), srcs,
                              gen_.row(k_ + p));
    return parity;
}

namespace {

/** Rank of the unknowns block and solvability of every right-hand
 * side, as found by eliminate(). */
struct Elimination
{
    std::size_t rank;
    bool solvable;
};

/**
 * The one Gauss-Jordan elimination behind every repair-algebra
 * question. The system's columns are the rows `cols` of `src` (the
 * unknowns) followed by the rows `rhs` of `src` (right-hand sides);
 * its rows are the src.cols() coordinates. Pivots are taken column
 * by column in `cols` order, so the pivot columns are the first
 * linearly independent subset of `cols` in that order and each
 * solvable right-hand side has exactly one representation over them;
 * free columns get coefficient zero.
 *
 * The matrix is a flat row-major per-thread scratch (no allocation
 * once warm) filled straight from src's rows, with inline gf::mul per
 * cell; the counted region kernels are never involved. Each call adds
 * one to the process counter ec.eliminations.
 *
 * @param x  if non-null and every right-hand side is solvable,
 *           receives rhs.size() x cols.size() coefficients,
 *           row-major (right-hand side j in row j).
 */
Elimination
eliminate(const gf::Matrix &src, std::span<const ChunkIndex> cols,
          std::span<const ChunkIndex> rhs, std::vector<gf::Elem> *x)
{
    static telemetry::Counter &eliminations =
        telemetry::processMetrics().counter("ec.eliminations");
    eliminations.add();

    const std::size_t rows = src.cols();
    const std::size_t h = cols.size();
    const std::size_t w = h + rhs.size();
    thread_local std::vector<gf::Elem> a;
    thread_local std::vector<std::size_t> pivot_col;
    a.resize(rows * w);
    pivot_col.resize(rows);
    for (std::size_t i = 0; i < w; ++i) {
        auto v = src.row(
            static_cast<std::size_t>(i < h ? cols[i] : rhs[i - h]));
        for (std::size_t c = 0; c < rows; ++c)
            a[c * w + i] = v[c];
    }

    // A rank-only question (no right-hand side) needs no
    // back-substitution: clear below the pivot only.
    std::size_t rank = 0;
    for (std::size_t col = 0; col < h && rank < rows; ++col) {
        std::size_t piv = rank;
        while (piv < rows && a[piv * w + col] == 0)
            ++piv;
        if (piv == rows)
            continue;
        // Rows at or below the rank are zero left of col.
        gf::Elem *prow = &a[rank * w];
        if (piv != rank)
            std::swap_ranges(prow + col, prow + w, &a[piv * w + col]);
        const gf::Elem piv_inv = gf::inv(prow[col]);
        for (std::size_t j = col; j < w; ++j)
            prow[j] = gf::mul(prow[j], piv_inv);
        for (std::size_t r = rhs.empty() ? rank + 1 : 0; r < rows; ++r) {
            gf::Elem *row = &a[r * w];
            const gf::Elem f = row[col];
            if (r == rank || f == 0)
                continue;
            for (std::size_t j = col; j < w; ++j)
                row[j] ^= gf::mul(f, prow[j]);
        }
        pivot_col[rank++] = col;
    }
    // Rows past the rank are zero on the unknowns, so a nonzero
    // right-hand side there is inconsistent.
    for (std::size_t r = rank; r < rows; ++r)
        for (std::size_t j = h; j < w; ++j)
            if (a[r * w + j] != 0)
                return {rank, false};
    if (x != nullptr) {
        x->assign(rhs.size() * h, 0);
        for (std::size_t r = 0; r < rank; ++r)
            for (std::size_t j = 0; j < rhs.size(); ++j)
                (*x)[j * h + pivot_col[r]] = a[r * w + h + j];
    }
    return {rank, true};
}

/** Ascending survivor list: [0, n) minus the erased set. */
std::vector<ChunkIndex>
survivorsOf(int n, std::span<const ChunkIndex> erased)
{
    std::vector<bool> gone(static_cast<std::size_t>(n), false);
    for (auto e : erased)
        gone[static_cast<std::size_t>(e)] = true;
    std::vector<ChunkIndex> out;
    out.reserve(static_cast<std::size_t>(n) - erased.size());
    for (ChunkIndex i = 0; i < n; ++i)
        if (!gone[static_cast<std::size_t>(i)])
            out.push_back(i);
    return out;
}

} // namespace

std::optional<std::vector<gf::Elem>>
LinearCode::repairCoeffs(ChunkIndex failed,
                         std::span<const ChunkIndex> helpers) const
{
    CHAMELEON_ASSERT(failed >= 0 && failed < n(), "bad failed index");
    for (auto idx : helpers) {
        CHAMELEON_ASSERT(idx >= 0 && idx < n(), "bad helper index");
        CHAMELEON_ASSERT(idx != failed, "helper equals failed chunk");
    }
    std::vector<gf::Elem> x;
    if (!eliminate(gen_, helpers, {&failed, 1}, &x).solvable)
        return std::nullopt;
    return x;
}

RepairSpec
LinearCode::specFromHelpers(ChunkIndex failed,
                            std::span<const ChunkIndex> helpers) const
{
    auto spec = specFor(failed, helpers);
    CHAMELEON_ASSERT(spec.has_value(),
                     "helpers cannot repair chunk ", failed);
    return std::move(*spec);
}

std::optional<RepairSpec>
LinearCode::specFor(ChunkIndex failed,
                    std::span<const ChunkIndex> helpers) const
{
    auto coeffs = repairCoeffs(failed, helpers);
    if (!coeffs)
        return std::nullopt;
    RepairSpec spec;
    spec.failed = failed;
    spec.combinable = true;
    spec.reads.reserve(helpers.size());
    for (std::size_t i = 0; i < helpers.size(); ++i) {
        // A zero coefficient means this helper contributes nothing;
        // dropping it keeps repair traffic minimal.
        if ((*coeffs)[i] == 0)
            continue;
        spec.reads.push_back(RepairRead{helpers[i], 1.0, (*coeffs)[i]});
    }
    return spec;
}

Buffer
LinearCode::repairCompute(const RepairSpec &spec,
                          const std::vector<Buffer> &helper_data) const
{
    CHAMELEON_ASSERT(helper_data.size() == spec.reads.size(),
                     "helper data count mismatch");
    CHAMELEON_ASSERT(!helper_data.empty(), "no helper data");
    const std::size_t size = helper_data[0].size();
    std::vector<const gf::Elem *> srcs(helper_data.size());
    std::vector<gf::Elem> coeffs(helper_data.size());
    for (std::size_t i = 0; i < helper_data.size(); ++i) {
        CHAMELEON_ASSERT(helper_data[i].size() == size,
                         "helper chunk sizes differ");
        srcs[i] = helper_data[i].data();
        coeffs[i] = spec.reads[i].coeff;
    }
    Buffer out(size, 0);
    gf::mulAddRegionMulti(std::span<uint8_t>(out), srcs, coeffs);
    return out;
}

bool
LinearCode::canRepair(std::span<const ChunkIndex> erased) const
{
    if (erased.empty())
        return true;
    for (auto e : erased)
        CHAMELEON_ASSERT(e >= 0 && e < n(), "bad erased index ", e);
    // G has rank k, so every erased row lies in the survivors' span
    // iff the survivor rows alone reach rank k.
    return eliminate(gen_, survivorsOf(n(), erased), {}, nullptr)
               .rank == static_cast<std::size_t>(k_);
}

std::optional<std::vector<ChunkIndex>>
LinearCode::repairIndices(std::span<const ChunkIndex> erased) const
{
    if (erased.empty())
        return std::vector<ChunkIndex>{};
    for (auto e : erased)
        CHAMELEON_ASSERT(e >= 0 && e < n(), "bad erased index ", e);
    auto survivors = survivorsOf(n(), erased);
    std::vector<gf::Elem> x;
    if (!eliminate(gen_, survivors, erased, &x).solvable)
        return std::nullopt;
    // Every survivor some erased row needs, in ascending order.
    std::vector<ChunkIndex> helpers;
    for (std::size_t i = 0; i < survivors.size(); ++i)
        for (std::size_t e = 0; e < erased.size(); ++e)
            if (x[e * survivors.size() + i] != 0) {
                helpers.push_back(survivors[i]);
                break;
            }
    return helpers;
}

std::optional<std::vector<ChunkIndex>>
LinearCode::minimalHelpersFor(
    ChunkIndex failed, std::span<const ChunkIndex> candidates) const
{
    std::vector<ChunkIndex> sorted(candidates.begin(),
                                   candidates.end());
    std::sort(sorted.begin(), sorted.end());
    auto coeffs = repairCoeffs(failed, sorted);
    if (!coeffs)
        return std::nullopt;
    std::vector<ChunkIndex> helpers;
    for (std::size_t i = 0; i < sorted.size(); ++i)
        if ((*coeffs)[i] != 0)
            helpers.push_back(sorted[i]);
    return helpers;
}

int
LinearCode::guaranteedRepairableCount() const
{
    // A pattern repairs iff no nonzero codeword lives on it, i.e. iff
    // its columns of the parity-check matrix H = [P | I_m] are
    // linearly independent: one f x m rank test per pattern. Row i of
    // ht is column i of H. Level f is guaranteed iff every size-f
    // pattern repairs; erasing more than m chunks always loses rank.
    gf::Matrix ht(static_cast<std::size_t>(n()),
                  static_cast<std::size_t>(m_));
    for (int p = 0; p < m_; ++p) {
        for (int i = 0; i < k_; ++i)
            ht.set(i, p, gen_.at(k_ + p, i));
        ht.set(k_ + p, p, gf::kOne);
    }
    for (int f = 1; f <= m_; ++f) {
        std::vector<ChunkIndex> pattern(static_cast<std::size_t>(f));
        // Lexicographic enumeration of all f-subsets of [0, n).
        for (int i = 0; i < f; ++i)
            pattern[static_cast<std::size_t>(i)] = i;
        while (true) {
            if (eliminate(ht, pattern, {}, nullptr).rank <
                static_cast<std::size_t>(f))
                return f - 1;
            int i = f - 1;
            while (i >= 0 &&
                   pattern[static_cast<std::size_t>(i)] ==
                       n() - f + i)
                --i;
            if (i < 0)
                break;
            ++pattern[static_cast<std::size_t>(i)];
            for (int j = i + 1; j < f; ++j)
                pattern[static_cast<std::size_t>(j)] =
                    pattern[static_cast<std::size_t>(j - 1)] + 1;
        }
    }
    return m_;
}

bool
LinearCode::decode(std::vector<Buffer> &chunks) const
{
    CHAMELEON_ASSERT(chunks.size() == static_cast<std::size_t>(n()),
                     "decode expects ", n(), " chunk slots");
    std::vector<ChunkIndex> survivors;
    std::vector<ChunkIndex> missing;
    std::size_t size = 0;
    for (ChunkIndex i = 0; i < n(); ++i) {
        if (chunks[i].empty()) {
            missing.push_back(i);
        } else {
            survivors.push_back(i);
            size = chunks[i].size();
        }
    }
    if (missing.empty())
        return true;

    // A missing chunk is recoverable iff its generator row lies in
    // the span of the survivor rows; expressing it as a combination
    // handles both MDS (RS) and non-MDS (LRC) patterns uniformly. One
    // elimination solves every missing row at once.
    std::vector<gf::Elem> coeffs;
    if (!eliminate(gen_, survivors, missing, &coeffs).solvable)
        return false;
    std::vector<const gf::Elem *> srcs(survivors.size());
    for (std::size_t i = 0; i < survivors.size(); ++i)
        srcs[i] =
            chunks[static_cast<std::size_t>(survivors[i])].data();
    for (std::size_t mi = 0; mi < missing.size(); ++mi) {
        Buffer out(size, 0);
        gf::mulAddRegionMulti(
            std::span<uint8_t>(out), srcs,
            std::span<const gf::Elem>(coeffs).subspan(
                mi * survivors.size(), survivors.size()));
        chunks[static_cast<std::size_t>(missing[mi])] = std::move(out);
    }
    return true;
}

} // namespace ec
} // namespace chameleon
