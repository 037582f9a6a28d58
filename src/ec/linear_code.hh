/**
 * @file
 * Shared machinery for codes whose stored chunks are full-chunk linear
 * combinations of the k data chunks over GF(2^8).
 *
 * Such a code is characterized entirely by its n x k generator matrix
 * G: stored[i] = sum_j G[i][j] * data[j]. Encoding, arbitrary-pattern
 * decoding, and single-chunk repair-coefficient extraction are all
 * generic linear algebra; RS and LRC differ only in G and in their
 * helper-selection policy.
 */

#ifndef CHAMELEON_EC_LINEAR_CODE_HH_
#define CHAMELEON_EC_LINEAR_CODE_HH_

#include <optional>

#include "ec/code.hh"
#include "gf/matrix.hh"

namespace chameleon {
namespace ec {

/** Base for RS and LRC; see file comment. */
class LinearCode : public ErasureCode
{
  public:
    int k() const override { return k_; }
    int m() const override { return m_; }

    std::vector<Buffer>
    encode(const std::vector<Buffer> &data) const override;

    Buffer
    repairCompute(const RepairSpec &spec,
                  const std::vector<Buffer> &helper_data) const override;

    bool decode(std::vector<Buffer> &chunks) const override;

    std::optional<RepairSpec>
    specFor(ChunkIndex failed,
            std::span<const ChunkIndex> helpers) const override;

    /**
     * Generic rank test: the pattern repairs iff the survivor rows
     * reach rank k. Works for any linear code, MDS or not.
     */
    bool canRepair(std::span<const ChunkIndex> erased) const override;

    /**
     * Generic minimal helper set: one solve of every erased row over
     * the ascending survivor list, keeping the survivors with a
     * nonzero coefficient for some erased row. Those are pivot
     * columns, hence independent, so each erased row's
     * representation over them is unique and none can be dropped:
     * the set is irredundant with no prune pass. Deterministic; for
     * LRC single failures it reproduces the local group exactly.
     */
    std::optional<std::vector<ChunkIndex>>
    repairIndices(std::span<const ChunkIndex> erased) const override;

    /**
     * Brute force over erasure patterns, level by level: returns
     * f - 1 for the first f whose C(n, f) patterns include an
     * unrepairable one, capped at m (erasing more than m chunks
     * always loses rank). MDS subclasses override with m().
     *
     * Each pattern costs one f x m rank test on its parity-check
     * columns. Recomputed on every call (no memo, since code
     * instances are shared across sweep worker threads); the
     * enumeration still visits every pattern up to the first
     * unrepairable one, 33.4k for lrc(24,4,2,2) (a few ms), so
     * callers should not ask it per repair.
     */
    int guaranteedRepairableCount() const override;

    /** The full n x k generator matrix (identity on top). */
    const gf::Matrix &generator() const { return gen_; }

    /**
     * Solves for the per-helper coefficients that express the failed
     * chunk's generator row as a combination of the helper rows.
     *
     * @return one coefficient per helper, or nullopt if the helper
     *         set cannot repair `failed`.
     */
    std::optional<std::vector<gf::Elem>>
    repairCoeffs(ChunkIndex failed,
                 std::span<const ChunkIndex> helpers) const;

  protected:
    /**
     * @param k     data chunks per stripe.
     * @param m     parity chunks per stripe.
     * @param gen   generator matrix, (k+m) x k, with the identity in
     *              the first k rows (systematic).
     */
    LinearCode(int k, int m, gf::Matrix gen);

    /** Builds a spec given chosen helpers (validates solvability). */
    RepairSpec specFromHelpers(ChunkIndex failed,
                               std::span<const ChunkIndex> helpers) const;

    /**
     * Deterministic minimal helper subset of `candidates` repairing
     * the single chunk `failed` (single-target analogue of
     * repairIndices): solve over the ascending candidate list and
     * keep the nonzero-coefficient helpers, irredundant for the same
     * reason. nullopt when the candidates cannot repair `failed`.
     */
    std::optional<std::vector<ChunkIndex>>
    minimalHelpersFor(ChunkIndex failed,
                      std::span<const ChunkIndex> candidates) const;

  private:
    int k_;
    int m_;
    gf::Matrix gen_;
};

} // namespace ec
} // namespace chameleon

#endif // CHAMELEON_EC_LINEAR_CODE_HH_
