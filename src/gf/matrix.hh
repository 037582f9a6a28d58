/**
 * @file
 * Dense matrices over GF(2^8) with the operations erasure codes need:
 * multiplication, Gaussian inversion, submatrix extraction, and the
 * Vandermonde / Cauchy generator constructions.
 */

#ifndef CHAMELEON_GF_MATRIX_HH_
#define CHAMELEON_GF_MATRIX_HH_

#include <cstddef>
#include <span>
#include <vector>

#include "gf/gf256.hh"

namespace chameleon {
namespace gf {

/** Row-major dense matrix over GF(2^8). */
class Matrix
{
  public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, Elem fill = 0);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    Elem at(std::size_t r, std::size_t c) const;
    void set(std::size_t r, std::size_t c, Elem v);

    /** Row r as a contiguous span of cols() elements. */
    std::span<const Elem> row(std::size_t r) const;

    /** Identity matrix of order n. */
    static Matrix identity(std::size_t n);

    /**
     * Systematic-friendly Cauchy matrix of shape rows x cols, built
     * from x_i = i and y_j = rows + j over GF(2^8); requires
     * rows + cols <= 256. Any square submatrix is invertible, which is
     * what makes arbitrary k-of-(k+m) decoding possible.
     */
    static Matrix cauchy(std::size_t rows, std::size_t cols);

    /** Vandermonde matrix V[i][j] = (i+1)^j (rows x cols). */
    static Matrix vandermonde(std::size_t rows, std::size_t cols);

    /** this * other; dimensions must agree. */
    Matrix multiply(const Matrix &other) const;

    /**
     * Inverse via Gauss-Jordan elimination.
     * @retval true on success; false if the matrix is singular.
     */
    bool invert(Matrix &out) const;

    /** Rows selected (in order) from this matrix. */
    Matrix selectRows(const std::vector<std::size_t> &rows) const;

    /** True if equal element-wise. */
    bool operator==(const Matrix &other) const = default;

  private:
    std::size_t idx(std::size_t r, std::size_t c) const;

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<Elem> data_;
};

} // namespace gf
} // namespace chameleon

#endif // CHAMELEON_GF_MATRIX_HH_
