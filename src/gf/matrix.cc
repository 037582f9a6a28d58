#include "gf/matrix.hh"

#include "util/logging.hh"

namespace chameleon {
namespace gf {

Matrix::Matrix(std::size_t rows, std::size_t cols, Elem fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

std::size_t
Matrix::idx(std::size_t r, std::size_t c) const
{
    CHAMELEON_ASSERT(r < rows_ && c < cols_,
                     "matrix index (", r, ",", c, ") out of ",
                     rows_, "x", cols_);
    return r * cols_ + c;
}

Elem
Matrix::at(std::size_t r, std::size_t c) const
{
    return data_[idx(r, c)];
}

void
Matrix::set(std::size_t r, std::size_t c, Elem v)
{
    data_[idx(r, c)] = v;
}

std::span<const Elem>
Matrix::row(std::size_t r) const
{
    CHAMELEON_ASSERT(r < rows_, "matrix row ", r, " out of ", rows_);
    return {data_.data() + r * cols_, cols_};
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        m.set(i, i, kOne);
    return m;
}

Matrix
Matrix::cauchy(std::size_t rows, std::size_t cols)
{
    CHAMELEON_ASSERT(rows + cols <= 256,
                     "Cauchy needs rows+cols <= 256, got ",
                     rows + cols);
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            Elem x = static_cast<Elem>(cols + i);
            Elem y = static_cast<Elem>(j);
            m.set(i, j, inv(add(x, y)));
        }
    }
    return m;
}

Matrix
Matrix::vandermonde(std::size_t rows, std::size_t cols)
{
    CHAMELEON_ASSERT(rows <= 255, "Vandermonde rows > 255");
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            m.set(i, j, pow(static_cast<Elem>(i + 1),
                            static_cast<unsigned>(j)));
    return m;
}

Matrix
Matrix::multiply(const Matrix &other) const
{
    CHAMELEON_ASSERT(cols_ == other.rows_,
                     "multiply dims: ", rows_, "x", cols_, " * ",
                     other.rows_, "x", other.cols_);
    Matrix out(rows_, other.cols_, 0);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t l = 0; l < cols_; ++l) {
            Elem a = at(i, l);
            if (a == 0)
                continue;
            for (std::size_t j = 0; j < other.cols_; ++j) {
                Elem prod = mul(a, other.at(l, j));
                out.set(i, j, add(out.at(i, j), prod));
            }
        }
    }
    return out;
}

bool
Matrix::invert(Matrix &out) const
{
    CHAMELEON_ASSERT(rows_ == cols_, "inverting non-square matrix");
    const std::size_t n = rows_;
    Matrix work = *this;
    out = identity(n);

    for (std::size_t col = 0; col < n; ++col) {
        // Find a pivot in or below row `col`.
        std::size_t pivot = col;
        while (pivot < n && work.at(pivot, col) == 0)
            ++pivot;
        if (pivot == n)
            return false; // singular
        if (pivot != col) {
            for (std::size_t j = 0; j < n; ++j) {
                std::swap(work.data_[work.idx(col, j)],
                          work.data_[work.idx(pivot, j)]);
                std::swap(out.data_[out.idx(col, j)],
                          out.data_[out.idx(pivot, j)]);
            }
        }
        // Scale pivot row to 1.
        Elem piv_inv = inv(work.at(col, col));
        for (std::size_t j = 0; j < n; ++j) {
            work.set(col, j, mul(work.at(col, j), piv_inv));
            out.set(col, j, mul(out.at(col, j), piv_inv));
        }
        // Eliminate all other rows.
        for (std::size_t r = 0; r < n; ++r) {
            if (r == col)
                continue;
            Elem factor = work.at(r, col);
            if (factor == 0)
                continue;
            for (std::size_t j = 0; j < n; ++j) {
                work.set(r, j, add(work.at(r, j),
                                   mul(factor, work.at(col, j))));
                out.set(r, j, add(out.at(r, j),
                                  mul(factor, out.at(col, j))));
            }
        }
    }
    return true;
}

Matrix
Matrix::selectRows(const std::vector<std::size_t> &rows) const
{
    Matrix out(rows.size(), cols_);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        CHAMELEON_ASSERT(rows[i] < rows_, "row ", rows[i], " out of ",
                         rows_);
        for (std::size_t j = 0; j < cols_; ++j)
            out.set(i, j, at(rows[i], j));
    }
    return out;
}

} // namespace gf
} // namespace chameleon
