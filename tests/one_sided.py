"""The paper's one-sided exponential actions and the transpose, kept for the lemma tests.

The package runs only the double action (rmpf.double_action); these
are the left and right actions the paper's lemmas are stated in, on the
same multi-exponentiation helper.
"""

from mpfkap import Matrix
from mpfkap.rmpf import _check_top_block, _multi_exp


def mpf_left(xe: Matrix, w: Matrix) -> Matrix:
    """Left exponential action: C[i][j] = prod_{k<n} w[k][j] ** xe[i][k] mod p.

    xe is r x n and the product reads the top n rows of w, which needs n
    columns; C is r x n.  Exponent entries are taken mod p-1.
    """
    n = xe.cols
    _check_top_block(w, n)
    p = w.modulus
    em = p - 1
    wcols = [[w.at(k, j) for k in range(n)] for j in range(n)]
    xrows = [[e % em for e in xe.row(i)] for i in range(xe.rows)]
    # one output row per column of w: transpose back to r x n
    flat = [q for row in zip(*_multi_exp(wcols, xrows, p)) for q in row]
    return Matrix(xe.rows, n, tuple(flat), p)


def mpf_right(w: Matrix, ye: Matrix) -> Matrix:
    """Right exponential action: D[i][j] = prod_{l<n} w[i][l] ** ye[l][j] mod p.

    w is r x n for any r and the product reads the top n rows of ye; D
    is r x n.  Exponent entries are taken mod p-1.
    """
    n = w.cols
    _check_top_block(ye, n)
    p = w.modulus
    em = p - 1
    ycols = [[ye.at(l, j) % em for l in range(n)] for j in range(n)]
    wrows = [w.row(i) for i in range(w.rows)]
    flat = [q for row in _multi_exp(wrows, ycols, p) for q in row]
    return Matrix(w.rows, n, tuple(flat), p)


def transpose(m: Matrix) -> Matrix:
    flat = tuple(m.at(i, j) for j in range(m.cols) for i in range(m.rows))
    return Matrix(m.cols, m.rows, flat, m.modulus)
