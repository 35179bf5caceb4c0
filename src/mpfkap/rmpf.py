"""Rectangular matrix power function (RMPF) key agreement.

Two parties share a prime p and three public m x n matrices (Base, X, Y)
with m > n and zero-free entries.  Each party scales X and Y by private
integers mod p-1 and publishes the double-sided exponential action of the
scaled pair on Base.  Applying one's own action to the peer token lands
both parties on the same key matrix, because scalar multiples of a common
matrix commute inside the exponents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import FieldParams, Matrix, mat_scalar_mul_mod
from .errors import ParameterError, ProtocolError

Token = Matrix


def _check_same_shape(*mats: Matrix) -> tuple[int, int]:
    rows, cols = mats[0].rows, mats[0].cols
    for m in mats[1:]:
        if (m.rows, m.cols) != (rows, cols):
            raise ParameterError(
                f"matrices must share dimensions, got {rows}x{cols} and {m.rows}x{m.cols}"
            )
    return rows, cols


def _power_product(bases, exps, p: int) -> int:
    acc = 1
    for b, e in zip(bases, exps):
        acc = acc * pow(b, e, p) % p
    return acc


def _check_top_block(m: Matrix, n: int) -> None:
    if m.cols != n or m.rows < n:
        raise ParameterError(f"need a top {n}x{n} block, got a {m.rows}x{m.cols} matrix")


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
    flat = []
    for i in range(xe.rows):
        xi = [e % em for e in xe.row(i)]
        flat.extend(_power_product(wj, xi, p) for wj in wcols)
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
    flat = [_power_product(w.row(i), yj, p) for i in range(w.rows) for yj in ycols]
    return Matrix(w.rows, n, tuple(flat), p)


def _check_double(xe: Matrix, w: Matrix, ye: Matrix, p: int) -> tuple[int, int]:
    rows, cols = _check_same_shape(xe, w, ye)
    if w.modulus != p:
        raise ParameterError(f"base matrix modulus {w.modulus} does not match p={p}")
    return rows, cols


def mpf_double(xe: Matrix, w: Matrix, ye: Matrix, p: int) -> Matrix:
    """Double-sided action: Q[i][j] = prod_{k,l < n} w[k][l] ** (xe[i][k] * ye[l][j]).

    n is the column count, so on a rectangular m x n setup only the top
    n x n block of w is exponentiated.  Exponent products are reduced mod
    p-1 before use.  This is the direct definition: the reference that
    double_action is tested against, and the operation the bench times.
    """
    rows, cols = _check_double(xe, w, ye, p)
    em = p - 1
    wr = w.to_rows()
    xr = xe.to_rows()
    # column j of ye, truncated to the first cols rows
    ycols = [[ye.at(l, j) for l in range(cols)] for j in range(cols)]
    flat = []
    for i in range(rows):
        xi = xr[i]
        for j in range(cols):
            yj = ycols[j]
            acc = 1
            for k in range(cols):
                xik = xi[k]
                wk = wr[k]
                for l in range(cols):
                    acc = acc * pow(wk[l], xik * yj[l] % em, p) % p
            flat.append(acc)
    return Matrix(rows, cols, tuple(flat), p)


def double_action(xe: Matrix, w: Matrix, ye: Matrix, p: int) -> Matrix:
    """The double action of mpf_double in n^3 + m*n^2 powers instead of m*n^3.

    It is mpf_left(xe, mpf_right(w_n, ye)), with w_n the top n x n block
    of w, the only rows the action reads: the right pass forms
    D[k][j] = prod_l w[k][l] ** ye[l][j] and the left pass forms
    Q[i][j] = prod_k D[k][j] ** xe[i][k].  Splitting w ** (x*y) into
    (w ** y) ** x relies on Fermat reduction mod p-1, which holds for
    units only, so a zero in the top n x n block of w is refused.  Both
    setups are zero-free and peer tokens are checked, so protocol runs
    never pass one.  The result is a product of units and never holds a
    zero.
    """
    _, n = _check_double(xe, w, ye, p)
    block = w.entries[: n * n]
    if 0 in block:
        raise ParameterError("double_action needs a zero-free base block")
    return mpf_left(xe, mpf_right(Matrix(n, n, block, p), ye))


@dataclass(frozen=True, slots=True)
class RmpfSetup:
    """Shared public parameters: p and the Base/X/Y matrices (m > n)."""

    params: FieldParams
    base: Matrix
    x: Matrix
    y: Matrix

    def __post_init__(self) -> None:
        rows, cols = _check_same_shape(self.base, self.x, self.y)
        if rows <= cols:
            raise ParameterError(f"rows must exceed cols, got {rows}x{cols}")
        p = self.params.p
        for name, m in (("base", self.base), ("x", self.x), ("y", self.y)):
            if m.modulus != p:
                raise ParameterError(f"{name} modulus {m.modulus} does not match p={p}")
            if m.has_zero_entry():
                raise ParameterError(f"{name} must have entries in [1, p-1]")

    @property
    def rows(self) -> int:
        return self.base.rows

    @property
    def cols(self) -> int:
        return self.base.cols

    def floor_warnings(self) -> list[str]:
        """Advisory warnings when parameters sit below real-life floors."""
        out = []
        if self.params.p < 2**64:
            out.append(f"p={self.params.p} is below the recommended 2^64 floor")
        if self.cols < 100:
            out.append(
                f"matrix rank bound {self.cols} is below the recommended order of 100"
            )
        return out


@dataclass(frozen=True, slots=True)
class RmpfPrivate:
    """One party's private scalars and derived exponent matrices."""

    lam: int
    omega: int
    a: Matrix  # lam * X   mod p-1
    b: Matrix  # omega * Y mod p-1


def keygen(
    setup: RmpfSetup,
    rng: random.Random,
    lam: int | None = None,
    omega: int | None = None,
) -> tuple[RmpfPrivate, Token]:
    """Draw private scalars and produce the public token.

    Explicit lam/omega values replay a known transcript.
    """
    p = setup.params.p
    em = setup.params.exp_modulus
    if lam is None:
        lam = rng.randrange(1, p - 1)
    if omega is None:
        omega = rng.randrange(1, p - 1)
    priv = RmpfPrivate(
        lam,
        omega,
        mat_scalar_mul_mod(lam, setup.x, em),
        mat_scalar_mul_mod(omega, setup.y, em),
    )
    return priv, double_action(priv.a, setup.base, priv.b, p)


def derive_key(priv: RmpfPrivate, peer_token: Token, setup: RmpfSetup) -> Matrix:
    """Apply the private action to the peer token; equals the peer's key."""
    if (peer_token.rows, peer_token.cols) != (setup.rows, setup.cols):
        raise ProtocolError(
            f"peer token is {peer_token.rows}x{peer_token.cols}, "
            f"expected {setup.rows}x{setup.cols}"
        )
    if peer_token.modulus != setup.params.p:
        raise ProtocolError("peer token modulus does not match the setup prime")
    if peer_token.has_zero_entry():
        raise ProtocolError("peer token contains a zero entry")
    return double_action(priv.a, peer_token, priv.b, setup.params.p)


class RmpfSession:
    """One party's state: setup, private draw, own token."""

    def __init__(self, setup: RmpfSetup, rng: random.Random | None = None):
        self.setup = setup
        self._rng = rng if rng is not None else random.SystemRandom()
        self._private: RmpfPrivate | None = None
        self._token: Token | None = None

    def generate_token(self, lam: int | None = None, omega: int | None = None) -> Token:
        self._private, self._token = keygen(self.setup, self._rng, lam, omega)
        return self._token

    @property
    def token(self) -> Token:
        if self._token is None:
            raise ParameterError("token not generated yet")
        return self._token

    def derive_key(self, peer_token: Token) -> Matrix:
        if self._private is None:
            raise ParameterError("generate_token must run before derive_key")
        return derive_key(self._private, peer_token, self.setup)
