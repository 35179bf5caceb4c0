"""Rectangular matrix power function (RMPF) key agreement.

Two parties share a prime p and three public m x n matrices (Base, X, Y)
with m > n and zero-free entries.  Each party scales X and Y by private
integers mod p-1 and publishes the double-sided exponential action of the
scaled pair on Base.  Applying one's own action to the peer token lands
both parties on the same key matrix, because scalar multiples of a common
matrix commute inside the exponents.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from .core import FieldParams, Matrix, Record, mat_scalar_mul_mod
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


# Cost model for _multi_exp, in nanoseconds as measured on a 2-vCPU x86
# VM under CPython 3.11; only the ratios matter.  One product of two
# residues reduced mod p costs about _MUL_NS + _DIGIT_NS per 30-bit digit
# of the exponent (exponents are reduced mod p-1, so their bit length
# stands for p's), a builtin pow about one such product per exponent bit,
# a product inside math.prod about 0.4 of one, and each window step of
# the interpreted loop about _STEP_NS on top.
_MUL_NS, _DIGIT_NS, _STEP_NS = 10, 70, 500
_MAX_WINDOW = 8
# Terms multiplied before each reduction: an unreduced product of 64-bit
# residues grows by a word per term, and past ~16 terms the growth costs
# more than the reductions it saves.
_CHUNK = 16


def _window(n: int, outs: int, bits: int) -> int:
    """Straus window width for outs n-term products per base set.

    Per base set, window c costs n*2^c table products plus, per output,
    ceil(bits/c) steps of c squarings and about n table products.
    """
    mul = _MUL_NS + _DIGIT_NS * -(-bits // 30)

    def cost(c: int) -> float:
        step = _STEP_NS + c * mul + 0.4 * n * mul
        return (n << c) * mul + outs * -(-bits // c) * step

    return min(range(1, _MAX_WINDOW + 1), key=cost)


def _multi_exp(base_sets, exps, p: int) -> list[list[int]]:
    """[[prod_k b[k] ** e[k] mod p for e in exps] for b in base_sets].

    Every base set has n entries, every exponent vector n entries in
    [0, p-1).  This is Straus' shared-table multi-exponentiation (Straus
    1964; Handbook of Applied Cryptography, Alg. 14.88): each base's
    table b**d for d < 2^c is built once per set and shared by all its
    outputs, the c-bit window digits are extracted once for all sets,
    and each output runs Horner over the windows, c squarings and one
    table product per window.  0 ** 0 is 1, as with pow.
    """
    n = len(exps[0])
    bits = max(e.bit_length() for ev in exps for e in ev)
    c = _window(n, len(exps), bits)
    size = 1 << c
    mask = size - 1
    shifts = range(c * (-(-bits // c) - 1), -1, -c)
    # per exponent vector, per window from the top: flat table indices
    # k*size + digit of its nonzero digits, cut into _CHUNK-term runs
    digits = []
    for ev in exps:
        windows = []
        for sh in shifts:
            idx = [k * size + d for k, e in enumerate(ev) if (d := e >> sh & mask)]
            windows.append([idx[s : s + _CHUNK] for s in range(0, len(idx), _CHUNK)])
        digits.append(windows)
    prod = math.prod
    out = []
    for bases in base_sets:
        table = []
        for b in bases:
            powers = [1, b]
            for _ in range(size - 2):
                powers.append(powers[-1] * b % p)
            table.extend(powers)
        look = table.__getitem__
        row = []
        for windows in digits:
            acc = 1
            for runs in windows:
                acc = pow(acc, size, p)
                for run in runs:
                    acc = acc * prod(map(look, run)) % p
            row.append(acc)
        out.append(row)
    return out


def _check_top_block(m: Matrix, n: int) -> None:
    if m.cols != n or m.rows < n:
        raise ParameterError(f"need a top {n}x{n} block, got a {m.rows}x{m.cols} matrix")


def _check_double(xe: Matrix, w: Matrix, ye: Matrix, p: int) -> tuple[int, int]:
    rows, cols = _check_same_shape(xe, w, ye)
    if w.modulus != p:
        raise ParameterError(f"base matrix modulus {w.modulus} does not match p={p}")
    _check_top_block(w, cols)
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
    """The double action of mpf_double in at most n^3 + m*n^2 powers, not m*n^3.

    It reads only the top n x n block w_n of w and of ye, and factors
    w ** (x*y) into one-sided passes over distinct rows:
      (a) ye rows l equal mod p-1 form one group g, whose block columns
          merge into W[k][g] = prod_{l in g} w[k][l], as w**e * v**e = (w*v)**e;
      (b) equal rows k of W merge into one, and the xe columns k of each
          merged row add mod p-1, as w**a * w**b = w**(a+b);
      (c) xe rows equal mod p-1 after (b) are computed once and their
          output copied;
      (d) with u distinct xe rows, c groups and d distinct W rows,
          left-first (prod_k W[k][g] ** xe[i][k], then to the power
          ye[g][j]) takes u*c*(d+n) terms and right-first
          (prod_g W[k][g] ** ye[g][j], then to the power xe[i][k]) takes
          n*d*(c+u); the cheaper runs, right-first on a tie.
    A duplicated base row repeats in every rdmpf power and so in every
    peer token, so at dim 2 the action of a round's private pair on w
    takes 4 pows and on a peer token 3, in place of 16 each; rdmpf's
    round_keygen and round_key run such rounds from scalars instead,
    without this kernel.  Splitting w ** (x*y) into (w ** y) ** x
    relies on Fermat reduction mod p-1, which holds for units only, so a
    zero in w_n is refused.  Both setups are zero-free and peer tokens are
    checked, so protocol runs never pass one.  The result is a product of
    units and never holds a zero.
    """
    _, n = _check_double(xe, w, ye, p)
    block = w.entries[: n * n]
    if 0 in block:
        raise ParameterError("double_action needs a zero-free base block")
    em = p - 1
    groups: dict[tuple[int, ...], list[int]] = {}
    for l in range(n):
        groups.setdefault(tuple(e % em for e in ye.row(l)), []).append(l)
    wrows = [
        tuple([math.prod(block[k * n + l] for l in ls) % p for ls in groups.values()])
        for k in range(n)
    ]
    merged = list(dict.fromkeys(wrows))
    ycols = list(zip(*groups))
    xrows = [tuple(e % em for e in xe.row(i)) for i in range(xe.rows)]
    if len(merged) < n:
        members = [[k for k in range(n) if wrows[k] == row] for row in merged]
        xrows = [tuple(sum(x[k] for k in ks) % em for ks in members) for x in xrows]
    distinct = list(dict.fromkeys(xrows))
    u, c, d = len(distinct), len(groups), len(merged)
    if u * c * (d + n) < n * d * (c + u):
        out = _multi_exp(zip(*_multi_exp(zip(*merged), distinct, p)), ycols, p)
    else:
        out = zip(*_multi_exp(zip(*_multi_exp(merged, ycols, p)), distinct, p))
    by_row = dict(zip(distinct, out))
    flat = [q for x in xrows for q in by_row[x]]
    return Matrix(xe.rows, n, tuple(flat), p)


class RmpfSetup(Record):
    """Shared public parameters: p and the Base/X/Y matrices (m > n)."""

    __slots__ = ("params", "base", "x", "y")

    def __init__(self, params: FieldParams, base: Matrix, x: Matrix, y: Matrix):
        rows, cols = _check_same_shape(base, x, y)
        if rows <= cols:
            raise ParameterError(f"rows must exceed cols, got {rows}x{cols}")
        p = params.p
        for name, m in (("base", base), ("x", x), ("y", y)):
            if m.modulus != p:
                raise ParameterError(f"{name} modulus {m.modulus} does not match p={p}")
            if m.has_zero_entry():
                raise ParameterError(f"{name} must have entries in [1, p-1]")
        self._set(params, base, x, y)

    @property
    def rows(self) -> int:
        return self.base.rows

    @property
    def cols(self) -> int:
        return self.base.cols


class RmpfPrivate(Record):
    """One party's private scalars and derived exponent matrices:
    a = lam * X and b = omega * Y, mod p-1."""

    __slots__ = ("lam", "omega", "a", "b")

    def __init__(self, lam: int, omega: int, a: Matrix, b: Matrix):
        self._set(lam, omega, a, b)


def keygen(
    setup: RmpfSetup,
    rng: random.Random,
    lam: int | None = None,
    omega: int | None = None,
) -> tuple[RmpfPrivate, Token]:
    """Draw private scalars and produce the public token.

    Explicit lam/omega values replay a known transcript; like drawn ones
    they lie in [1, p-2], as a multiple of p-1 would zero a private matrix.
    """
    p = setup.params.p
    em = setup.params.exp_modulus
    if lam is None:
        lam = rng.randrange(1, p - 1)
    if omega is None:
        omega = rng.randrange(1, p - 1)
    if not (0 < lam < em and 0 < omega < em):
        raise ParameterError(f"lambda and omega must lie in [1, p-2], got {lam} and {omega}")
    priv = RmpfPrivate(
        lam,
        omega,
        mat_scalar_mul_mod(lam, setup.x, em),
        mat_scalar_mul_mod(omega, setup.y, em),
    )
    return priv, double_action(priv.a, setup.base, priv.b, p)


def _check_peer_token(token: Token, rows: int, cols: int, p: int) -> None:
    """Refuse a peer token of the wrong shape or modulus, or with a zero entry."""
    if (token.rows, token.cols) != (rows, cols):
        raise ProtocolError(f"peer token is {token.rows}x{token.cols}, expected {rows}x{cols}")
    if token.modulus != p:
        raise ProtocolError("peer token modulus does not match the setup prime")
    if token.has_zero_entry():
        raise ProtocolError("peer token contains a zero entry")


def derive_key(priv: RmpfPrivate, peer_token: Token, setup: RmpfSetup) -> Matrix:
    """Apply the private action to the peer token; equals the peer's key."""
    _check_peer_token(peer_token, setup.rows, setup.cols, setup.params.p)
    return double_action(priv.a, peer_token, priv.b, setup.params.p)


class RmpfSession(Record):
    """One party, as an RdmpfSession is: keygen's private and its token as a one-token list.

    rng draws the scalars, or one injected (lambda, omega) pair replays a transcript.
    """

    __slots__ = ("setup", "private", "tokens")

    def __init__(
        self, setup: RmpfSetup, rng: random.Random | None = None,
        injected: Sequence[tuple[int, int]] | None = None
    ):
        if injected is None:
            injected = [(None, None)]  # keygen draws both
        elif len(injected) != 1:
            raise ParameterError(f"need 1 injected (lambda, omega) pair, got {len(injected)}")
        rng = rng if rng is not None else random.SystemRandom()
        private, token = keygen(setup, rng, *injected[0])
        self._set(setup, private, (token,))

    def derive(self, peer_tokens: Sequence[Token]) -> Matrix:
        """The key matrix: the private action on the peer's one token."""
        if len(peer_tokens) != 1:
            raise ProtocolError(f"peer sent {len(peer_tokens)} token matrices, expected 1")
        return derive_key(self.private, peer_tokens[0], self.setup)
