"""Multi-round rank-deficient matrix power function (RDMPF) key agreement.

Square matrices replace the rectangular setup: a full-rank, zero-free
nucleus W plus two public rank-deficient bases.  Per round, each party
raises the bases to private exponents mod p-1 (powers of a common base
commute, which is what makes the round keys agree) and exchanges the
double action of the resulting pair on W.  Round keys are concatenated
row-major and hashed with SHA3-512 into a 512-bit session key.

The whole exponent grid can be multiplied by a shared session constant
sigma without breaking agreement; sigma = 1 is the plain protocol.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from itertools import compress
from operator import xor
from typing import Sequence

from .core import (
    FieldParams,
    Matrix,
    Record,
    canonical_bytes,
    mat_pow_mod,
    mat_scalar_mul_mod,
    matrix_values,
    rank_mod_p,
    sample_matrix,
    scalar_powers,
)
from .errors import ParameterError, ProtocolError
from .rmpf import _check_peer_token, double_action, mpf_double

# Short exponent probe used when sampling bases: reject a base whose power
# cycle is trivially short (base**k comes straight back to the base).
_ORDER_PROBES = (2, 3, 5, 9, 17)

Token = Matrix


def rdmpf(xe: Matrix, w: Matrix, ye: Matrix, p: int, sigma: int = 1) -> Matrix:
    """Double action with conventional inner products in the exponents.

    Q[i][j] = prod_{k,l} w[k][l] ** (sigma * xe[i][k] * ye[l][j] mod p-1),
    everything square of the same dimension.  Folding sigma into xe mod
    p-1 leaves exactly the rmpf double action.  This is the direct
    reference; the protocol rounds run _round_action, or the one-row
    shortcuts in round_keygen and round_key.
    """
    dim = w.rows
    for m in (xe, w, ye):
        if (m.rows, m.cols) != (dim, dim):
            raise ParameterError(
                f"all matrices must be {dim}x{dim}, got {m.rows}x{m.cols}"
            )
    em = p - 1
    return mpf_double(mat_scalar_mul_mod(sigma, xe, em), w, ye, p)


class RdmpfSetup(Record):
    """Shared public parameters for the multi-round protocol."""

    __slots__ = ("params", "w", "base_xu", "base_yv", "exp_max", "rounds", "sigma")

    def __init__(
        self, params: FieldParams, w: Matrix, base_xu: Matrix, base_yv: Matrix,
        exp_max: int, rounds: int, sigma: int = 1
    ):
        p = params.p
        dim = w.rows
        for name, m in (("w", w), ("base_xu", base_xu), ("base_yv", base_yv)):
            if not m.is_square or m.rows != dim:
                raise ParameterError(f"{name} must be {dim}x{dim}")
            if m.modulus != p:
                raise ParameterError(f"{name} modulus {m.modulus} does not match p={p}")
        if w.has_zero_entry():
            raise ParameterError("w must have entries in [1, p-1]")
        if rank_mod_p(w, p) != dim:
            raise ParameterError("nucleus matrix w must have full rank over Z_p")
        for name, m in (("base_xu", base_xu), ("base_yv", base_yv)):
            # two equal rows already prove rank < dim
            if len(set(map(m.row, range(dim)))) == dim and rank_mod_p(m, p) >= dim:
                raise ParameterError(f"{name} must be rank-deficient over Z_p")
        self.check_scalars(params, exp_max, rounds, sigma)
        self._set(params, w, base_xu, base_yv, exp_max, rounds, sigma)

    @staticmethod
    def check_scalars(params: FieldParams, exp_max: int, rounds: int, sigma: int) -> None:
        """The checks that need no matrix, so a sampler can run them before its first draw."""
        if exp_max < 2:
            raise ParameterError(f"exp_max must be >= 2, got {exp_max}")
        if rounds < 1:
            raise ParameterError(f"rounds must be >= 1, got {rounds}")
        if sigma % params.exp_modulus == 0:
            raise ParameterError(
                f"sigma={sigma} is a multiple of p-1={params.exp_modulus}, "
                "which makes every token and key all ones"
            )

    @property
    def dim(self) -> int:
        return self.w.rows


def _parity_orbit(m: Matrix, steps: int) -> list[int]:
    """The vectors m**k·1 mod 2 for k = 0 .. steps, square m, one byte per row.

    Column j of m mod 2 is one integer whose byte i is m[i][j] & 1, so
    m·v mod 2 is the XOR of the columns that v's bytes select, and the
    bytes of that XOR, each 0 or 1, select the columns of the next step.
    This is the Krylov sequence of m and the all-ones vector over GF(2),
    as in Wiedemann (IEEE Trans. Inf. Theory 32(1), 1986).
    """
    n = m.rows
    parity = bytes([e & 1 for e in m.entries])
    cols = [int.from_bytes(parity[j::n], "little") for j in range(n)]
    orbit = [int.from_bytes(b"\1" * n, "little")]
    for _ in range(steps):
        orbit.append(reduce(xor, compress(cols, orbit[-1].to_bytes(n, "little")), 0))
    return orbit


def _degenerate(base: Matrix, em: int) -> bool:
    """Whether base is nilpotent mod 2 or base**k == base mod em for some k in _ORDER_PROBES.

    One parity orbit refutes both for almost every candidate at dim 100.
    By Cayley-Hamilton base is nilpotent mod 2 iff base**dim is zero
    there, which a nonzero base**dim·1 refutes.  em = p-1 is even, so an
    entry's parity mod em is its own, and base**k == base mod em would
    give base**k·1 == base·1 mod 2; an orbit whose step 1 differs from
    every probe's step refutes the short cycle.  What the orbit cannot
    refute, mat_pow_mod decides exactly.
    """
    dim = base.rows
    orbit = _parity_orbit(base, max(dim, *_ORDER_PROBES))
    if not orbit[dim] and not any(mat_pow_mod(base, dim, 2).entries):
        return True
    if orbit[1] not in [orbit[k] for k in _ORDER_PROBES]:
        return False
    return Matrix.from_rows(base.to_rows(), em) in mat_pow_mod(base, _ORDER_PROBES, em)


def sample_rank_deficient_base(
    dim: int, params: FieldParams, rng: random.Random
) -> Matrix:
    """Sample a protocol base: rank-deficient over Z_p, zero-free entries.

    _degenerate screens out two kinds of base.  Bases whose power cycle
    mod p-1 is trivially short are rejected by a small multiplicative-order
    probe (a smoke check, not a proof of long order).  Bases nilpotent
    mod 2 are rejected outright: with p-1 = 2^s·q, q odd, their powers
    base**k for k >= s·dim are 0 mod 2^s, so every token and key falls
    into the subgroup of 2^s-th powers.  Only when p-1 is a power of two
    (p = 65537) are those powers 0 mod p-1 and every token all ones.
    """
    for _ in range(4096):
        cand = sample_matrix(dim, dim, params.p, rng, mode="rank_deficient")
        if not _degenerate(cand, params.exp_modulus):
            return cand
    raise ParameterError(
        f"no usable rank-deficient base found for dim={dim}, p={params.p}"
    )


class RdmpfRoundPrivate(Record):
    """One round's exponent draws and the derived private matrices:
    l = base_xu ** rand_l and r = base_yv ** rand_r, mod p-1."""

    __slots__ = ("rand_l", "rand_r", "l", "r")

    def __init__(self, rand_l: int, rand_r: int, l: Matrix, r: Matrix):
        self._set(rand_l, rand_r, l, r)


def _round_action(priv: RdmpfRoundPrivate, w: Matrix, setup: RdmpfSetup) -> Matrix:
    """rdmpf(priv.l, w, priv.r, p, sigma), evaluated by the factored kernel."""
    xe = mat_scalar_mul_mod(setup.sigma, priv.l, setup.params.exp_modulus)
    return double_action(xe, w, priv.r, setup.params.p)


def _one_row(m: Matrix) -> bool:
    """Whether every row of m equals its first."""
    return m.entries == m.row(0) * m.rows


def _one_row_actions(
    privates: Sequence[RdmpfRoundPrivate], m: Matrix, setup: RdmpfSetup, powers=scalar_powers
) -> list[Matrix]:
    """Each round's rdmpf(l, m, r) when every l repeats one row u and every r one row v.

    Then Q[i][j] = prod_{k,g} m[k][g] ** (sigma·u_k·v_j)
    = prod_c c ** (sigma·U_c·v_j), the same in every row i, over m's
    distinct row products c, with U_c the sum of the u_k whose row k has
    product c; m is zero-free, so exponents add mod p-1.  Each c is a
    fixed base, raised to every round's exponents by one
    powers(c, exps, p).
    """
    p, em, n = setup.params.p, setup.params.exp_modulus, setup.dim
    classes: dict[int, list[int]] = {}
    for k in range(n):
        classes.setdefault(math.prod(m.row(k)) % p, []).append(k)
    columns = []
    for c, ks in classes.items():
        exps = []
        for priv in privates:
            scale = setup.sigma * sum(priv.l.entries[k] for k in ks)
            exps += [scale * v % em for v in priv.r.row(0)]
        columns.append(powers(c, exps, p))
    entries = [math.prod(terms) % p for terms in zip(*columns)]
    return [Matrix(n, n, tuple(entries[i * n : (i + 1) * n]) * n, p) for i in range(len(privates))]


def round_keygen(
    setup: RdmpfSetup, pairs: Sequence[tuple[int, int]]
) -> list[tuple[RdmpfRoundPrivate, Token]]:
    """Each round's private pair and public token, from its (rand_l, rand_r).

    The one keygen path; a single round is a one-pair list.  Every round
    raises the same two bases, so each base takes one mat_pow_mod over
    all rounds' exponents.  A base with one distinct row, as every
    sampled dim-2 base is, has only powers with one distinct row for
    exponents >= 1; when every l and r has one, the tokens come from
    scalars (_one_row_actions, one scalar_powers walk per distinct row
    product of w), and otherwise each round runs the kernel.
    """
    em = setup.params.exp_modulus
    ls = mat_pow_mod(setup.base_xu, [rand_l for rand_l, _ in pairs], em)
    rs = mat_pow_mod(setup.base_yv, [rand_r for _, rand_r in pairs], em)
    privates = [RdmpfRoundPrivate(*pair, l, r) for pair, l, r in zip(pairs, ls, rs)]
    if all(map(_one_row, ls + rs)):
        tokens = _one_row_actions(privates, setup.w, setup)
    else:
        tokens = [_round_action(priv, setup.w, setup) for priv in privates]
    return list(zip(privates, tokens))


def round_key(priv: RdmpfRoundPrivate, peer_token: Token, setup: RdmpfSetup) -> Matrix:
    """Apply the stored round private to the peer's round token.

    When l and r each repeat one row, the key comes from scalars
    (_one_row_actions) with a builtin pow per exponent, which beats a
    table walk over so few exponents: an honest peer token repeats its
    row, so it has one row product and the key makes one pow per
    column, 2 at dim 2.  Any other round runs the kernel.
    """
    _check_peer_token(peer_token, setup.dim, setup.dim, setup.params.p)
    if _one_row(priv.l) and _one_row(priv.r):
        return _one_row_actions(
            [priv], peer_token, setup, lambda c, exps, p: [pow(c, x, p) for x in exps]
        )[0]
    return _round_action(priv, peer_token, setup)


def session_digest(key_matrices: Sequence[Matrix]) -> bytes:
    """The 64-byte SHA3-512 digest of the canonical bytes of the concatenated key list."""
    import hashlib  # on first hash: it loads OpenSSL, which setup never needs

    return hashlib.sha3_512(canonical_bytes(matrix_values(key_matrices))).digest()


def parse_token_list(
    values: Sequence[int], dim: int, rounds: int, p: int
) -> list[Token]:
    """Split a flat peer list back into per-round token matrices."""
    expected = rounds * dim * dim
    if len(values) != expected:
        raise ProtocolError(
            f"peer token list has {len(values)} values, expected {expected}"
        )
    if any(v < 0 or v >= p for v in values):
        raise ProtocolError("peer token value out of [0, p) range")
    out = []
    per_round = dim * dim
    for r in range(rounds):
        chunk = tuple(values[r * per_round : (r + 1) * per_round])
        out.append(Matrix(dim, dim, chunk, p))
    return out


class RdmpfSession(Record):
    """One party of a session: its rounds' private pairs and public tokens.

    The rounds are generated when the session is built: rng draws each
    round's (rand_l, rand_r) in turn, or injected pairs replay a
    transcript, and one round_keygen makes every round's powers and
    token.  A session holds nothing else, so distinct sessions are
    independent.  The CLI's KEM then draws alice's nonce and key from
    the same rng.
    """

    __slots__ = ("setup", "privates", "tokens")

    def __init__(
        self,
        setup: RdmpfSetup,
        rng: random.Random | None = None,
        injected: Sequence[tuple[int, int]] | None = None,
    ):
        rounds, top = setup.rounds, setup.exp_max
        if injected is None:
            rng = rng if rng is not None else random.SystemRandom()
            injected = [(rng.randint(1, top), rng.randint(1, top)) for _ in range(rounds)]
        elif len(injected) != rounds:
            raise ParameterError(
                f"need {rounds} injected exponent pairs, got {len(injected)}"
            )
        privates, tokens = zip(*round_keygen(setup, injected))
        self._set(setup, privates, tokens)

    def round_keys(self, peer_tokens: Sequence[Token]) -> list[Matrix]:
        """Each round's private applied to the peer's token for that round."""
        if len(peer_tokens) != self.setup.rounds:
            raise ProtocolError(
                f"peer sent {len(peer_tokens)} round tokens, expected {self.setup.rounds}"
            )
        return [round_key(priv, tok, self.setup) for priv, tok in zip(self.privates, peer_tokens)]

    def derive(self, peer_tokens: Sequence[Token]) -> bytes:
        """The 64-byte session key: session_digest of the round keys."""
        return session_digest(self.round_keys(peer_tokens))
