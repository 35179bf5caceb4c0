"""Both kernels at full width, against an oracle in exponent space.

The nucleus is W = g^M entrywise, for a random exponent matrix M that the
test keeps.  A token is then prod_{k,l} W[k][l] ** (sigma·L[i][k]·R[l][j])
= g^(sigma·L·M·R mod p-1), and a round key taken on the peer's token T_b,
whose log is known the same way, is g^(sigma·L_a·(log T_b)·R_a mod p-1):
matrix products mod p-1 and one pow per entry, with no discrete log, at
sizes where the direct O(n^4) reference (tests/test_rdmpf.py) is too slow.
rmpf's Base = g^M is read the same way, on its top n x n blocks.

Run as a script, it checks one dim-100 round at p = 2^64-59, the floor
setup's size, which takes ~30 s and so stays out of the test suite:

    PYTHONPATH=src python tests/test_exponent_oracle.py
"""

import operator
import random
import time

import pytest

from mpfkap import FieldParams, Matrix, RdmpfSession, RdmpfSetup
from mpfkap.core import sample_matrix
from mpfkap.rdmpf import sample_rank_deficient_base
from mpfkap.rmpf import RmpfSetup, derive_key, keygen


def mul(a, b, em):
    """a·b mod em: each row of b packed into one integer of byte-aligned slots wide
    enough for a full dot product, so a row of a·b is one sum of scaled integers."""
    n = len(b[0])
    width = -(-(len(b) * (em - 1) ** 2).bit_length() // 8)
    packed = [int.from_bytes(b"".join(x.to_bytes(width, "little") for x in row), "little")
              for row in b]
    out = []
    for row in a:
        raw = sum(map(operator.mul, row, packed)).to_bytes(n * width, "little")
        out.append([int.from_bytes(raw[j * width:(j + 1) * width], "little") % em
                    for j in range(n)])
    return out


def power(base, e, em):
    """base**e mod em by square and multiply, with plain loops."""
    result = [[int(i == j) for j in range(len(base))] for i in range(len(base))]
    square = [[x % em for x in row] for row in base]
    while e:
        if e & 1:
            result = mul(result, square, em)
        e >>= 1
        if e:
            square = mul(square, square, em)
    return result


def scaled(sigma, m, em):
    return [[sigma * x % em for x in row] for row in m]


def exp_g(g, logs, p):
    return [[pow(g, x, p) for x in row] for row in logs]


def check_session(p, dim, rounds, sigmas, g=3):
    """Every private power, token and round key of an injected session, for each sigma.

    Any g works: W = g^M needs no generator, and every token and key lies
    in the group g generates.
    """
    em = p - 1
    rng = random.Random(dim)
    params = FieldParams(p)
    logs_w = [[rng.randrange(em) for _ in range(dim)] for _ in range(dim)]
    w = Matrix.from_rows(exp_g(g, logs_w, p), p)
    base_xu = sample_rank_deficient_base(dim, params, rng)
    base_yv = sample_rank_deficient_base(dim, params, rng)
    pairs = {role: [(rng.randint(1, 2**10), rng.randint(1, 2**10)) for _ in range(rounds)]
             for role in ("alice", "bob")}
    privates = {role: [(power(base_xu.to_rows(), a, em), power(base_yv.to_rows(), b, em))
                       for a, b in pairs[role]]
                for role in pairs}
    for sigma in sigmas:
        setup = RdmpfSetup(params, w, base_xu, base_yv, 2**10, rounds, sigma)
        sessions = {role: RdmpfSession(setup, injected=pairs[role]) for role in pairs}
        # log of each party's token per round: sigma·L·M·R mod p-1
        token_logs = {
            role: [mul(mul(scaled(sigma, l, em), logs_w, em), r, em) for l, r in privates[role]]
            for role in pairs
        }
        keys = {}
        for role, peer in (("alice", "bob"), ("bob", "alice")):
            session = sessions[role]
            for priv, (l, r) in zip(session.privates, privates[role]):
                assert (priv.l.to_rows(), priv.r.to_rows()) == (l, r)
            assert [t.to_rows() for t in session.tokens] == \
                [exp_g(g, logs, p) for logs in token_logs[role]]
            keys[role] = [k.to_rows() for k in session.round_keys(sessions[peer].tokens)]
            want = [mul(mul(scaled(sigma, l, em), peer_logs, em), r, em)
                    for (l, r), peer_logs in zip(privates[role], token_logs[peer])]
            assert keys[role] == [exp_g(g, logs, p) for logs in want]
        # both sides hold g^(sigma^2·L_a·L_b·M·R_b·R_a): the keys agree
        assert keys["alice"] == keys["bob"]


@pytest.mark.parametrize("p", [2**64 - 59, 65537])
def test_tokens_and_keys_match_the_exponent_oracle(p):
    check_session(p, 24, 2, (1, 3))


def test_full_size_round_at_a_safe_prime():
    # the floor's dimension; at a 15-bit prime the kernel's products are cheap
    check_session(20123, 100, 1, (3,))


@pytest.mark.parametrize("p", [2**64 - 59, 65537])
def test_rmpf_tokens_and_keys_match_the_exponent_oracle(p):
    # the rmpf-smallp shape; the action reads the top n x n blocks of
    # Base and Y, so a token is g^(lambda·omega·X·M_n·Y_n mod p-1) and a
    # key is the same with the peer token's log in place of M
    g, rows, n, em = 3, 96, 8, p - 1
    rng = random.Random(rows)
    logs_base = [[rng.randrange(em) for _ in range(n)] for _ in range(rows)]
    x, y = (sample_matrix(rows, n, p, rng, mode="unit_entries") for _ in range(2))
    setup = RmpfSetup(FieldParams(p), Matrix.from_rows(exp_g(g, logs_base, p), p), x, y)
    xr, yn = x.to_rows(), y.to_rows()[:n]

    def action_log(scale, logs):
        return scaled(scale, mul(mul(xr, logs[:n], em), yn, em), em)

    scales, parties, token_logs = {}, {}, {}
    for role in ("alice", "bob"):
        lam, omega = rng.randrange(1, em), rng.randrange(1, em)
        scales[role] = lam * omega
        parties[role] = keygen(setup, rng, lam, omega)
        token_logs[role] = action_log(scales[role], logs_base)
        assert parties[role][1].to_rows() == exp_g(g, token_logs[role], p)
    keys = {}
    for role, peer in (("alice", "bob"), ("bob", "alice")):
        keys[role] = derive_key(parties[role][0], parties[peer][1], setup).to_rows()
        assert keys[role] == exp_g(g, action_log(scales[role], token_logs[peer]), p)
    assert keys["alice"] == keys["bob"]


if __name__ == "__main__":
    start = time.perf_counter()
    check_session(2**64 - 59, 100, 1, (3,))
    print(f"dim 100, p = 2^64-59, 1 round: every private power, token and key equals "
          f"the exponent oracle ({time.perf_counter() - start:.1f} s)")
