"""An eavesdropper's attacks: both protocols fall to discrete logarithms mod p.

Each attack reads only what an eavesdropper holds (the setup and both
parties' tokens), takes entrywise discrete logs to a generator g from a
full table, and must reproduce the honest round keys and session digest.

- rdmpf, any dimension: with M = log W, a token's log is
  sigma·L·M·R mod p-1, where L = Bx^l and R = By^r.  By Cayley-Hamilton L
  and R are polynomials of degree < n in the public bases, so
  sum_{i,j<n} c_ij·sigma·Bx^i·M·By^j = log T_a is linear in n^2 unknowns
  that the true coefficients solve.  Powers of one base commute, so any
  solution gives the round key g^(sigma·sum c_ij·Bx^i·(log T_b)·By^j).
- rdmpf, dim 2: every token is T0^e entrywise for the public
  T0 = double_action(Bx, W, By), so one log gives e and the key.
- rmpf: every token is T^(lambda·omega) entrywise for the public
  T = double_action(X, Base, Y); one log gives the scalar and the key.

The systems are solved mod each prime power of p-1 and joined by CRT.
FieldParams.floor_warnings says what these tests show.
"""

import functools
import operator
import random

import pytest

from mpfkap import FieldParams, Matrix, RdmpfSession, generate_setup
from mpfkap.core import mat_scalar_mul_mod, sample_matrix
from mpfkap.rdmpf import session_digest
from mpfkap.rmpf import RmpfSetup, derive_key, double_action, keygen

SAFE_P = 20123  # (p-1)/2 = 10061 is prime
FERMAT_P = 65537  # p-1 = 2^16: the solve runs over Z/2^16


def factor(n):
    """{q: k} with n = prod q^k, by trial division."""
    out, q = {}, 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@functools.lru_cache(maxsize=None)
def log_table(p):
    """A generator g of Z_p^* and the map g^k -> k for k < p-1."""
    em = p - 1
    g = next(g for g in range(2, p) if all(pow(g, em // q, p) != 1 for q in factor(em)))
    table, x = {}, 1
    for k in range(em):
        table[x] = k
        x = x * g % p
    return g, table


def logs(m, p):
    table = log_table(p)[1]
    return [[table[x] for x in row] for row in m.to_rows()]


def mul(a, b, em):
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) % em for col in cols] for row in a]


def add_scaled(acc, c, m, em):
    return [[(x + c * y) % em for x, y in zip(ra, rm)] for ra, rm in zip(acc, m)]


def exp_g(logs_, p):
    g = log_table(p)[0]
    return Matrix.from_rows([[pow(g, x, p) for x in row] for row in logs_], p)


def valuation(x, q):
    v = 0
    while x % q == 0:
        x //= q
        v += 1
    return v


def solve_prime_power(rows, rhs, q, k):
    """For each column t of rhs, a c with rows·c == rhs[:][t] mod q^k.

    Gaussian elimination over Z/q^k: each step pivots on an entry of the
    lowest q-adic valuation v left in the unpivoted rows and columns, and
    clears its column in the unpivoted rows only, so every entry left
    stays divisible by q^v.  Back-substitution then divides by q^v
    exactly and sets free unknowns to 0.  A consistent system is assumed;
    the result is checked against the original rows.
    """
    mod, n, width = q**k, len(rows[0]), len(rhs[0])
    aug = [[x % mod for x in row] + [b % mod for b in bs] for row, bs in zip(rows, rhs)]
    open_rows, open_cols, pivots = list(range(len(aug))), set(range(n)), []
    while open_rows and open_cols:
        best = None
        for i in open_rows:
            for j in open_cols:
                if aug[i][j] and (best is None or valuation(aug[i][j], q) < best[0]):
                    best = (valuation(aug[i][j], q), i, j)
                    if best[0] == 0:
                        break
            if best and best[0] == 0:
                break
        if best is None:
            break
        v, i, j = best
        open_rows.remove(i)
        open_cols.remove(j)
        inv = pow(aug[i][j] // q**v, -1, mod)
        for r in open_rows:
            if aug[r][j]:
                f = aug[r][j] // q**v * inv % mod
                aug[r] = [(a - f * b) % mod for a, b in zip(aug[r], aug[i])]
        pivots.append((i, j, v, inv))
    solutions = []
    for t in range(n, n + width):
        c = [0] * n
        for i, j, v, inv in reversed(pivots):
            rest = (aug[i][t] - sum(map(operator.mul, aug[i][:n], c))) % mod
            assert rest % q**v == 0
            c[j] = rest // q**v * inv % mod
        solutions.append(c)
    for t, c in enumerate(solutions):  # a broken solver fails here, not quietly
        assert [sum(map(operator.mul, row, c)) % mod for row in rows] == \
            [bs[t] % mod for bs in rhs]
    return solutions


def solve(rows, rhs, em):
    """solve_prime_power for each prime power of em, joined by CRT."""
    joined = [[0] * len(rows[0]) for _ in rhs[0]]
    for q, k in factor(em).items():
        mod = q**k
        lift = em // mod * pow(em // mod, -1, mod)
        for acc, c in zip(joined, solve_prime_power(rows, rhs, q, k)):
            acc[:] = [(a + lift * x) % em for a, x in zip(acc, c)]
    return joined


def powers(base, n, em):
    out = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(n - 1):
        out.append(mul(out[-1], base, em))
    return out


def linearization_keys(setup, tokens_a, tokens_b):
    """Every round key of a session, from the setup and both parties' tokens."""
    p, n, sigma = setup.params.p, setup.dim, setup.sigma
    em = p - 1
    bx = powers([[x % em for x in row] for row in setup.base_xu.to_rows()], n, em)
    by = powers([[x % em for x in row] for row in setup.base_yv.to_rows()], n, em)
    m = logs(setup.w, p)
    terms = [mul(mul(bi, m, em), bj, em) for bi in bx for bj in by]
    rows = [[sigma * t[r][s] % em for t in terms] for r in range(n) for s in range(n)]
    rhs = list(zip(*[sum(logs(t, p), []) for t in tokens_a]))
    keys = []
    for c, token in zip(solve(rows, rhs, em), tokens_b):
        peer = logs(token, p)
        key = [[0] * n for _ in range(n)]
        for i, bi in enumerate(bx):
            inner = [[0] * n for _ in range(n)]
            for j, bj in enumerate(by):
                inner = add_scaled(inner, c[i * n + j], mul(peer, bj, em), em)
            key = add_scaled(key, sigma, mul(bi, inner, em), em)
        keys.append(exp_g(key, p))
    return keys


def honest_session(dim, p, sigma, seed, rounds=2):
    rng = random.Random(seed)
    setup = generate_setup(dim, p, 10**4, rounds, rng, sigma=sigma)
    alice, bob = (RdmpfSession(setup, injected=[(rng.randint(1, 10**4), rng.randint(1, 10**4))
                                                for _ in range(rounds)]) for _ in range(2))
    return setup, alice, bob


@pytest.mark.parametrize("p", [SAFE_P, FERMAT_P])
@pytest.mark.parametrize("sigma", [1, 3])
@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_linearization_recovers_every_round_key(dim, sigma, p):
    setup, alice, bob = honest_session(dim, p, sigma, seed=dim * 10 + sigma)
    keys = alice.round_keys(bob.tokens)
    assert keys == bob.round_keys(alice.tokens)
    recovered = linearization_keys(setup, alice.tokens, bob.tokens)
    assert recovered == keys
    assert session_digest(recovered) == alice.derive(bob.tokens)


@pytest.mark.parametrize("p", [SAFE_P, FERMAT_P])
@pytest.mark.parametrize("sigma", [1, 3])
def test_dim2_round_falls_to_one_log_of_t0(sigma, p):
    # T_a = T0^e_a and K = T0^(e_a·e_b·s_x·s_y) = T_b^(e_a·s_x·s_y), where
    # s_x, s_y are the row sums of the one-row bases (Bx^2 = s_x·Bx)
    setup, alice, bob = honest_session(2, p, sigma, seed=sigma, rounds=4)
    em = p - 1
    t0 = double_action(setup.base_xu, setup.w, setup.base_yv, p)
    s_x, s_y = (sum(b.row(0)) % em for b in (setup.base_xu, setup.base_yv))
    rows = [[x] for x in sum(logs(t0, p), [])]
    rhs = list(zip(*[sum(logs(t, p), []) for t in alice.tokens]))
    recovered = []
    for (e,), token in zip(solve(rows, rhs, em), bob.tokens):
        assert alice.tokens[len(recovered)].entries == tuple(pow(v, e, p) for v in t0.entries)
        recovered.append(Matrix(2, 2, tuple(pow(v, e * s_x * s_y, p) for v in token.entries), p))
    assert recovered == alice.round_keys(bob.tokens)
    assert session_digest(recovered) == alice.derive(bob.tokens)


def test_rmpf_falls_to_one_log():
    # the rmpf-smallp shape: T_a = T^(lambda·omega) entrywise, so one log
    # gives a scalar s with T^s == T_a, and the key is s·X's action on T_b
    p, rows, cols = FERMAT_P, 96, 8
    em = p - 1
    rng = random.Random(96)
    base, x, y = (sample_matrix(rows, cols, p, rng, mode="unit_entries") for _ in range(3))
    setup = RmpfSetup(FieldParams(p), base, x, y)
    (priv_a, token_a), (priv_b, token_b) = keygen(setup, rng), keygen(setup, rng)
    public = double_action(x, base, y, p)
    (s,), = solve([[v] for v in sum(logs(public, p), [])],
                  [[v] for v in sum(logs(token_a, p), [])], em)
    assert token_a.entries == tuple(pow(v, s, p) for v in public.entries)
    key = double_action(mat_scalar_mul_mod(s, x, em), token_b, y, p)
    assert key == derive_key(priv_a, token_b, setup) == derive_key(priv_b, token_a, setup)


@pytest.mark.parametrize("q, k", [(2, 16), (3, 4), (10061, 1)])
def test_solver_on_a_random_consistent_system(q, k):
    # a planted solution of a rank-deficient system is recovered up to the
    # kernel: the solver's own check would fail otherwise
    rng = random.Random(q)
    mod = q**k
    basis = [[rng.randrange(mod) for _ in range(12)] for _ in range(5)]
    rows = [[sum(rng.randrange(3) * b[j] for b in basis) * q**rng.randrange(2) % mod
             for j in range(12)] for _ in range(9)]
    planted = [[rng.randrange(mod) for _ in range(12)] for _ in range(3)]
    rhs = [[sum(map(operator.mul, row, c)) % mod for c in planted] for row in rows]
    assert len(solve_prime_power(rows, rhs, q, k)) == 3
