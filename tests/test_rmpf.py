import math
import random

import pytest

from mpfkap import (
    FieldParams,
    Matrix,
    ParameterError,
    ProtocolError,
    RmpfSetup,
    derive_key,
    generate_setup,
    keygen,
    mat_mul_mod,
    mat_scalar_mul_mod,
    mpf_double,
    round_key,
    round_keygen,
    sample_matrix,
)
from mpfkap import known_answers as ka
from mpfkap import rdmpf as rdmpf_mod
from mpfkap import rmpf as rmpf_mod
from mpfkap.rdmpf import rdmpf
from mpfkap.rmpf import _MAX_WINDOW, _multi_exp, _window, double_action
from one_sided import mpf_left, mpf_right, transpose


def direct_double(xe, w, ye, p, r):
    """Independent oracle: builtin pow, exponent products left unreduced.

    Exponents live mod p-1, so a zero base raised to a multiple of p-1
    is 0**0 = 1.
    """
    out = []
    for i in range(xe.rows):
        row = []
        for j in range(xe.cols):
            acc = 1
            for k in range(r):
                for l in range(r):
                    e = xe.at(i, k) * ye.at(l, j)
                    base = w.at(k, l)
                    term = pow(base, e, p) if base else int(e % (p - 1) == 0)
                    acc = acc * term % p
            row.append(acc)
        out.append(row)
    return out


def rand_exponents(rows, cols, em, rng):
    return Matrix.from_rows(
        [[rng.randrange(em) for _ in range(cols)] for _ in range(rows)], em
    )


def edge_exponents(rows, cols, p, rng):
    """Exponents mod p-1 with the extreme entries 0 and p-2 mixed in."""
    flat = [rng.choice((0, p - 2, rng.randrange(p - 1))) for _ in range(rows * cols)]
    return Matrix(rows, cols, tuple(flat), p - 1)


def rand_setup(rows, cols, p, rng):
    return RmpfSetup(
        FieldParams(p),
        sample_matrix(rows, cols, p, rng, mode="unit_entries"),
        sample_matrix(rows, cols, p, rng, mode="unit_entries"),
        sample_matrix(rows, cols, p, rng, mode="unit_entries"),
    )


class TestOneSidedActions:
    def test_left_zero_exponents_give_ones(self):
        w = Matrix.from_rows([[2, 3], [4, 5]], 7)
        z = Matrix.zeros(2, 2, 6)
        assert mpf_left(z, w).to_rows() == [[1, 1], [1, 1]]

    def test_left_identity_exponents(self):
        w = Matrix.from_rows([[2, 3], [4, 5]], 7)
        ident = Matrix.identity(2, 6)
        assert mpf_left(ident, w) == w

    def test_left_small_instance(self):
        # c[0][0] = 2^1 * 4^1 = 8 = 1 mod 7
        x = Matrix.from_rows([[1, 1], [2, 0]], 6)
        w = Matrix.from_rows([[2, 3], [4, 5]], 7)
        got = mpf_left(x, w)
        assert got.at(0, 0) == 1
        expected = [
            [2 ** 1 * 4 ** 1 % 7, 3 ** 1 * 5 ** 1 % 7],
            [2 ** 2 * 4 ** 0 % 7, 3 ** 2 * 5 ** 0 % 7],
        ]
        assert got.to_rows() == expected

    def test_right_zero_exponents_give_ones(self):
        w = Matrix.from_rows([[2, 3], [4, 5]], 7)
        z = Matrix.zeros(2, 2, 6)
        assert mpf_right(w, z).to_rows() == [[1, 1], [1, 1]]

    def test_right_identity_exponents(self):
        w = Matrix.from_rows([[2, 3], [4, 5]], 7)
        assert mpf_right(w, Matrix.identity(2, 6)) == w

    def test_right_against_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            w = sample_matrix(2, 2, 7, rng, mode="unit_entries")
            y = rand_exponents(2, 2, 6, rng)
            got = mpf_right(w, y)
            expected = [
                [
                    pow(w.at(i, 0), y.at(0, j)) * pow(w.at(i, 1), y.at(1, j)) % 7
                    for j in range(2)
                ]
                for i in range(2)
            ]
            assert got.to_rows() == expected

    def test_dimension_mismatch(self):
        w = Matrix.from_rows([[2, 3], [4, 5]], 7)
        x = Matrix.from_rows([[1, 2, 3]], 6)
        with pytest.raises(ParameterError):
            mpf_left(x, w)
        # a wide shape has no top block: the reference and the kernel refuse it alike
        wide = Matrix.from_rows([[2, 3, 4], [5, 6, 1]], 7)
        for double in (mpf_double, double_action):
            with pytest.raises(ParameterError, match="need a top 3x3 block, got a 2x3 matrix"):
                double(wide, wide, wide, 7)


class TestDoubleAction:
    def test_known_tokens(self):
        setup = ka.rmpf_setup()
        em = 65536
        a1 = mat_scalar_mul_mod(ka.RMPF_LAMBDA_A, setup.x, em)
        b1 = mat_scalar_mul_mod(ka.RMPF_OMEGA_A, setup.y, em)
        assert mpf_double(a1, setup.base, b1, ka.P).to_rows() == ka.RMPF_TOKEN_A
        a2 = mat_scalar_mul_mod(ka.RMPF_LAMBDA_B, setup.x, em)
        b2 = mat_scalar_mul_mod(ka.RMPF_OMEGA_B, setup.y, em)
        assert mpf_double(a2, setup.base, b2, ka.P).to_rows() == ka.RMPF_TOKEN_B

    def test_zero_exponents_give_ones(self):
        w = Matrix.from_rows([[2, 3], [4, 5]], 7)
        z = Matrix.zeros(2, 2, 6)
        y = rand_exponents(2, 2, 6, random.Random(1))
        assert mpf_double(z, w, y, 7).to_rows() == [[1, 1], [1, 1]]
        assert mpf_double(y, w, z, 7).to_rows() == [[1, 1], [1, 1]]

    def test_against_oracle(self):
        # square and rectangular shapes down to 1x1, zero entries in w,
        # and p up to 2^64-59
        rng = random.Random(12)
        for p in (7, 65537, 2**64 - 59):
            for _ in range(150 if p == 7 else 25):
                rows = rng.choice((1, 2, 3))
                cols = rng.randrange(1, rows + 1)
                flat = [rng.randrange(p) for _ in range(rows * cols)]
                flat[rng.randrange(len(flat))] = 0
                w = Matrix(rows, cols, tuple(flat), p)
                x = rand_exponents(rows, cols, p - 1, rng)
                y = rand_exponents(rows, cols, p - 1, rng)
                assert mpf_double(x, w, y, p).to_rows() == direct_double(x, w, y, p, cols)

    def test_modulus_mismatch(self):
        w = Matrix.from_rows([[2, 3], [4, 5]], 7)
        x = rand_exponents(2, 2, 6, random.Random(1))
        with pytest.raises(ParameterError):
            mpf_double(x, w, x, 11)


KERNEL_PRIMES = (7, 65537, 2**64 - 59)
KERNEL_SHAPES = ((1, 1), (2, 2), (3, 3), (4, 4), (2, 1), (4, 2), (5, 3))


class TestFactoredKernel:
    def test_against_direct(self):
        rng = random.Random(14)
        for p in KERNEL_PRIMES:
            for rows, cols in KERNEL_SHAPES:
                for _ in range(12 if p == 7 else 3):
                    w = sample_matrix(rows, cols, p, rng, mode="unit_entries")
                    x = edge_exponents(rows, cols, p, rng)
                    y = edge_exponents(rows, cols, p, rng)
                    got = double_action(x, w, y, p)
                    assert got.to_rows() == direct_double(x, w, y, p, cols)
                    assert got == mpf_double(x, w, y, p)
                    assert not got.has_zero_entry()

    def test_zero_in_read_block_goes_direct(self):
        # refused: 0 ** (2*3 mod 6) is 1, but the split form gives (0 ** 3) ** 2 = 0
        w = Matrix.from_rows([[0]], 7)
        x = Matrix.from_rows([[2]], 6)
        y = Matrix.from_rows([[3]], 6)
        assert mpf_double(x, w, y, 7).to_rows() == [[1]]
        with pytest.raises(ParameterError, match="zero"):
            double_action(x, w, y, 7)
        rng = random.Random(15)
        for p in KERNEL_PRIMES:
            for rows, cols in KERNEL_SHAPES:
                flat = list(sample_matrix(rows, cols, p, rng, mode="unit_entries").entries)
                flat[rng.randrange(cols * cols)] = 0
                w = Matrix(rows, cols, tuple(flat), p)
                x = edge_exponents(rows, cols, p, rng)
                y = edge_exponents(rows, cols, p, rng)
                with pytest.raises(ParameterError, match="zero"):
                    double_action(x, w, y, p)

    def test_zero_below_read_block_ignored(self):
        rng = random.Random(16)
        for p in KERNEL_PRIMES:
            for rows, cols in ((2, 1), (4, 2), (5, 3)):
                w = sample_matrix(rows, cols, p, rng, mode="unit_entries")
                x = edge_exponents(rows, cols, p, rng)
                y = edge_exponents(rows, cols, p, rng)
                flat = list(w.entries)
                flat[rng.randrange(cols * cols, rows * cols)] = 0
                w_zero = Matrix(rows, cols, tuple(flat), p)
                got = double_action(x, w_zero, y, p)
                assert got == double_action(x, w, y, p) == mpf_double(x, w_zero, y, p)


P64 = 2**64 - 59


def per_term(base_sets, exps, p):
    """Reference for _multi_exp: one builtin pow per term."""
    out = []
    for bases in base_sets:
        row = []
        for ev in exps:
            acc = 1
            for b, e in zip(bases, ev):
                acc = acc * pow(b, e, p) % p
            row.append(acc)
        out.append(row)
    return out


def direct_left(xe, w, p):
    n, em = xe.cols, p - 1
    return [[math.prod(pow(w.at(k, j), xe.at(i, k) % em, p) for k in range(n)) % p
             for j in range(n)] for i in range(xe.rows)]


def direct_right(w, ye, p):
    n, em = w.cols, p - 1
    return [[math.prod(pow(w.at(i, l), ye.at(l, j) % em, p) for l in range(n)) % p
             for j in range(n)] for i in range(w.rows)]


class TestMultiExp:
    """The shared-table kernel against per-term pow and mpf_double."""

    def test_cost_model_switch(self):
        # per-term pow below the switch, a window above it
        assert _window(1, 1, 64) == 0
        assert _window(2, 2, 64) == 0
        assert _window(1, 1, 16) == 0
        assert _window(8, 8, 64) > 0
        assert _window(8, 96, 16) > 0
        assert _window(100, 100, 64) > 0
        assert _window(8, 8, 0) == 0

    @pytest.mark.parametrize("c", range(1, _MAX_WINDOW + 1))
    def test_every_window_width(self, c, monkeypatch):
        # the Straus path at each width, on shapes the model gives to
        # per-term pow too, against per-term pow
        monkeypatch.setattr(rmpf_mod, "_window", lambda n, outs, bits: c)
        rng = random.Random(c)
        for p, n in ((65537, 1), (65537, 5), (P64, 2), (P64, 20)):
            bases = [[rng.randrange(p) for _ in range(n)] for _ in range(3)] + [[0] * n]
            exps = [[rng.randrange(p - 1) for _ in range(n)] for _ in range(4)]
            exps += [[0] * n, [p - 2] * n]
            assert _multi_exp(bases, exps, p) == per_term(bases, exps, p)

    @pytest.mark.parametrize("p", (65537, P64))
    @pytest.mark.parametrize("n", (1, 3, 8))
    def test_one_nonzero_digit_at_every_window_position(self, p, n):
        # for every exponent bit length b up to p-2's, one vector per
        # window position holding a single nonzero digit, padded to 32
        # vectors with zero vectors, so the top window is full for some b
        # and partly filled for others
        rng = random.Random(n)
        bases = [[rng.randrange(1, p) for _ in range(n)], [p - 1] * n]
        widths = set()
        for b in range(1, (p - 2).bit_length() + 1):
            c = _window(n, 32, b)
            top = min((1 << b) - 1, p - 2)
            if c == 0:
                exps = [[top] * n]
            else:
                widths.add((c, b % c == 0))
                mask = (1 << c) - 1
                exps = [[0] * n for _ in range(-(-b // c))]
                for t, ev in enumerate(exps):
                    ev[t % n] = top & (mask << (c * t))
                    assert ev[t % n]
            exps += [[0] * n] * (32 - len(exps))
            assert _multi_exp(bases, exps, p) == per_term(bases, exps, p)
        if n > 1:
            assert {full for _, full in widths} == {True, False}

    @pytest.mark.parametrize(
        "rows, cols, p",
        [(1, 1, 65537), (1, 1, P64), (9, 8, 65537), (96, 8, 65537), (8, 8, P64), (13, 12, P64)],
    )
    def test_double_action_against_mpf_double(self, rows, cols, p):
        rng = random.Random(rows * cols)
        w = sample_matrix(rows, cols, p, rng, mode="unit_entries")
        top = Matrix(rows, cols, (p - 1,) * (rows * cols), p)
        for x, y in (
            (edge_exponents(rows, cols, p, rng), edge_exponents(rows, cols, p, rng)),
            (rand_exponents(rows, cols, p - 1, rng), rand_exponents(rows, cols, p - 1, rng)),
            (Matrix(rows, cols, (p - 2,) * (rows * cols), p - 1), top),
        ):
            for base in (w, top):
                assert double_action(x, base, y, p) == mpf_double(x, base, y, p)

    @pytest.mark.parametrize("p", (65537, P64))
    @pytest.mark.parametrize("n", (1, 8, 20))
    def test_one_sided_zero_bases_and_zero_exponents(self, p, n):
        # n = 20 runs past one reduction chunk of 16 terms
        rng = random.Random(n)
        flat = list(sample_matrix(n + 2, n, p, rng, mode="unit_entries").entries)
        for i in rng.sample(range(len(flat)), n):
            flat[i] = 0
        w = Matrix(n + 2, n, tuple(flat), p)
        zeros = Matrix.zeros(n + 3, n, p - 1)
        for e in (zeros, edge_exponents(n + 3, n, p, rng)):
            assert mpf_left(e, w).to_rows() == direct_left(e, w, p)
            assert mpf_right(w, e).to_rows() == direct_right(w, e, p)
        assert mpf_left(zeros, w).to_rows() == [[1] * n] * (n + 3)
        assert mpf_right(w, zeros).to_rows() == [[1] * n] * (n + 2)


def with_equal_rows(e, count, rng, row=None):
    """e with count of its rows, at random positions, all set to one row:
    the given row, or else the first chosen row of e."""
    rows = e.to_rows()
    where = rng.sample(range(e.rows), count)
    src = list(row) if row is not None else rows[where[0]]
    for i in where:
        rows[i] = list(src)
    return Matrix.from_rows(rows, e.modulus)


def counted_double_action(monkeypatch, xe, w, ye, p):
    """double_action's result, the terms its passes hand _multi_exp, and the
    cheaper order by the kernel's cost rule, worked out here from the rows."""
    terms = []
    real = rmpf_mod._multi_exp

    def spy(base_sets, exps, p):
        base_sets = list(base_sets)
        terms.append(len(base_sets) * len(exps) * len(exps[0]))
        return real(base_sets, exps, p)

    monkeypatch.setattr(rmpf_mod, "_multi_exp", spy)
    try:
        got = double_action(xe, w, ye, p)
    finally:
        monkeypatch.setattr(rmpf_mod, "_multi_exp", real)
    n = xe.cols
    em = p - 1
    groups = {}
    for l in range(n):
        groups.setdefault(tuple(v % em for v in ye.row(l)), []).append(l)
    wrows = {}
    for k in range(n):
        row = tuple(math.prod(w.at(k, l) for l in ls) % p for ls in groups.values())
        wrows.setdefault(row, []).append(k)
    xrows = {tuple(sum(xe.at(i, k) for k in ks) % em for ks in wrows.values())
             for i in range(xe.rows)}
    u, c, d = len(xrows), len(groups), len(wrows)
    left, right = u * c * (d + n), n * d * (c + u)
    assert sum(terms) == min(left, right)
    return got, "left" if left < right else "right"


class TestDistinctRows:
    """double_action merges equal ye rows, computes equal xe rows once and
    runs the cheaper pass first; always equal to mpf_double."""

    @pytest.mark.parametrize("p", (65537, P64))
    def test_square_dims_with_repeated_rows(self, p, monkeypatch):
        rng = random.Random(p)
        special = (None, [0] * 8, [p - 2] * 8)
        orders = set()
        for n in range(1, 9):
            flat = list(sample_matrix(n, n, p, rng, mode="unit_entries").entries)
            for i in rng.sample(range(n * n), -(-n * n // 4)):
                flat[i] = p - 1
            w = Matrix(n, n, tuple(flat), p)
            for t, (kx, ky) in enumerate(
                (kx, ky) for kx in sorted({1, 2, 3, n}) for ky in sorted({1, 2, n})
                if kx <= n and ky <= n
            ):
                row = special[t % 3]
                x = with_equal_rows(edge_exponents(n, n, p, rng), kx, rng, row and row[:n])
                y = with_equal_rows(edge_exponents(n, n, p, rng), ky, rng, row and row[:n])
                got, order = counted_double_action(monkeypatch, x, w, y, p)
                orders.add(order)
                assert got == mpf_double(x, w, y, p)
        assert orders == {"left", "right"}

    @pytest.mark.parametrize("p", (65537, P64))
    def test_rows_equal_mod_p_minus_1_merge(self, p, monkeypatch):
        # as integers the rows differ (0 against p-1), mod p-1 they are equal
        rng = random.Random(p + 1)
        w = sample_matrix(3, 3, p, rng, mode="unit_entries")
        x = Matrix.from_rows([[0, 5, p - 2], [p - 1, 5, p - 2], [0, 5, p - 2]], p)
        y = Matrix.from_rows([[p - 1, 7, 1], [0, 7, 1], [2, 3, 4]], p)
        got, order = counted_double_action(monkeypatch, x, w, y, p)
        assert order == "left"
        assert got == mpf_double(x, w, y, p)
        assert got.row(0) == got.row(1) == got.row(2)

    @pytest.mark.parametrize(
        "rows, cols, p", [(96, 8, 65537), (40, 4, P64), (24, 2, P64), (17, 3, 65537)]
    )
    def test_tall_shapes_run_right_first(self, rows, cols, p, monkeypatch):
        rng = random.Random(rows)
        w = sample_matrix(rows, cols, p, rng, mode="unit_entries")
        for kx in (1, 2, 3):
            x = with_equal_rows(rand_exponents(rows, cols, p - 1, rng), kx, rng)
            y = rand_exponents(rows, cols, p - 1, rng)
            got, order = counted_double_action(monkeypatch, x, w, y, p)
            assert order == "right"
            assert got == mpf_double(x, w, y, p)

    @pytest.mark.parametrize("p", (65537, P64))
    def test_zero_in_block_still_refused(self, p):
        rng = random.Random(p + 2)
        for n in (1, 2, 5):
            flat = list(sample_matrix(n, n, p, rng, mode="unit_entries").entries)
            flat[rng.randrange(n * n)] = 0
            w = Matrix(n, n, tuple(flat), p)
            x = with_equal_rows(edge_exponents(n, n, p, rng), n, rng)
            with pytest.raises(ParameterError, match="zero"):
                double_action(x, w, x, p)

    def test_dim2_rounds_skip_the_kernel_and_keys_make_two_pows(self, monkeypatch):
        # a dim-2 base repeats its row, and so does every private power and
        # token: round_keygen runs no double action, and round_key raises
        # the peer token's row product once per key column.  The kernel on
        # the same token action still makes 4 pows, one per merged term.
        setup = generate_setup(2, P64, 2**63, 1, random.Random(1))
        actions, pows = [], []

        def spy_action(*args):
            actions.append(args)
            return double_action(*args)

        def spy_pow(*args):
            pows.append(args)
            return pow(*args)

        monkeypatch.setattr(rdmpf_mod, "double_action", spy_action)
        monkeypatch.setattr(rdmpf_mod, "pow", spy_pow, raising=False)
        monkeypatch.setattr(rmpf_mod, "pow", spy_pow, raising=False)
        (priv, token), (_, peer) = round_keygen(setup, [(12345, 67890), (13579, 24680)])
        assert actions == [] and pows == []
        key = round_key(priv, peer, setup)
        assert actions == [] and len(pows) == 2
        pows.clear()
        kernel = double_action(
            mat_scalar_mul_mod(setup.sigma, priv.l, P64 - 1), setup.w, priv.r, P64)
        assert len(pows) == 4
        monkeypatch.undo()
        assert token == kernel == rdmpf(priv.l, setup.w, priv.r, P64, setup.sigma)
        assert key == rdmpf(priv.l, peer, priv.r, P64, setup.sigma)


def with_equal_w_rows(w, pairs):
    """w with row dst set to row src for each (src, dst) in pairs."""
    rows = w.to_rows()
    for src, dst in pairs:
        rows[dst] = list(rows[src])
    return Matrix.from_rows(rows, w.modulus)


class TestBaseRowMerge:
    """double_action merges equal rows of the base block and adds their xe
    columns; always equal to mpf_double, with the cost rule's terms."""

    @pytest.mark.parametrize("p", (65537, P64))
    def test_rectangular_rows_inside_and_outside_the_block(self, p, monkeypatch):
        # 12x4: rows 0..3 are the block the action reads, rows 4.. are not
        rng = random.Random(p + 3)
        base = sample_matrix(12, 4, p, rng, mode="unit_entries")
        for pairs, merged in (
            ([(1, 3)], 3),  # inside: two block rows merge
            ([(0, 1), (0, 2), (0, 3)], 1),  # the whole block is one row
            ([(0, 6), (2, 11)], 4),  # outside: copies below the block change nothing
            ([(1, 3), (1, 7)], 3),
        ):
            w = with_equal_w_rows(base, pairs)
            assert len({w.row(k) for k in range(4)}) == merged
            for _ in range(3):
                x = edge_exponents(12, 4, p, rng)
                y = edge_exponents(12, 4, p, rng)
                got, _ = counted_double_action(monkeypatch, x, w, y, p)
                assert got == mpf_double(x, w, y, p)

    @pytest.mark.parametrize("p", (65537, P64))
    def test_xe_rows_equal_only_after_the_column_merge(self, p, monkeypatch):
        # w rows 0 and 1 are equal, so xe rows (a, b, z) and (b, a, z)
        # act alike: their merged rows are both (a + b, z)
        rng = random.Random(p + 4)
        w = with_equal_w_rows(sample_matrix(3, 3, p, rng, mode="unit_entries"), [(0, 1)])
        a, b, z = p - 2, 5, rng.randrange(p - 1)
        x = Matrix.from_rows([[a, b, z], [b, a, z], [0, p - 2, 1]], p - 1)
        y = edge_exponents(3, 3, p, rng)
        got, _ = counted_double_action(monkeypatch, x, w, y, p)
        assert got == mpf_double(x, w, y, p)
        assert got.row(0) == got.row(1) != got.row(2)
        # merged entries 2p-4, p-3 and p-3: equal mod p-1, unequal as integers
        x = Matrix.from_rows([[p - 2, p - 2, z], [p - 3, 0, z], [1, p - 4, z]], p - 1)
        got, _ = counted_double_action(monkeypatch, x, w, y, p)
        assert got == mpf_double(x, w, y, p)
        assert got.row(0) == got.row(1) == got.row(2)

    @pytest.mark.parametrize("p", (65537, P64))
    @pytest.mark.parametrize("dim", (2, 3, 8))
    def test_peer_tokens(self, dim, p, monkeypatch):
        # a token repeats rows where base_xu does, so the key action merges them
        setup = generate_setup(dim, p, 2**20, 2, random.Random(dim))
        (priv, token), (_, peer) = round_keygen(setup, [(1234, 5678), (2468, 1357)])
        assert len({peer.row(k) for k in range(dim)}) < dim
        xe = mat_scalar_mul_mod(setup.sigma, priv.l, p - 1)
        key, _ = counted_double_action(monkeypatch, xe, peer, priv.r, p)
        assert key == round_key(priv, peer, setup)
        assert key == rdmpf(priv.l, peer, priv.r, p, setup.sigma)
        assert token == rdmpf(priv.l, setup.w, priv.r, p, setup.sigma)

    def test_merge_flips_the_pass_order(self, monkeypatch):
        # n = 4, one base row, 4 xe rows with 2 distinct sums, 2 ye groups.
        # Unmerged (d = n = 4, u = 4): left 2*u*c*n = 64 < right n*n*(c+u) = 96.
        # Merged (d = 1, u = 2): left u*c*(d+n) = 20 > right n*d*(c+u) = 16.
        p = P64
        rng = random.Random(17)
        w = with_equal_w_rows(sample_matrix(4, 4, p, rng, mode="unit_entries"),
                              [(0, 1), (0, 2), (0, 3)])
        x = Matrix.from_rows([[1, 2, 3, 4], [4, 3, 2, 1], [2, 2, 2, 2], [5, 0, 0, 0]], p - 1)
        r1, r2 = rand_exponents(2, 4, p - 1, rng).to_rows()
        y = Matrix.from_rows([r1, r2, r2, r1], p - 1)
        got, order = counted_double_action(monkeypatch, x, w, y, p)
        assert order == "right"
        assert got == mpf_double(x, w, y, p)


class TestSetupValidation:
    def test_rows_must_exceed_cols(self):
        rng = random.Random(13)
        with pytest.raises(ParameterError):
            rand_setup(3, 3, 7, rng)

    def test_zero_entries_rejected(self):
        params = FieldParams(7)
        base = Matrix.from_rows([[0, 1], [2, 3], [4, 5]], 7)
        ok = Matrix.from_rows([[1, 1], [2, 3], [4, 5]], 7)
        with pytest.raises(ParameterError):
            RmpfSetup(params, base, ok, ok)

    def test_modulus_mismatch_rejected(self):
        params = FieldParams(7)
        m7 = Matrix.from_rows([[1, 1], [2, 3], [4, 5]], 7)
        m11 = Matrix.from_rows([[1, 1], [2, 3], [4, 5]], 11)
        with pytest.raises(ParameterError):
            RmpfSetup(params, m7, m11, m7)

    def test_floor_warnings(self):
        warnings = ka.rmpf_setup().floor_warnings()
        assert any("2^64" in w for w in warnings)
        assert any("100" in w for w in warnings)
        assert any("one discrete log mod p whatever the dimension" in w for w in warnings)

    @pytest.mark.parametrize("p, safe", [(65537, False), (2**64 - 59, False), (1019, True)])
    def test_pohlig_hellman_warning(self, p, safe):
        rng = random.Random(p)
        base, x, y = (sample_matrix(6, 3, p, rng, mode="unit_entries") for _ in range(3))
        warnings = RmpfSetup(FieldParams(p), base, x, y).floor_warnings()
        assert any("Pohlig-Hellman" in w for w in warnings) == (not safe)
        assert any("one discrete log mod p" in w for w in warnings)


class TestProtocolRun:
    def test_known_keygen(self):
        setup = ka.rmpf_setup()
        rng = random.Random(0)
        priv_a, token_a = keygen(setup, rng, ka.RMPF_LAMBDA_A, ka.RMPF_OMEGA_A)
        assert priv_a.a.to_rows() == ka.RMPF_A1
        assert priv_a.b.to_rows() == ka.RMPF_B1
        assert token_a.to_rows() == ka.RMPF_TOKEN_A

    def test_known_key_derivation(self):
        setup = ka.rmpf_setup()
        rng = random.Random(0)
        priv_a, token_a = keygen(setup, rng, ka.RMPF_LAMBDA_A, ka.RMPF_OMEGA_A)
        priv_b, token_b = keygen(setup, rng, ka.RMPF_LAMBDA_B, ka.RMPF_OMEGA_B)
        key_a = derive_key(priv_a, token_b, setup)
        key_b = derive_key(priv_b, token_a, setup)
        assert key_a.to_rows() == ka.RMPF_KEY
        assert key_a == key_b

    def test_seeded_keygen_deterministic(self):
        setup = rand_setup(3, 2, 7, random.Random(14))
        p1, t1 = keygen(setup, random.Random(77))
        p2, t2 = keygen(setup, random.Random(77))
        assert (p1.lam, p1.omega) == (p2.lam, p2.omega)
        assert t1 == t2

    def test_zero_entry_peer_token_restarts(self):
        setup = rand_setup(3, 2, 7, random.Random(15))
        priv, _ = keygen(setup, random.Random(1))
        bad = Matrix.from_rows([[0, 1], [2, 3], [4, 5]], 7)
        with pytest.raises(ProtocolError, match="zero"):
            derive_key(priv, bad, setup)

    def test_peer_token_shape_checked(self):
        setup = rand_setup(3, 2, 7, random.Random(16))
        priv, _ = keygen(setup, random.Random(1))
        with pytest.raises(ProtocolError):
            derive_key(priv, Matrix.from_rows([[1, 2], [3, 4]], 7), setup)
        with pytest.raises(ProtocolError):
            derive_key(priv, Matrix.from_rows([[1, 2], [3, 4], [5, 6]], 11), setup)

    def test_agreement_smoke(self):
        rng = random.Random(17)
        for _ in range(20):
            setup = rand_setup(3, 2, 7, rng)
            pa, ta = keygen(setup, rng)
            pb, tb = keygen(setup, rng)
            assert derive_key(pa, tb, setup) == derive_key(pb, ta, setup)


class TestAlgebraicIdentities:
    """The structural identities behind key agreement, on square instances."""

    def test_one_sided_associativity(self):
        rng = random.Random(20)
        for trial in range(100):
            p = 7 if trial % 2 else 65537
            em = p - 1
            n = rng.choice((2, 3))
            w = sample_matrix(n, n, p, rng, mode="unit_entries")
            x = rand_exponents(n, n, em, rng)
            y = rand_exponents(n, n, em, rng)
            assert mpf_left(y, mpf_left(x, w)) == mpf_left(mat_mul_mod(y, x, em), w)
            assert mpf_right(mpf_right(w, x), y) == mpf_right(w, mat_mul_mod(x, y, em))

    def test_two_sided_associativity(self):
        rng = random.Random(21)
        for trial in range(100):
            p = 7 if trial % 2 else 65537
            em = p - 1
            n = rng.choice((2, 3))
            w = sample_matrix(n, n, p, rng, mode="unit_entries")
            x = rand_exponents(n, n, em, rng)
            y = rand_exponents(n, n, em, rng)
            via_left = mpf_right(mpf_left(x, w), y)
            via_right = mpf_left(x, mpf_right(w, y))
            assert via_left == via_right == mpf_double(x, w, y, p)

    def test_scalar_multiple_transpose_commutation(self):
        rng = random.Random(22)
        for trial in range(100):
            p = 7 if trial % 2 else 65537
            em = p - 1
            n = rng.choice((2, 3))
            x = rand_exponents(n, n, em, rng)
            a = mat_scalar_mul_mod(rng.randrange(1, p - 1), x, em)
            u = mat_scalar_mul_mod(rng.randrange(1, p - 1), x, em)
            assert mat_mul_mod(transpose(a), u, em) == mat_mul_mod(transpose(u), a, em)

    def test_exchange_identity(self):
        # the key-agreement core: nested double actions commute for
        # scalar-multiple privates, square and rectangular alike
        rng = random.Random(23)
        for trial in range(60):
            p = 7 if trial % 2 else 65537
            em = p - 1
            rows, cols = rng.choice(((2, 2), (3, 3), (3, 2), (5, 3)))
            w = sample_matrix(rows, cols, p, rng, mode="unit_entries")
            x = rand_exponents(rows, cols, em, rng)
            y = rand_exponents(rows, cols, em, rng)
            a1 = mat_scalar_mul_mod(rng.randrange(1, p - 1), x, em)
            a2 = mat_scalar_mul_mod(rng.randrange(1, p - 1), x, em)
            b1 = mat_scalar_mul_mod(rng.randrange(1, p - 1), y, em)
            b2 = mat_scalar_mul_mod(rng.randrange(1, p - 1), y, em)
            one = mpf_double(a1, mpf_double(a2, w, b2, p), b1, p)
            two = mpf_double(a2, mpf_double(a1, w, b1, p), b2, p)
            assert one == two
