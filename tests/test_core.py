import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpfkap import (
    FieldParams,
    Matrix,
    ParameterError,
    SerializationError,
    canonical_bytes,
    is_probable_prime,
    mat_mul_mod,
    mat_pow_mod,
    mat_scalar_mul_mod,
    rank_mod_p,
    sample_matrix,
)
from mpfkap import core
from mpfkap import known_answers as ka


def uniform_matrix(rows, cols, modulus, rng):
    """Entries uniform in [0, modulus), zero included, drawn row-major with randrange."""
    return Matrix(rows, cols, tuple(rng.randrange(modulus) for _ in range(rows * cols)), modulus)


def naive_mul(a, b, m):
    # oracle: textbook triple loop over nested lists, one reduction per entry
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) % m for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def naive_pow(a, e, m):
    # oracle: left-to-right square-and-multiply over naive_mul
    result = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for bit in bin(e)[2:]:
        result = naive_mul(result, result, m)
        if bit == "1":
            result = naive_mul(result, a, m)
    return result


@pytest.fixture
def product_count(monkeypatch):
    # counts calls into the single product kernel
    calls = []
    kernel = core.mul_rows_mod

    def counted(a, b, modulus):
        calls.append(modulus)
        return kernel(a, b, modulus)

    monkeypatch.setattr(core, "mul_rows_mod", counted)
    return calls


class TestPrimality:
    def test_known_primes(self):
        for p in (3, 7, 997, 4973, 65537, 2**61 - 1):
            assert is_probable_prime(p)

    def test_known_composites(self):
        for n in (1, 4, 65536, 561, 341550071728321 - 1):
            assert not is_probable_prime(n)


class TestFieldParams:
    def test_exp_modulus(self):
        fp = FieldParams(65537)
        assert fp.exp_modulus == 65536

    def test_rejects_composite(self):
        with pytest.raises(ParameterError):
            FieldParams(65536)

    def test_rejects_two(self):
        with pytest.raises(ParameterError):
            FieldParams(2)


class TestMatrix:
    def test_entry_count_enforced(self):
        with pytest.raises(ParameterError):
            Matrix(2, 2, (1, 2, 3), 7)

    def test_range_enforced(self):
        with pytest.raises(ParameterError):
            Matrix(1, 2, (1, 7), 7)

    def test_from_rows_reduces(self):
        m = Matrix.from_rows([[8, 14], [3, 6]], 7)
        assert m.entries == (1, 0, 3, 6)

    def test_ragged_rejected(self):
        with pytest.raises(ParameterError):
            Matrix.from_rows([[1, 2], [3]], 7)


class TestScalarMul:
    def test_identity_scalar(self):
        m = Matrix.from_rows([[1, 2], [3, 4]], 7)
        assert mat_scalar_mul_mod(1, m, 7) == m

    def test_known_exponent_matrices(self):
        # lambda * X and omega * Y mod p-1 from the worked 5x3 transcript
        x = Matrix.from_rows(ka.RMPF_X, 65536)
        y = Matrix.from_rows(ka.RMPF_Y, 65536)
        assert mat_scalar_mul_mod(ka.RMPF_LAMBDA_A, x, 65536).to_rows() == ka.RMPF_A1
        assert mat_scalar_mul_mod(ka.RMPF_OMEGA_A, y, 65536).to_rows() == ka.RMPF_B1


class TestMatMul:
    def test_identity(self):
        b = Matrix.from_rows([[2, 3], [4, 5]], 7)
        assert mat_mul_mod(Matrix.identity(2, 7), b, 7) == b

    def test_zero_annihilates(self):
        b = Matrix.from_rows([[2, 3], [4, 5]], 7)
        z = Matrix.zeros(2, 2, 7)
        assert mat_mul_mod(z, b, 7) == z

    def test_hand_multiplication(self):
        a = Matrix.from_rows([[1, 2], [3, 4]], 5)
        b = Matrix.from_rows([[0, 1], [1, 0]], 5)
        assert mat_mul_mod(a, b, 5).to_rows() == [[2, 1], [4, 3]]

    def test_dimension_mismatch(self):
        a = Matrix.from_rows([[1, 2]], 5)
        with pytest.raises(ParameterError):
            mat_mul_mod(a, a, 5)

    # moduli around the slot-width steps: 1 bit, 3 bits, 2^16 either side
    # of a bit-length change, and both sides of 2^64-59 (the wire floor)
    MODULI = (2, 7, 65536, 65537, 2**64 - 60, 2**64 - 59)
    SHAPES = ((1, 1, 1), (2, 2, 2), (8, 8, 8), (96, 8, 5))

    @pytest.mark.parametrize("m", MODULI)
    def test_against_triple_loop(self, m):
        rng = random.Random(m)
        for rows, inner, cols in self.SHAPES:
            a = [[rng.randrange(m) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.randrange(m) for _ in range(cols)] for _ in range(inner)]
            got = mat_mul_mod(Matrix.from_rows(a, m), Matrix.from_rows(b, m), m)
            assert got.to_rows() == naive_mul(a, b, m)

    @pytest.mark.parametrize("m", MODULI)
    def test_largest_entries(self, m):
        # every entry m-1 puts the most carry into each packed slot
        for rows, inner, cols in self.SHAPES:
            a = Matrix.from_rows([[m - 1] * inner] * rows, m)
            b = Matrix.from_rows([[m - 1] * cols] * inner, m)
            assert mat_mul_mod(a, b, m).to_rows() == naive_mul(a.to_rows(), b.to_rows(), m)

    def test_dim_100_at_floor_prime(self):
        m = 2**64 - 59
        rng = random.Random(100)
        a = [[rng.randrange(m) for _ in range(100)] for _ in range(100)]
        top = [[m - 1] * 100 for _ in range(100)]
        got = mat_mul_mod(Matrix.from_rows(a, m), Matrix.from_rows(top, m), m)
        assert got.to_rows() == naive_mul(a, top, m)

    def test_operands_reduced_to_target_modulus(self):
        # unreduced mod-7 entries overflow the 5-bit mod-2 slots: packing
        # this matrix as is squares to wrong rows 3 and 4
        a = Matrix.from_rows([[1, 0, 0, 1], [0, 1, 1, 0], [3, 4, 5, 6], [6, 5, 4, 3]], 7)
        expected = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
        assert mat_mul_mod(a, a, 2).to_rows() == expected
        assert mat_pow_mod(a, 2, 2).to_rows() == expected

    @pytest.mark.parametrize("source, target", [(2**64 - 59, 2**64 - 60), (65537, 2), (2**64 - 59, 7)])
    def test_larger_source_modulus(self, source, target):
        rng = random.Random(source ^ target)
        for rows, inner, cols in self.SHAPES:
            a = uniform_matrix(rows, inner, source, rng)
            b = uniform_matrix(inner, cols, source, rng)
            got = mat_mul_mod(a, b, target)
            assert got.modulus == target
            assert got.to_rows() == naive_mul(a.to_rows(), b.to_rows(), target)


class TestMatPow:
    def test_first_power(self):
        m = Matrix.from_rows([[1, 2], [3, 4]], 7)
        assert mat_pow_mod(m, 1, 7) == m

    def test_zeroth_power(self):
        m = Matrix.from_rows([[1, 2], [3, 4]], 7)
        assert mat_pow_mod(m, 0, 7) == Matrix.identity(2, 7)

    def test_known_private_matrices(self):
        base_xu = Matrix.from_rows(ka.RDMPF_BASE_XU, 65537)
        base_yv = Matrix.from_rows(ka.RDMPF_BASE_YV, 65537)
        r1 = ka.RDMPF_ROUND_1
        assert mat_pow_mod(base_xu, r1.rand_x, 65536).to_rows() == r1.x
        assert mat_pow_mod(base_yv, r1.rand_v, 65536).to_rows() == r1.v

    def test_non_square_rejected(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]], 7)
        with pytest.raises(ParameterError):
            mat_pow_mod(m, 2, 7)

    def test_against_iterated_product(self):
        rng = random.Random(2)
        for _ in range(50):
            m = uniform_matrix(3, 3, 11, rng)
            e = rng.randrange(0, 12)
            expected = Matrix.identity(3, 11)
            for _ in range(e):
                expected = mat_mul_mod(expected, m, 11)
            assert mat_pow_mod(m, e, 11) == expected

    @pytest.mark.parametrize("m", [7, 65536, 2**64 - 60])
    def test_against_repeated_multiplication(self, m):
        rng = random.Random(m)
        a = uniform_matrix(3, 3, m, rng)
        expected = Matrix.identity(3, m)
        for e in range(41):
            assert mat_pow_mod(a, e, m) == expected
            expected = Matrix.from_rows(naive_mul(expected.to_rows(), a.to_rows(), m), m)

    def test_63_bit_exponent(self):
        m = 2**64 - 60
        a = uniform_matrix(4, 4, m, random.Random(63))
        e = (1 << 62) + 0x1234_5678_9ABC_DEF1
        assert e.bit_length() == 63
        assert mat_pow_mod(a, e, m).to_rows() == naive_pow(a.to_rows(), e, m)

    @pytest.mark.parametrize("target", [2**64 - 60, 2])
    def test_source_modulus_differs(self, target):
        # a base sampled mod p, raised mod p-1 (private powers) and mod 2
        # (the nilpotency screen)
        a = uniform_matrix(5, 5, 2**64 - 59, random.Random(target))
        for e in (1, 2, 5, 40, 2**63 - 25):
            got = mat_pow_mod(a, e, target)
            assert got.modulus == target
            assert got.to_rows() == naive_pow(a.to_rows(), e, target)

    def test_product_count(self, product_count):
        # bitlen(e)-1 squarings and popcount(e)-1 multiplications: no
        # product with the identity and no unused last squaring
        a = uniform_matrix(2, 2, 65537, random.Random(1))
        for e in [*range(1, 41), (1 << 62) + 0x1234_5678_9ABC_DEF1]:
            product_count.clear()
            mat_pow_mod(a, e, 65536)
            assert len(product_count) == e.bit_length() - 1 + bin(e).count("1") - 1
        product_count.clear()
        assert mat_pow_mod(a, 0, 65536) == Matrix.identity(2, 65536)
        assert product_count == []

    def test_powers_of_common_base_commute(self):
        rng = random.Random(8)
        for _ in range(50):
            b = uniform_matrix(3, 3, 65537, rng)
            x, y = rng.randrange(1, 100), rng.randrange(1, 100)
            bx = mat_pow_mod(b, x, 65536)
            by = mat_pow_mod(b, y, 65536)
            assert mat_mul_mod(bx, by, 65536) == mat_mul_mod(by, bx, 65536)


P64 = 2**64 - 59


def per_product_count(e):
    # square-and-multiply: bitlen(e)-1 squarings, popcount(e)-1 products
    return e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0


class TestMatPows:
    def test_edge_exponents_match_separate_powers(self):
        em = P64 - 1
        a = uniform_matrix(3, 3, P64, random.Random(3))
        exps = [0, 1, P64 - 2, 2**63, 2**63, 1, 0, 12345, P64 - 2, 2**64 - 1]
        got = mat_pow_mod(a, exps, em)
        assert got == [mat_pow_mod(a, e, em) for e in exps]
        assert [m.to_rows() for m in got] == [naive_pow(a.to_rows(), e, em) for e in exps]
        assert got[0] == Matrix.identity(3, em)

    def test_nonzero_digit_at_every_window_position(self):
        # one exponent per bit, so every window position of every width
        # has a nonzero digit somewhere, plus all-ones and random ones
        em = P64 - 1
        rng = random.Random(64)
        a = uniform_matrix(2, 2, P64, rng)
        exps = [1 << k for k in range(64)] + [2**64 - 1]
        exps += [rng.randrange(2**64) for _ in range(64)]
        _, c, positions = core._window(exps)
        assert c > 1 and positions == -(-64 // c)
        got = mat_pow_mod(a, exps, em)
        assert [m.to_rows() for m in got] == [naive_pow(a.to_rows(), e, em) for e in exps]

    def test_one_exponent(self):
        a = uniform_matrix(4, 4, 65537, random.Random(1))
        for e in (0, 1, 2, 3, 65535, 2**40 + 7):
            assert mat_pow_mod(a, [e], 65536) == [mat_pow_mod(a, e, 65536)]
            assert mat_pow_mod(a, [e], 65536)[0].to_rows() == naive_pow(a.to_rows(), e, 65536)
        assert mat_pow_mod(a, [], 65536) == []

    @pytest.mark.parametrize("m", [2, 65536, 2**64 - 60])
    def test_one_by_one_matches_pow(self, m):
        rng = random.Random(m)
        for _ in range(5):
            a = Matrix(1, 1, (rng.randrange(P64),), P64)
            exps = [0, 1, 2, m - 1, m, 2**63, 2**63] + [rng.randrange(2**64) for _ in range(40)]
            got = mat_pow_mod(a, exps, m)
            assert [g.entries for g in got] == [(pow(a.entries[0], e, m),) for e in exps]

    def test_non_square_rejected(self):
        with pytest.raises(ParameterError, match="square"):
            mat_pow_mod(Matrix.from_rows([[1, 2, 3], [4, 5, 6]], 7), [1, 2], 7)

    def test_negative_exponent_rejected(self):
        a = Matrix.from_rows([[1, 2], [3, 4]], 7)
        for exps in ([-1], [5, -1, 2], [0, 3, -(2**63)]):
            with pytest.raises(ParameterError, match="non-negative"):
                mat_pow_mod(a, exps, 6)
        with pytest.raises(ParameterError, match="non-negative"):
            mat_pow_mod(a, -1, 6)

    def test_one_exponent_keeps_square_and_multiply(self):
        # the count picks c = 1, whose count is exactly square-and-multiply's:
        # every exponent below 2^14, and random ones up to 256 bits
        rng = random.Random(14)
        exps = [*range(1, 1 << 14)] + [rng.getrandbits(rng.randrange(15, 257)) for _ in range(2000)]
        for e in filter(None, exps):
            assert core._window([e]) == (per_product_count(e), 1, e.bit_length())

    def test_one_exponent_product_count(self, product_count):
        a = uniform_matrix(2, 2, 65537, random.Random(1))
        rng = random.Random(2)
        for e in [*range(0, 300), 2**63, 2**64 - 1] + [rng.randrange(2**64) for _ in range(50)]:
            product_count.clear()
            mat_pow_mod(a, [e], 65536)
            assert len(product_count) == per_product_count(e), e

    def test_window_is_the_cheapest(self):
        # oracle: every width from 1 to bitlen(max), each counted digit by digit
        def count(exps, c):
            bits = max(exps).bit_length()
            positions = -(-bits // c)
            digits = [[e >> c * j & (1 << c) - 1 for e in exps] for j in range(positions)]
            tops = [(1 << c) - 1] * (positions - 1) + [max(digits[-1])]
            table = sum(tops) - 1  # every entry but position 0's first
            nonzero = sum(1 for row in digits for d in row if d)
            return table + nonzero - sum(1 for e in exps if e), c, positions

        rng = random.Random(4)
        for n, bits in ((1, 9), (2, 8), (3, 64), (16, 20), (128, 63), (40, 2), (300, 30)):
            exps = [rng.randrange(1 << bits) for _ in range(n)] + [0]
            widths = range(1, max(exps).bit_length() + 1)
            assert core._window(exps) == min(count(exps, c) for c in widths)

    def test_batch_product_count_is_the_model(self, product_count):
        rng = random.Random(3)
        a = uniform_matrix(2, 2, P64, rng)
        for n, bits in ((2, 8), (3, 64), (16, 20), (128, 63), (40, 2)):
            exps = [rng.randrange(1 << bits) for _ in range(n)]
            product_count.clear()
            mat_pow_mod(a, exps, P64 - 1)
            assert len(product_count) == core._window(exps)[0]
            assert len(product_count) <= sum(per_product_count(e) for e in exps)


def spy_scalar_walks(monkeypatch):
    """The integer bases _table_walk is called with, from now on."""
    walked = []
    walk = core._table_walk

    def spy(base, *args):
        walked.append(base)
        return walk(base, *args)

    monkeypatch.setattr(core, "_table_walk", spy)
    return walked


class TestScalarPowers:
    """scalar_powers' one walk against builtin pow."""

    @pytest.mark.parametrize("m", [65537, 65536, P64, P64 - 1])  # two primes and their p-1
    def test_matches_builtin_pow(self, m, monkeypatch):
        walked = spy_scalar_walks(monkeypatch)
        rng = random.Random(m)
        edges = [0, 1, 2, m - 1, m, 2**63, 2**64 - 1]
        cases = [[0], [0, 0, 0], [], [1], [2**63], [m - 1], edges,
                 edges + [rng.randrange(2**64) for _ in range(121)]]
        for base in (0, 1, 2, m - 1, m + 5, rng.randrange(m)):
            for exps in cases:
                walked.clear()
                assert core.scalar_powers(base, exps, m) == [pow(base, x, m) for x in exps]
                assert walked == [base % m]

    def test_one_row_matrix_powers_walk_their_row_sum(self, monkeypatch):
        walked = spy_scalar_walks(monkeypatch)
        rng = random.Random(5)
        row = [rng.randrange(P64) for _ in range(3)]
        a = Matrix.from_rows([row] * 3, P64)
        exps = [0, 1, 2, 2**63] + [rng.randrange(2**64) for _ in range(60)]
        got = mat_pow_mod(a, exps, P64 - 1)
        assert [g.to_rows() for g in got] == [naive_pow(a.to_rows(), e, P64 - 1) for e in exps]
        assert walked == [sum(row) % (P64 - 1)]


def repeated_powers(a, exps, modulus):
    # oracle: a**e as e products by a, starting from the identity
    out, acc = {}, Matrix.identity(a.rows, modulus)
    for e in range(max(exps) + 1):
        out[e] = acc
        acc = mat_mul_mod(acc, a, modulus)
    return [out[e] for e in exps]


def rows_from(pattern, rng, p):
    # a matrix whose row i is drawn row pattern[i]: equal labels, equal rows
    drawn = {}
    for label in pattern:
        drawn.setdefault(label, [rng.randrange(p) for _ in pattern])
    return Matrix.from_rows([drawn[label] for label in pattern], p)


MERGE_PRIMES = (65537, P64)
SMALL_EXPS = [0, 1, 0, 2, 1, 3, 7, 1, 0, 16, 31, 40]


class TestMergedPowers:
    """Powers of matrices with equal rows, through the d x d core, against
    repeated mat_mul_mod, and against square-and-multiply for large exponents."""

    def check(self, a, modulus, rng):
        assert mat_pow_mod(a, SMALL_EXPS, modulus) == repeated_powers(a, SMALL_EXPS, modulus)
        big = [0, 1, modulus - 1, 2**63 + 1] + [rng.randrange(2**64) for _ in range(4)]
        got = mat_pow_mod(a, big, modulus)
        assert [g.to_rows() for g in got] == [naive_pow(a.to_rows(), e, modulus) for e in big]
        assert got[0] == Matrix.identity(a.rows, modulus)
        assert got[1] == Matrix.from_rows(a.to_rows(), modulus)

    @pytest.mark.parametrize("p", MERGE_PRIMES)
    @pytest.mark.parametrize("pattern", [
        "a",  # 1x1: no equal rows
        "aa",  # dim 2, both rows equal: a 1x1 core
        "aaaaa",  # dim 5, all rows equal
        "ababa", "aabbb",  # dim 5, two classes
        "abcab", "abcdeafgha",  # larger cores
    ])
    def test_row_patterns(self, pattern, p, product_count):
        rng = random.Random(f"{pattern}/{p}")
        for modulus in (p, p - 1):
            a = rows_from(pattern, rng, p)
            self.check(a, modulus, rng)
        if len(set(pattern)) == 1 and len(pattern) > 1:
            # the core is the row sum, raised by scalar_powers: no matrix product
            product_count.clear()
            mat_pow_mod(a, [0, 1, 2, 2**63], p - 1)
            assert product_count == []

    @pytest.mark.parametrize("p", MERGE_PRIMES)
    def test_rows_equal_only_mod_the_power_modulus(self, p, product_count):
        # mod p the rows differ in p-1 against 0; raised mod p-1 they are equal
        rng = random.Random(p)
        tail = [rng.randrange(1, p) for _ in range(2)]
        a = Matrix.from_rows([[p - 1, *tail], [0, *tail], [p - 1, *tail]], p)
        assert len({a.row(i) for i in range(3)}) == 2
        self.check(a, p - 1, rng)
        product_count.clear()
        mat_pow_mod(a, [5, 2**40], p - 1)
        assert product_count == []
        b = Matrix.from_rows([[p - 1, 2, 3], [0, 2, 3], [4, 5, 6]], p)
        self.check(b, p - 1, rng)

    @pytest.mark.parametrize("p", MERGE_PRIMES)
    def test_rank_deficient_without_equal_rows(self, p):
        # row 2 = row 0 + row 1: singular, but every row distinct
        rng = random.Random(p + 1)
        r0, r1 = ([rng.randrange(p) for _ in range(3)] for _ in range(2))
        a = Matrix.from_rows([r0, r1, [x + y for x, y in zip(r0, r1)]], p)
        assert rank_mod_p(a, p) == 2
        self.check(a, p, rng)
        self.check(a, p - 1, rng)

    @pytest.mark.parametrize("p", MERGE_PRIMES)
    def test_zero_entries(self, p):
        rng = random.Random(p + 2)
        for rows in ([[0, 5, 0], [0, 5, 0], [7, 0, 0]],
                     [[0, 0], [0, 0]],
                     [[0] * 4] * 4,
                     [[0, 1, 0], [0, 1, 0], [0, 1, 0]]):
            a = Matrix.from_rows(rows, p)
            self.check(a, p, rng)
            self.check(a, p - 1, rng)


def duplicate_row_pairs(m):
    return [
        (i, j) for i in range(m.rows) for j in range(i + 1, m.rows) if m.row(i) == m.row(j)
    ]


def rank_by_row_lists(m, p):
    # oracle: Gaussian elimination on reduced row lists, rebuilding each
    # row below the pivot with one reduction per entry
    work = [[e % p for e in m.row(i)] for i in range(m.rows)]
    rank = 0
    for col in range(m.cols):
        pivot = next((i for i in range(rank, m.rows) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        for i in range(rank + 1, m.rows):
            if work[i][col]:
                f = work[i][col] * inv % p
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
        if rank == m.rows:
            break
    return rank


RANK_PRIMES = (2, 3, 7, 65537, 2**64 - 59)


def combined_rows(rows, count, p, rng):
    # rows plus `count` random linear combinations of them
    extra = []
    for _ in range(count):
        coeffs = [rng.randrange(p) for _ in rows]
        extra.append([sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(len(rows[0]))])
    return rows + extra


def full_updates_matrix(n, p, dependent):
    """A matrix whose last row takes the largest update at every step.

    Row t < n-1 is e_t + e_{n-1}, so it is the pivot at step t and no
    other pivot touches it.  The last row is -1 left of the diagonal, so
    its lead is -1 at every step, and each step adds (p-1)·(p-1) to its
    last slot and nothing to the others: that slot collects n-1 of the
    largest updates.  With dependent=True the last row is minus the sum
    of the others, and the rank is n-1.
    """
    rows = [[int(j == i or j == n - 1) for j in range(n)] for i in range(n - 1)]
    rows.append([p - 1] * (n - 1) + [-(n - 1) % p if dependent else 1])
    return Matrix.from_rows(rows, p)


class TestRank:
    def test_identity_full_rank(self):
        assert rank_mod_p(Matrix.identity(3, 7), 7) == 3

    def test_duplicate_rows_detected(self):
        # the rank-deficient base matrix repeats its first two rows
        m = Matrix.from_rows(ka.RDMPF_BASE_XU, 65537)
        assert (0, 1) in duplicate_row_pairs(m)
        assert rank_mod_p(m, 65537) < 5

    def test_dependent_row(self):
        m = Matrix.from_rows([[1, 2], [2, 4]], 7)
        assert rank_mod_p(m, 7) == 1

    def test_rank_only_over_primes(self):
        with pytest.raises(ParameterError):
            rank_mod_p(Matrix.identity(2, 8), 8)

    @pytest.mark.parametrize("p", RANK_PRIMES)
    @pytest.mark.parametrize("shape", [(1, 1), (6, 3), (3, 6), (1, 5), (5, 1)])
    def test_edge_matrices_match_oracle(self, p, shape):
        rows, cols = shape
        rng = random.Random(p * 31 + rows * 7 + cols)
        late = [[0] * min(2, cols - 1) + [rng.randrange(1, p) for _ in range(cols - min(2, cols - 1))]
                for _ in range(rows)]
        cases = {
            "zero": Matrix.zeros(rows, cols, p),
            "all p-1": Matrix.from_rows([[p - 1] * cols for _ in range(rows)], p),
            "leading zero columns": Matrix.from_rows(late, p),
            "uniform": uniform_matrix(rows, cols, p, rng),
        }
        if rows > 1:
            base = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows // 2)]
            cases["combinations"] = Matrix.from_rows(
                combined_rows(base, rows - len(base), p, rng), p)
        for name, m in cases.items():
            assert rank_mod_p(m, p) == rank_by_row_lists(m, p), name
        assert rank_mod_p(cases["zero"], p) == 0
        assert rank_mod_p(cases["all p-1"], p) == 1

    @pytest.mark.parametrize("p", RANK_PRIMES)
    def test_random_shapes_match_oracle(self, p):
        rng = random.Random(p)
        for _ in range(60):
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            k = rng.randrange(1, rows + 1)
            base = [[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(cols)]
                    for _ in range(k)]
            m = Matrix.from_rows(combined_rows(base, rows - k, p, rng), p)
            assert rank_mod_p(m, p) == rank_by_row_lists(m, p)

    @pytest.mark.parametrize("p", [65537, 2**64 - 59])
    @pytest.mark.parametrize("dim", [30, 100])
    def test_sampled_setup_matrices_match_oracle(self, p, dim):
        rng = random.Random(dim + p)
        unit = sample_matrix(dim, dim, p, rng, mode="unit_entries")
        deficient = sample_matrix(dim, dim, p, rng, mode="rank_deficient")
        assert rank_mod_p(unit, p) == rank_by_row_lists(unit, p) == dim
        assert rank_mod_p(deficient, p) == rank_by_row_lists(deficient, p) == dim - 1

    @pytest.mark.parametrize("n", [6, 12, 100])
    def test_largest_updates_fit_a_slot(self, n):
        # n-1 updates of (p-1)^2 overflow a slot two bits narrower at these n
        p = 2**64 - 59
        for dependent, rank in ((False, n), (True, n - 1)):
            m = full_updates_matrix(n, p, dependent)
            assert rank_by_row_lists(m, p) == rank
            assert rank_mod_p(m, p) == rank

    def test_duplicate_pairs_survive_powers(self):
        rng = random.Random(3)
        for _ in range(50):
            base = sample_matrix(4, 4, 65537, rng, mode="rank_deficient")
            pairs = duplicate_row_pairs(base)
            assert pairs
            powed = mat_pow_mod(base, rng.randrange(1, 40), 65536)
            for i, j in pairs:
                assert powed.row(i) == powed.row(j)


class TestSampleMatrix:
    def test_unit_entries_range(self):
        rng = random.Random(5)
        m = sample_matrix(5, 3, 65537, rng, mode="unit_entries")
        assert all(1 <= e <= 65536 for e in m.entries)

    def test_rank_deficient_always_deficient(self):
        rng = random.Random(6)
        for _ in range(100):
            m = sample_matrix(5, 5, 65537, rng, mode="rank_deficient")
            assert rank_mod_p(m, 65537) <= 4

    def test_seeded_reproducibility(self):
        a = sample_matrix(2, 2, 7, random.Random(99), mode="unit_entries")
        b = sample_matrix(2, 2, 7, random.Random(99), mode="unit_entries")
        assert a == b

    def test_rank_deficient_needs_two_rows(self):
        with pytest.raises(ParameterError):
            sample_matrix(1, 4, 7, random.Random(0), mode="rank_deficient")

    @pytest.mark.parametrize("mode", ["bogus", "general"])
    def test_unknown_mode(self, mode):
        with pytest.raises(ParameterError, match=f"unknown sampling mode '{mode}'"):
            sample_matrix(2, 2, 7, random.Random(0), mode=mode)

    @pytest.mark.parametrize("low", [0, 1])
    @pytest.mark.parametrize("modulus", [2, 3, 65537, 2**64 - 59, 2**64 + 13])
    def test_draws_are_randranges(self, modulus, low):
        # the same values, and the same state left behind, as randrange
        for seed in range(4):
            fast, slow = random.Random(seed), random.Random(seed)
            drawn = core._draw(fast, 300, low, modulus)
            assert drawn == [slow.randrange(low, modulus) for _ in range(300)]
            assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("modulus", [3, 65537, 2**40 + 15])
    def test_sources_with_their_own_randrange_draw_through_it(self, modulus):
        # a subclass that overrides only random() rejection-samples from
        # random() in randrange, not from getrandbits
        class FloatSource(random.Random):
            def random(self):
                return super().random()

        fast, slow = FloatSource(5), FloatSource(5)
        drawn = core._draw(fast, 50, 1, modulus)
        assert drawn == [slow.randrange(1, modulus) for _ in range(50)]
        assert fast.getstate() == slow.getstate()
        assert drawn != core._draw(random.Random(5), 50, 1, modulus)
        fast, slow = FloatSource(6), FloatSource(6)
        m = sample_matrix(3, 3, modulus, fast, "unit_entries")
        assert list(m.entries) == [slow.randrange(1, modulus) for _ in range(9)]

    @pytest.mark.parametrize("modulus", [2, 3, 65537, 2**64 - 59])
    def test_modes_draw_as_randrange_did(self, modulus):
        # each mode's definition spelled with randrange, row by row
        def reference(rows, cols, rng, mode):
            drawn = [[rng.randrange(1, modulus) for _ in range(cols)]
                     for _ in range(rows - (mode == "rank_deficient"))]
            if mode == "rank_deficient":
                extra = list(drawn[rng.randrange(rows - 1)])
                drawn.insert(rng.randrange(rows), extra)
            return Matrix.from_rows(drawn, modulus)

        for mode in ("unit_entries", "rank_deficient"):
            for rows, cols in ((2, 1), (3, 5), (6, 6)):
                fast, slow = random.Random(rows * cols), random.Random(rows * cols)
                m = sample_matrix(rows, cols, modulus, fast, mode)
                assert m == reference(rows, cols, slow, mode), (mode, rows, cols)
                assert fast.getstate() == slow.getstate()

    def test_modulus_below_2_refused_before_drawing(self):
        rng = random.Random(0)
        state = rng.getstate()
        for mode in ("unit_entries", "rank_deficient"):
            with pytest.raises(ParameterError, match="modulus must be >= 2, got 1"):
                sample_matrix(2, 2, 1, rng, mode)
        assert rng.getstate() == state

    def test_entry_out_of_range_refused(self):
        for entries in ((0, -1), (6, 7)):
            with pytest.raises(ParameterError, match=r"matrix entry out of \[0, modulus\) range"):
                Matrix(1, 2, entries, 7)


def shifted_pack(row, width):
    # oracle: every entry shifted in, one at a time
    acc = 0
    for e in reversed(row):
        acc = acc << width | e
    return acc


class TestPack:
    @pytest.mark.parametrize("width", [8, 40, 136])
    @pytest.mark.parametrize("length", [1, core._JOIN_FROM - 1, core._JOIN_FROM, 100])
    def test_pack_equals_the_shift_loop(self, width, length):
        rng = random.Random(width * length)
        top = (1 << width) - 1
        row = [rng.choice((0, top, rng.randrange(top + 1))) for _ in range(length)]
        row[0], row[-1] = 0, top
        assert core._pack(row, width) == shifted_pack(row, width)
        assert core._pack([0] * length, width) == 0
        assert core._pack([top] * length, width) == (1 << width * length) - 1

    def test_slot_widths_are_whole_bytes(self):
        assert [core._slot_width(b) for b in (1, 8, 9, 130, 135, 136, 137)] == [
            8, 8, 16, 136, 136, 136, 144]


class TestCanonicalBytes:
    def test_zero(self):
        assert canonical_bytes([0]) == b"\x00" * 8

    def test_place_value(self):
        assert canonical_bytes([1, 256]) == b"\x00" * 7 + b"\x01" + b"\x00" * 6 + b"\x01\x00"

    def test_too_large(self):
        with pytest.raises(SerializationError):
            canonical_bytes([2**64])

    def test_negative(self):
        with pytest.raises(SerializationError):
            canonical_bytes([-1])

    def test_matches_word_by_word_encoding(self):
        rng = random.Random(8)
        values = [0, 1, 2**64 - 1] + [rng.getrandbits(64) for _ in range(200)]
        expected = b"".join(v.to_bytes(8, "big") for v in values)
        assert canonical_bytes(values) == expected
        assert canonical_bytes(tuple(values)) == expected
        assert canonical_bytes(iter(values)) == expected
        assert canonical_bytes([]) == b""

    def test_canonical_values_inverts_it(self):
        rng = random.Random(9)
        token = uniform_matrix(8, 8, 2**64 - 59, rng)
        for values in ([], [0], [2**64 - 1], list(token.entries)):
            assert core.canonical_values(canonical_bytes(values)) == tuple(values)

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_refusal_names_the_value(self, bad):
        for values in ([5, bad, 7], iter([bad])):
            with pytest.raises(SerializationError, match=f"value {bad} does not fit in 8 bytes"):
                canonical_bytes(values)

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
    )
    def test_injective_on_fixed_length(self, a, b):
        if len(a) == len(b) and a != b:
            assert canonical_bytes(a) != canonical_bytes(b)
        if a == b:
            assert canonical_bytes(a) == canonical_bytes(b)
