import random
import sys

import pytest

from mpfkap import (
    FieldParams,
    Matrix,
    ParameterError,
    ProtocolError,
    RdmpfSession,
    RdmpfSetup,
    generate_setup,
    mat_mul_mod,
    mat_pow_mod,
    mpf_double,
    parse_token_list,
    rank_mod_p,
    round_key,
    round_keygen,
    sample_matrix,
    session_digest,
)
from mpfkap import core
from mpfkap import known_answers as ka
from mpfkap import rdmpf as rdmpf_module
from mpfkap.rdmpf import rdmpf
from mpfkap.rmpf import double_action
from mpfkap.wire import generate_paramset


def oracle_rdmpf(xe, w, ye, p, sigma):
    """Independent route: builtin pow, exponents never reduced mod p-1.

    Exponents live mod p-1, so a zero base raised to a multiple of p-1
    is 0**0 = 1.
    """
    dim = w.rows
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = 1
            for k in range(dim):
                for l in range(dim):
                    e = sigma * xe.at(i, k) * ye.at(l, j)
                    base = w.at(k, l)
                    term = pow(base, e, p) if base else int(e % (p - 1) == 0)
                    acc = acc * term % p
            row.append(acc)
        out.append(row)
    return out


def rand_exponents(dim, em, rng):
    return Matrix.from_rows([[rng.randrange(em) for _ in range(dim)] for _ in range(dim)], em)


# W full-rank over Z_7 but with one zero entry; both bases have a repeated
# row.  Exponent pair (1, 1) would give a token with a zero entry.
ZERO_W = [[1, 4], [4, 0]]
ZERO_BASE_XU = [[6, 5], [6, 5]]
ZERO_BASE_YV = [[1, 5], [1, 5]]


def zero_entry_setup():
    return RdmpfSetup(
        FieldParams(7),
        Matrix.from_rows(ZERO_W, 7),
        Matrix.from_rows(ZERO_BASE_XU, 7),
        Matrix.from_rows(ZERO_BASE_YV, 7),
        exp_max=12,
        rounds=1,
    )


def test_package_attribute_is_the_submodule():
    import mpfkap.rdmpf as m

    assert m is sys.modules["mpfkap.rdmpf"]


class TestRdmpfFunction:
    def test_known_tokens_round_one(self):
        setup = ka.rdmpf_setup()
        em = 65536
        r1 = ka.RDMPF_ROUND_1
        x = Matrix.from_rows(r1.x, em)
        y = Matrix.from_rows(r1.y, em)
        u = Matrix.from_rows(r1.u, em)
        v = Matrix.from_rows(r1.v, em)
        assert rdmpf(x, setup.w, y, ka.P).to_rows() == r1.token_a
        assert rdmpf(u, setup.w, v, ka.P).to_rows() == r1.token_b

    def test_sigma_zero_gives_ones(self):
        rng = random.Random(30)
        w = sample_matrix(3, 3, 7, rng, mode="unit_entries")
        x = rand_exponents(3, 6, rng)
        y = rand_exponents(3, 6, rng)
        assert rdmpf(x, w, y, 7, sigma=0).to_rows() == [[1] * 3] * 3

    def test_dimension_mismatch(self):
        w = Matrix.identity(3, 7)
        x = rand_exponents(2, 6, random.Random(0))
        with pytest.raises(ParameterError):
            rdmpf(x, w, x, 7)

    def test_symbolic_expansion_via_oracle(self):
        # the exponent of w[k][l] in Q[i][j] is sigma*x[i][k]*y[l][j]; the
        # inputs cover 1x1, zero entries in w, sigma >= p-1 and p near 2^64
        rng = random.Random(31)
        for p in (7, 65537, 2**64 - 59):
            for _ in range(100 if p == 7 else 15):
                dim = rng.choice((1, 2, 3))
                flat = [rng.randrange(p) for _ in range(dim * dim)]
                flat[rng.randrange(len(flat))] = 0
                w = Matrix(dim, dim, tuple(flat), p)
                x = rand_exponents(dim, p - 1, rng)
                y = rand_exponents(dim, p - 1, rng)
                sigma = rng.randrange(3 * p)
                assert rdmpf(x, w, y, p, sigma).to_rows() == oracle_rdmpf(x, w, y, p, sigma)

    def test_sigma_one_is_plain(self):
        rng = random.Random(32)
        w = sample_matrix(3, 3, 65537, rng, mode="unit_entries")
        x = rand_exponents(3, 65536, rng)
        y = rand_exponents(3, 65536, rng)
        assert rdmpf(x, w, y, 65537) == rdmpf(x, w, y, 65537, sigma=1)


class TestSetupValidation:
    def test_full_rank_nucleus_required(self):
        params = FieldParams(7)
        rank1 = Matrix.from_rows([[1, 2], [2, 4]], 7)
        base = Matrix.from_rows([[1, 2], [1, 2]], 7)
        with pytest.raises(ParameterError):
            RdmpfSetup(params, rank1, base, base, 10, 1)

    def test_rank_deficient_bases_required(self):
        params = FieldParams(7)
        w = Matrix.from_rows([[1, 2], [3, 4]], 7)
        full = Matrix.from_rows([[1, 2], [3, 4]], 7)
        base = Matrix.from_rows([[1, 2], [1, 2]], 7)
        with pytest.raises(ParameterError):
            RdmpfSetup(params, w, full, base, 10, 1)
        with pytest.raises(ParameterError):
            RdmpfSetup(params, w, base, full, 10, 1)

    def test_distinct_rows_still_eliminated(self):
        # row 3 = row 1 + row 2 mod p: no two rows equal, yet rank 2 < 3
        p = 65537
        params = FieldParams(p)
        w = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]], p)
        base = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [5, 7, 9]], p)
        full = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [5, 7, 10]], p)
        rank_mod_p.cache_clear()
        setup = RdmpfSetup(params, w, base, base, 10, 1)
        assert setup.base_xu == base
        assert rank_mod_p.cache_info().misses == 2  # w, then the base
        with pytest.raises(ParameterError, match="base_yv must be rank-deficient"):
            RdmpfSetup(params, w, base, full, 10, 1)

    def test_equal_rows_prove_rank_deficiency(self):
        # a sampled base repeats a row, so the setup eliminates only w,
        # once: the sampler's check and the validation share the answer
        rank_mod_p.cache_clear()
        ps, setup = generate_paramset(
            "rdmpf", 2**64 - 59, random.Random(5), dim=5, rounds=1, exp_max=100)
        info = rank_mod_p.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert rank_mod_p(setup.w, 2**64 - 59) == 5
        for base in (setup.base_xu, setup.base_yv):
            assert len(set(map(tuple, base.to_rows()))) < 5
            assert rank_mod_p(base, 2**64 - 59) < 5

    def test_rounds_and_exp_max_floors(self):
        params = FieldParams(7)
        w = Matrix.from_rows([[1, 2], [3, 4]], 7)
        base = Matrix.from_rows([[1, 2], [1, 2]], 7)
        with pytest.raises(ParameterError):
            RdmpfSetup(params, w, base, base, 1, 1)
        with pytest.raises(ParameterError):
            RdmpfSetup(params, w, base, base, 10, 0)

    def test_generate_setup_structure(self):
        rng = random.Random(33)
        setup = generate_setup(4, 65537, 500, 2, rng)
        assert rank_mod_p(setup.w, 65537) == 4
        assert rank_mod_p(setup.base_xu, 65537) < 4
        assert rank_mod_p(setup.base_yv, 65537) < 4

    @pytest.mark.parametrize("dim", (2, 3, 5))
    @pytest.mark.parametrize("sigma", (1, 5))
    def test_library_sampler_is_the_cli_sampler(self, dim, sigma):
        for seed in range(4):
            got = generate_setup(dim, 65537, 500, 2, random.Random(seed), sigma=sigma)
            _, want = generate_paramset("rdmpf", 65537, random.Random(seed), dim=dim,
                                        exp_max=500, rounds=2, sigma=sigma)
            assert got == want

    def test_unframeable_sigma_refused_before_any_draw(self):
        rng = random.Random(8)
        state = rng.getstate()
        with pytest.raises(ParameterError, match=f"sigma={2**64} does not fit"):
            generate_setup(3, 65537, 500, 1, rng, sigma=2**64)
        assert rng.getstate() == state

    @pytest.mark.parametrize("sigma", (0, 65536, 3 * 65536))
    def test_sigma_multiple_of_p_minus_1_refused(self, sigma):
        # every exponent would be 0 mod p-1, so every token and every
        # session key would be all ones
        plain = generate_setup(3, 65537, 500, 1, random.Random(9))
        refused = f"sigma={sigma} is a multiple of p-1=65536"
        with pytest.raises(ParameterError, match=refused):
            RdmpfSetup(plain.params, plain.w, plain.base_xu, plain.base_yv, 500, 1, sigma)
        with pytest.raises(ParameterError, match=refused):
            generate_setup(3, 65537, 500, 1, random.Random(9), sigma=sigma)

    def test_floor_warnings(self):
        # the field decides, whatever the dimension: dim 2 and dim 3 read alike
        warnings = ka.rdmpf_setup().params.floor_warnings()
        assert any("2^64" in w for w in warnings)
        assert any("dimension adds no security" in w for w in warnings)
        assert not any("order of 100" in w or "scalar multiple" in w for w in warnings)
        small = generate_setup(2, 65537, 100, 1, random.Random(2))
        assert small.params.floor_warnings() == warnings
        assert not hasattr(small, "floor_warnings")

    @pytest.mark.parametrize("p, safe", [(65537, False), (2**64 - 59, False), (1019, True)])
    def test_pohlig_hellman_warning(self, p, safe):
        warnings = generate_setup(3, p, 100, 1, random.Random(3)).params.floor_warnings()
        hits = [w for w in warnings if "Pohlig-Hellman" in w]
        assert len(hits) == (0 if safe else 1)
        if not safe:
            assert f"(p-1)/2 = {(p - 1) // 2} is not prime" in hits[0]


def shift_matrix(n, modulus, fill=lambda i, j: 0):
    """Ones just above the diagonal, fill(i, j) elsewhere.  With fill even on and
    below the diagonal, J**(n-1) != 0 == J**n mod 2."""
    return Matrix.from_rows(
        [[1 if j == i + 1 else fill(i, j) for j in range(n)] for i in range(n)], modulus)


def nilpotent_by_power(m):
    return mat_pow_mod(m, m.rows, 2) == Matrix.zeros(m.rows, m.rows, 2)


def degenerate_by_powers(m, em):
    """_degenerate's answer from the two oracles, each by full matrix powers."""
    return nilpotent_by_power(m) or separate_probes(m, em)


class TestNilpotentMod2:
    @pytest.mark.parametrize("n", [*range(1, 10), 16, 17, 100])
    def test_shift_matrix_has_index_n(self, n):
        # J**(n-1) != 0 == J**n mod 2: a walk one step short misses it
        shift = shift_matrix(n, 65537)
        if n > 1:
            assert mat_pow_mod(shift, n - 1, 2) != Matrix.zeros(n, n, 2)
        assert nilpotent_by_power(shift)
        assert rdmpf_module._degenerate(shift, 65536)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17])
    def test_even_on_and_below_the_diagonal(self, n):
        rng = random.Random(n)
        p = 2**64 - 59
        upper = shift_matrix(n, p, lambda i, j: rng.randrange(1, 2**63) * (2 if j <= i else 1))
        assert nilpotent_by_power(upper)
        assert rdmpf_module._degenerate(upper, p - 1)
        # one odd diagonal entry: trace 1 mod 2, so not nilpotent
        odd = Matrix.from_rows(
            [[3 if (i, j) == (n - 1, n - 1) else e for j, e in enumerate(row)]
             for i, row in enumerate(upper.to_rows())], p)
        assert not nilpotent_by_power(odd)
        assert rdmpf_module._degenerate(odd, p - 1) == separate_probes(odd, p - 1)

    def test_all_even(self):
        rng = random.Random(43)
        m = Matrix.from_rows([[2 * rng.randrange(1, 30000) for _ in range(7)] for _ in range(7)],
                             65537)
        assert nilpotent_by_power(m)
        assert rdmpf_module._degenerate(m, 65536)

    def test_matches_the_matrix_power(self):
        # small dims, where about half of the candidates are nilpotent mod 2
        rng = random.Random(44)
        nilpotent = []
        for p in (5, 7, 65537, 2**64 - 59):
            for _ in range(50):
                dim = rng.randrange(2, 7)
                cand = sample_matrix(dim, dim, p, rng, mode="rank_deficient")
                assert rdmpf_module._degenerate(cand, p - 1) == degenerate_by_powers(cand, p - 1)
                nilpotent.append(nilpotent_by_power(cand))
        assert 0 < sum(nilpotent) < len(nilpotent)

    def test_powers_of_a_base_even_mod_2_at_the_floor_prime(self):
        # p-1 = 4·q: an all-even base's high powers are 0 mod 4, never 0 mod p-1
        p = 2**64 - 59
        rng = random.Random(46)
        m = Matrix.from_rows([[2 * rng.randrange(1, 2**62) for _ in range(4)] for _ in range(4)], p)
        for k in (8, 40, 9999):
            power = mat_pow_mod(m, k, p - 1)
            assert any(power.entries)
            assert all(e % 4 == 0 for e in power.entries)
        assert rdmpf_module._degenerate(m, p - 1)


def cycle_matrix(length, dim, modulus):
    """Permutation matrix of one length-cycle: M**k == M iff k = 1 mod length."""
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][(i + 1) % length if i < length else i] = 1
    return Matrix.from_rows(rows, modulus)


def separate_probes(cand, em):
    # the decision as five independent matrix powers
    reduced = Matrix.from_rows(cand.to_rows(), em)
    return any(mat_pow_mod(cand, k, em) == reduced for k in rdmpf_module._ORDER_PROBES)


class TestBaseProbe:
    def test_matches_separate_powers(self):
        # small primes reject about a third of the candidates, so both
        # decisions are compared
        rng = random.Random(36)
        decisions = []
        for p in (5, 7, 11, 13, 65537, 2**64 - 59):
            for _ in range(40):
                dim = rng.randrange(2, 6)
                cand = sample_matrix(dim, dim, p, rng, mode="rank_deficient")
                assert rdmpf_module._degenerate(cand, p - 1) == degenerate_by_powers(cand, p - 1)
                decisions.append(separate_probes(cand, p - 1))
        assert len(decisions) >= 200
        assert 0 < sum(decisions) < len(decisions)

    @pytest.mark.parametrize("length, first_probe", [(2, 3), (4, 5), (8, 9), (16, 17), (3, None)])
    def test_constructed_cycles(self, length, first_probe):
        # a 3-cycle returns at powers 4, 7, 10, ...: no probe catches it
        m = cycle_matrix(length, 17, 65537)
        reduced = Matrix.from_rows(m.to_rows(), 65536)
        hits = [k for k in rdmpf_module._ORDER_PROBES if mat_pow_mod(m, k, 65536) == reduced]
        assert hits[:1] == ([first_probe] if first_probe else [])
        assert not nilpotent_by_power(m)
        assert rdmpf_module._degenerate(m, 65536) == bool(first_probe)

    def test_idempotent_projection(self):
        # zero-free, duplicate rows, and P**2 = P mod 6
        m = Matrix.from_rows([[3, 4], [3, 4]], 7)
        assert mat_pow_mod(m, 2, 6) == Matrix.from_rows(m.to_rows(), 6)
        assert rdmpf_module._degenerate(m, 6)
        assert separate_probes(m, 6)

    @pytest.fixture
    def product_shapes(self, monkeypatch):
        # the column count of every right factor multiplied, in the one
        # product kernel that the exact checks' mat_pow_mod runs
        shapes = []
        kernel = core.mul_rows_mod

        def spy(a, b, modulus):
            shapes.append(len(b[0]))
            return kernel(a, b, modulus)

        monkeypatch.setattr(core, "mul_rows_mod", spy)
        return shapes

    @staticmethod
    def stochastic_matrix(dim, em, rng):
        # zero-free rows summing to 1 mod em: base**k·1 == 1 == base·1 for every k
        rows = []
        while len(rows) < dim:
            row = [rng.randrange(1, em) for _ in range(dim - 1)]
            last = (1 - sum(row)) % em
            if last:
                rows.append(row + [last])
        return Matrix.from_rows(rows, em + 1)

    def test_orbit_passes_and_the_powers_reject(self, product_shapes):
        # the orbit cannot refuse, so the exact check runs 4-wide products and refuses
        m = self.stochastic_matrix(4, 65536, random.Random(41))
        assert not separate_probes(m, 65536)
        assert not rdmpf_module._degenerate(m, 65536)
        assert product_shapes.count(4) >= 1

    def test_orbit_passes_and_the_powers_accept(self, product_shapes):
        # the idempotent projection's rows sum to 7 = 1 mod 6, so the orbit
        # cannot refuse and the exact check finds P**2 == P; its two equal
        # rows make a 1x1 core, which needs no matrix product at all
        m = Matrix.from_rows([[3, 4], [3, 4]], 7)
        assert rdmpf_module._degenerate(m, 6)
        assert product_shapes == []

    @staticmethod
    def floor_idempotent(dim, rng):
        # equal 64-bit rows summing to 1 mod p-1: P**2 == P
        p = 2**64 - 59
        while True:
            row = [rng.randrange(2**63, p) for _ in range(dim - 1)]
            last = (1 - sum(row)) % (p - 1)
            if last:
                return Matrix.from_rows([row + [last]] * dim, p)

    def test_idempotent_at_the_floor_prime(self):
        p = 2**64 - 59
        m = self.floor_idempotent(6, random.Random(45))
        assert mat_pow_mod(m, 2, p - 1) == Matrix.from_rows(m.to_rows(), p - 1)
        assert rdmpf_module._degenerate(m, p - 1)

    def test_idempotent_at_the_floor(self):
        # rows long enough that the product kernel packs them byte-wise
        p = 2**64 - 59
        for dim in (core._JOIN_FROM, 100):
            m = self.floor_idempotent(dim, random.Random(dim))
            assert mat_pow_mod(m, 2, p - 1) == Matrix.from_rows(m.to_rows(), p - 1)
            assert rdmpf_module._degenerate(m, p - 1)

    def test_orbit_refutes_without_a_product(self, product_shapes):
        rng = random.Random(42)
        for _ in range(5):
            cand = sample_matrix(24, 24, 2**64 - 59, rng, mode="rank_deficient")
            assert not rdmpf_module._degenerate(cand, 2**64 - 60)
        assert product_shapes == []

    def test_sampler_skips_short_cycles(self, monkeypatch):
        # a permutation is not nilpotent mod 2, so only the probe rejects it
        good = Matrix.from_rows([[1, 2, 3], [1, 2, 3], [4, 5, 6]], 65537)
        queue = [cycle_matrix(2, 3, 65537), good]
        monkeypatch.setattr(rdmpf_module, "sample_matrix", lambda *a, **k: queue.pop(0))
        assert not separate_probes(good, 65536)
        assert rdmpf_module.sample_rank_deficient_base(3, FieldParams(65537), None) == good
        assert queue == []


def conjugated_cycle(length, dim, em):
    """S·P·S^-1 mod em, P the length-cycle of cycle_matrix and S unit lower
    triangular with a first column of ones.  S^-1·1 = e_0, so its parity
    orbit walks S's columns with period length, where the permutation's own
    orbit stays all ones; B**k == B iff k = 1 mod length, as for P."""
    perm = cycle_matrix(length, dim, em + 1).to_rows()
    s = [[1 if j in (0, i) else 0 for j in range(dim)] for i in range(dim)]
    s_inv = [[1 if i == j else -1 if j == 0 else 0 for j in range(dim)] for i in range(dim)]

    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) % em for col in zip(*b)] for row in a]

    return Matrix.from_rows(mul(mul(s, perm), s_inv), em + 1)


def parity_walk(m, k):
    """m**k·1 mod 2 by the matrix power, one byte per row as _parity_orbit keeps it."""
    power = mat_pow_mod(m, k, 2) if k else Matrix.identity(m.rows, 2)
    return int.from_bytes(bytes(sum(power.row(i)) % 2 for i in range(m.rows)), "little")


def spy_on(monkeypatch, calls, name, refuse=False):
    """Append name to calls at each call of rdmpf's name; refuse raises instead."""
    real = getattr(rdmpf_module, name)

    def spy(*args, **kwargs):
        if refuse:
            raise AssertionError(f"{name} ran")
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(rdmpf_module, name, spy)


class TestParityOrbit:
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 17, 24])
    def test_orbit_is_the_power_times_ones(self, n):
        rng = random.Random(60 + n)
        for m in (sample_matrix(n, n, 2**64 - 59, rng, mode="rank_deficient"),
                  shift_matrix(n, 65537), conjugated_cycle(min(n, 4), n, 65536)):
            assert rdmpf_module._parity_orbit(m, 20) == [parity_walk(m, k) for k in range(21)]

    @pytest.fixture
    def exact_checks(self, monkeypatch):
        # the modulus of each mat_pow_mod that _degenerate ran, in call
        # order: 2 for nilpotency, p-1 for the probes
        moduli = []
        power = rdmpf_module.mat_pow_mod

        def spy(m, exps, modulus):
            moduli.append(modulus)
            return power(m, exps, modulus)

        monkeypatch.setattr(rdmpf_module, "mat_pow_mod", spy)
        return moduli

    def test_decisions_match_the_matrix_powers(self):
        rng = random.Random(61)
        decisions = set()
        for p in (5, 7, 65537, 2**64 - 59):
            for dim in range(2, 25):
                for _ in range(2):
                    cand = sample_matrix(dim, dim, p, rng, mode="rank_deficient")
                    expected = degenerate_by_powers(cand, p - 1)
                    assert rdmpf_module._degenerate(cand, p - 1) == expected
                    decisions.add(expected)
        assert decisions == {False, True}

    def test_floor_candidates_are_decided_by_the_orbit_alone(self, monkeypatch):
        p = 2**64 - 59
        rng = random.Random(62)
        for _ in range(3):
            cand = sample_matrix(100, 100, p, rng, mode="rank_deficient")
            assert not nilpotent_by_power(cand)
            assert not separate_probes(cand, p - 1)
            calls = []
            spy_on(monkeypatch, calls, "_parity_orbit")
            spy_on(monkeypatch, calls, "mat_pow_mod", refuse=True)
            assert not rdmpf_module._degenerate(cand, p - 1)
            assert calls == ["_parity_orbit"]
            monkeypatch.undo()

    def test_recorded_floor_candidates_walk_one_orbit_each(self, monkeypatch):
        # the setup-floor benchmark's setups, seeds 1-8, sampled as
        # `mpfkap setup --seed` samples them: every base candidate walks
        # one orbit, and no exact check runs
        calls = []
        spy_on(monkeypatch, calls, "sample_matrix")
        spy_on(monkeypatch, calls, "_parity_orbit")
        spy_on(monkeypatch, calls, "mat_pow_mod", refuse=True)
        for seed in range(1, 9):
            generate_paramset("rdmpf", 2**64 - 59, random.Random(seed), dim=100,
                              exp_max=10**4, rounds=1)
        assert len(calls) >= 32
        assert calls == ["sample_matrix", "_parity_orbit"] * (len(calls) // 2)

    @pytest.mark.parametrize("n", [2, 7, 12, 24])
    def test_even_row_sums_reach_both_exact_checks(self, n, exact_checks):
        # B·1 = 0 mod 2, so the orbit is zero from step 1 on and refutes
        # neither; one odd diagonal entry makes the trace odd, so B is
        # still not nilpotent
        rng = random.Random(63 + n)
        rows = [[2 * rng.randrange(1, 2**62) for _ in range(n)] for _ in range(n)]
        rows[0][0] += 1
        for i, row in enumerate(rows):
            row[(i + 1) % n] += sum(row) % 2
        p = 2**64 - 59
        m = Matrix.from_rows(rows, p)
        assert rdmpf_module._parity_orbit(m, n)[1:] == [0] * n
        assert not nilpotent_by_power(m)
        assert rdmpf_module._degenerate(m, p - 1) == separate_probes(m, p - 1)
        assert exact_checks[:2] == [2, p - 1]

    @pytest.mark.parametrize("n", [7, 12, 24])
    def test_nilpotent_reaches_the_mod_2_check(self, n, exact_checks):
        shift = shift_matrix(n, 65537)
        assert rdmpf_module._degenerate(shift, 65536)
        assert exact_checks == [2]

    @pytest.mark.parametrize("n", [7, 12, 24])
    def test_rows_summing_to_one_reach_the_probe_check(self, n, exact_checks):
        # B·1 = 1, so every probe's image is 1 mod 2 and the orbit cannot
        # refuse; the exact check finds no short cycle
        m = TestBaseProbe.stochastic_matrix(n, 65536, random.Random(64 + n))
        orbit = rdmpf_module._parity_orbit(m, 17)
        assert len(set(orbit)) == 1
        assert not degenerate_by_powers(m, 65536)
        assert not rdmpf_module._degenerate(m, 65536)
        assert exact_checks[-1:] == [65536]

    @pytest.mark.parametrize("length, first_probe", [(2, 3), (4, 5), (8, 9), (16, 17), (3, None)])
    @pytest.mark.parametrize("dim", [17, 24])
    def test_real_short_cycles(self, length, first_probe, dim, exact_checks):
        # the orbit differs from step 1 at every probe before first_probe,
        # so only that probe sends it on; a 3-cycle is refused by the orbit
        m = conjugated_cycle(length, dim, 65536)
        orbit = rdmpf_module._parity_orbit(m, 18)
        assert [k for k in rdmpf_module._ORDER_PROBES if orbit[k] == orbit[1]][:1] == \
            ([first_probe] if first_probe else [])
        assert len(set(orbit)) == length
        assert not nilpotent_by_power(m)
        assert separate_probes(m, 65536) == bool(first_probe)
        assert rdmpf_module._degenerate(m, 65536) == bool(first_probe)
        assert exact_checks == ([65536] if first_probe else [])


def drawn_round(setup, rng):
    """One round from rng, rand_l then rand_r, as a session draws them."""
    top = setup.exp_max
    return round_keygen(setup, [(rng.randint(1, top), rng.randint(1, top))])[0]


class TestRoundOperations:
    def test_injected_round_one(self):
        setup = ka.rdmpf_setup()
        r1 = ka.RDMPF_ROUND_1
        priv, token = round_keygen(setup, [(r1.rand_x, r1.rand_y)])[0]
        assert priv.l.to_rows() == r1.x
        assert priv.r.to_rows() == r1.y
        assert token.to_rows() == r1.token_a

    def test_injected_round_two(self):
        setup = ka.rdmpf_setup()
        r2 = ka.RDMPF_ROUND_2
        _, token = round_keygen(setup, [(r2.rand_x, r2.rand_y)])[0]
        assert token.to_rows() == r2.token_a

    def test_round_key_agreement_known(self):
        setup = ka.rdmpf_setup()
        r1 = ka.RDMPF_ROUND_1
        priv_a, token_a = round_keygen(setup, [(r1.rand_x, r1.rand_y)])[0]
        priv_b, token_b = round_keygen(setup, [(r1.rand_u, r1.rand_v)])[0]
        assert round_key(priv_a, token_b, setup).to_rows() == r1.key
        assert round_key(priv_b, token_a, setup).to_rows() == r1.key

    def test_zero_entry_token_rejected(self):
        setup = ka.rdmpf_setup()
        r1 = ka.RDMPF_ROUND_1
        priv, _ = round_keygen(setup, [(r1.rand_x, r1.rand_y)])[0]
        rows = [r[:] for r in r1.token_b]
        rows[2][2] = 0
        with pytest.raises(ProtocolError, match="zero"):
            round_key(priv, Matrix.from_rows(rows, ka.P), setup)

    def test_restart_cap_degenerate(self):
        # at realistic p a zero in w puts a zero in every token, so the
        # setup is refused before any round runs
        with pytest.raises(ParameterError, match="w must"):
            zero_entry_setup()

    def test_rounds_match_oracle(self):
        # token and key run the factored kernel with sigma folded into xe;
        # sigma >= p-1 must wrap exactly as in the direct form
        rng = random.Random(35)
        for p in (65537, 2**64 - 59):
            for dim in (2, 3, 4):
                sigma = rng.randrange(p - 1, 3 * p)
                plain = generate_setup(dim, p, 1000, 1, rng)
                setup = RdmpfSetup(
                    plain.params, plain.w, plain.base_xu, plain.base_yv, 1000, 1, sigma
                )
                priv_a, token_a = drawn_round(setup, rng)
                priv_b, token_b = drawn_round(setup, rng)
                assert token_a.to_rows() == oracle_rdmpf(priv_a.l, setup.w, priv_a.r, p, sigma)
                key = round_key(priv_a, token_b, setup)
                assert key.to_rows() == oracle_rdmpf(priv_a.l, token_b, priv_a.r, p, sigma)
                assert key == round_key(priv_b, token_a, setup)

    def test_private_commutation(self):
        # powers of a shared base commute mod p-1; this is what makes
        # the round keys agree
        rng = random.Random(34)
        for _ in range(50):
            setup = generate_setup(3, 65537, 200, 1, rng)
            em = 65536
            la = mat_pow_mod(setup.base_xu, rng.randint(1, 200), em)
            lb = mat_pow_mod(setup.base_xu, rng.randint(1, 200), em)
            assert mat_mul_mod(la, lb, em) == mat_mul_mod(lb, la, em)


def equal_row_pairs(m):
    rows = m.to_rows()
    n = len(rows)
    return {(i, j) for i in range(n) for j in range(i + 1, n) if rows[i] == rows[j]}


class TestBaseStructure:
    """What a base with a duplicated row passes on to every token and key."""

    @pytest.mark.parametrize("sigma", (1, 3))
    @pytest.mark.parametrize("p", (65537, 2**64 - 59))
    def test_dim2_tokens_are_entrywise_powers_of_one_public_matrix(self, p, sigma):
        # a dim-2 base [[a, b], [a, b]] has the 1x1 merged core s = a+b mod
        # p-1, and base**k = s**(k-1) * base, so every round token is
        # T0 ** (sigma * s_x**(l-1) * s_y**(r-1)) entry-wise for the public
        # T0 = double_action(base_xu, w, base_yv): one discrete log mod p per round
        em = p - 1
        for seed in range(4):
            rng = random.Random(seed)
            setup = generate_setup(2, p, 2**62, 3, rng, sigma=sigma)
            (a, b), second = setup.base_xu.to_rows()
            (c, d), fourth = setup.base_yv.to_rows()
            assert second == [a, b] and fourth == [c, d]
            s_x, s_y = (a + b) % em, (c + d) % em
            t0 = double_action(setup.base_xu, setup.w, setup.base_yv, p)
            top = setup.exp_max
            pairs = [(1, 1), (rng.randint(1, top), 1), (rng.randint(1, top), rng.randint(1, top))]
            for (rand_l, rand_r), token in zip(pairs, RdmpfSession(setup, injected=pairs).tokens):
                e = sigma * pow(s_x, rand_l - 1, em) * pow(s_y, rand_r - 1, em) % em
                assert token.entries == tuple(pow(v, e, p) for v in t0.entries)

    @pytest.mark.parametrize("dim", (3, 8))
    def test_tokens_and_keys_repeat_the_base_row(self, dim):
        setup = generate_setup(dim, 2**64 - 59, 10**4, 2, random.Random(dim))
        duplicated = equal_row_pairs(setup.base_xu)
        assert len(duplicated) == 1
        alice = RdmpfSession(setup, random.Random(1))
        bob = RdmpfSession(setup, random.Random(2))
        for m in alice.tokens + tuple(alice.round_keys(bob.tokens)):
            assert equal_row_pairs(m) == duplicated


def kernel_round(setup, rand_l, rand_r):
    """The general path: each base raised on its own, the token by the kernel."""
    em = setup.params.exp_modulus
    priv = rdmpf_module.RdmpfRoundPrivate(
        rand_l, rand_r, mat_pow_mod(setup.base_xu, rand_l, em),
        mat_pow_mod(setup.base_yv, rand_r, em))
    return priv, rdmpf_module._round_action(priv, setup.w, setup)


@pytest.fixture
def spies(monkeypatch):
    """Counts of rdmpf's double actions and of scalar table walks."""
    counts = {"actions": 0, "walks": 0}
    action, walk = rdmpf_module.double_action, core._table_walk

    def spy_action(*args):
        counts["actions"] += 1
        return action(*args)

    def spy_walk(base, *args):
        counts["walks"] += isinstance(base, int)
        return walk(base, *args)

    monkeypatch.setattr(rdmpf_module, "double_action", spy_action)
    monkeypatch.setattr(core, "_table_walk", spy_walk)
    return counts


class TestOneRowRounds:
    """Bases with one distinct row run their rounds from scalars: tokens
    from w's row products by scalar_powers, keys from the peer token's
    row products by builtin pow.
    Every case equals the kernel's general path and the direct formula."""

    EXP_MAX = 10**18

    def edge_pairs(self, rounds, rng):
        # exponents 1, 2, exp_max and 2^63 on both sides, the rest drawn
        edges = [1, 2, self.EXP_MAX, 2**63]
        if rounds == 1:
            return [[(a, b)] for a in edges for b in edges]
        if rounds == 2:
            return [[(a, b), (b, a)] for a in edges for b in edges]
        pairs = [(a, b) for a in edges for b in edges]
        pairs += [(rng.randint(1, self.EXP_MAX), rng.randint(1, self.EXP_MAX))
                  for _ in range(rounds - len(pairs))]
        return [pairs]

    @pytest.mark.parametrize("rounds", (1, 2, 128))
    @pytest.mark.parametrize("sigma", (1, 3))
    @pytest.mark.parametrize("p", (65537, 2**64 - 59))
    def test_rounds_match_the_kernel_and_the_direct_formula(self, p, sigma, rounds, spies):
        rng = random.Random(f"{p}/{sigma}/{rounds}")
        setup = generate_setup(2, p, self.EXP_MAX, rounds, rng, sigma=sigma)
        for pairs in self.edge_pairs(rounds, rng):
            peer_pairs = pairs[::-1]
            spies["actions"] = spies["walks"] = 0
            alice = RdmpfSession(setup, injected=pairs)
            bob = RdmpfSession(setup, injected=peer_pairs)
            keys = alice.round_keys(bob.tokens)
            assert spies["actions"] == 0
            assert spies["walks"] > 0
            assert bob.round_keys(alice.tokens) == keys
            for (priv, token), peer, key in zip(
                zip(alice.privates, alice.tokens), bob.tokens, keys
            ):
                assert (priv, token) == kernel_round(setup, priv.rand_l, priv.rand_r)
                assert token == rdmpf(priv.l, setup.w, priv.r, p, sigma)
                assert key == rdmpf_module._round_action(priv, peer, setup)
                assert key == rdmpf(priv.l, peer, priv.r, p, sigma)

    @pytest.mark.parametrize("p", (65537, 2**64 - 59))
    def test_a_zero_exponent_takes_the_kernel(self, p, spies):
        # base**0 is the identity, whose rows differ: every round of the
        # call runs the kernel, and keys against it too
        setup = generate_setup(2, p, self.EXP_MAX, 3, random.Random(p), sigma=3)
        for pairs in ([(0, 5), (1, 2), (2**63, 7)], [(5, 0), (0, 0), (9, 2**63)]):
            spies["actions"] = 0
            rounds = round_keygen(setup, pairs)
            assert spies["actions"] == len(pairs)
            assert rounds == [kernel_round(setup, *pair) for pair in pairs]
            peer = RdmpfSession(setup, injected=[(3, 4)] * 3).tokens[0]
            for priv, token in rounds:
                assert token == rdmpf(priv.l, setup.w, priv.r, p, 3)
                assert round_key(priv, peer, setup) == rdmpf(priv.l, peer, priv.r, p, 3)

    @pytest.mark.parametrize("p", (65537, 2**64 - 59))
    def test_a_peer_token_with_unequal_rows_gives_the_same_key(self, p, spies):
        # the one-row identity holds for any zero-free peer token
        rng = random.Random(p + 1)
        setup = generate_setup(2, p, self.EXP_MAX, 1, rng, sigma=3)
        ((priv, _),) = round_keygen(setup, [(2**63, 12345)])
        for _ in range(4):
            peer = sample_matrix(2, 2, p, rng, mode="unit_entries")
            assert peer.row(0) != peer.row(1)
            spies["actions"] = 0
            key = round_key(priv, peer, setup)
            assert spies["actions"] == 0
            assert key == rdmpf_module._round_action(priv, peer, setup)
            assert key == rdmpf(priv.l, peer, priv.r, p, 3)

    @pytest.mark.parametrize("rows", ([[0, 9], [0, 9]], [[9, 0], [9, 0]], [[0, 9], [9, 9]]))
    def test_a_peer_token_with_a_zero_entry_is_refused(self, rows):
        p = 2**64 - 59
        setup = generate_setup(2, p, self.EXP_MAX, 1, random.Random(2), sigma=3)
        ((priv, _),) = round_keygen(setup, [(2, 3)])
        with pytest.raises(ProtocolError, match="zero"):
            round_key(priv, Matrix.from_rows(rows, p), setup)


def known_parties():
    """Alice and bob of the two-round known-answer transcript."""
    setup = ka.rdmpf_setup()
    alice = RdmpfSession(setup, injected=[(v.rand_x, v.rand_y) for v in ka.RDMPF_ROUND_VECTORS])
    bob = RdmpfSession(setup, injected=[(v.rand_u, v.rand_v) for v in ka.RDMPF_ROUND_VECTORS])
    return alice, bob


class TestSession:
    def test_known_transcript_ends(self):
        alice, bob = known_parties()
        keys_a, keys_b = alice.round_keys(bob.tokens), bob.round_keys(alice.tokens)
        assert session_digest(keys_a) == session_digest(keys_b)
        tokens_a, tokens_b = core.matrix_values(alice.tokens), core.matrix_values(bob.tokens)
        key_list_a, key_list_b = core.matrix_values(keys_a), core.matrix_values(keys_b)
        assert (tokens_a[0], tokens_a[-1]) == ka.TOKEN_LIST_A_ENDS
        assert (tokens_b[0], tokens_b[-1]) == ka.TOKEN_LIST_B_ENDS
        assert (key_list_a[0], key_list_a[-1]) == ka.KEY_LIST_ENDS
        assert key_list_a == key_list_b
        assert len(tokens_a) == ka.COMBINED_LIST_LEN

    def test_pinned_digest(self):
        alice, bob = known_parties()
        key = alice.derive(bob.tokens)
        assert type(key) is bytes and len(key) == 64
        assert key.hex() == ka.PINNED_SESSION_DIGEST_HEX

    def test_a_session_is_its_rounds(self):
        # the session is a value: equal draws give equal sessions, and
        # deriving leaves it as it was
        setup = generate_setup(3, 65537, 1000, 2, random.Random(10))
        alice, again = RdmpfSession(setup, random.Random(1)), RdmpfSession(setup, random.Random(1))
        assert alice == again and hash(alice) == hash(again)
        bob = RdmpfSession(setup, random.Random(2))
        assert alice.derive(bob.tokens) == alice.derive(bob.tokens)
        assert alice == again
        pairs = [(priv.rand_l, priv.rand_r) for priv in alice.privates]
        assert RdmpfSession(setup, injected=pairs) == alice

    @pytest.mark.parametrize("dim, rounds", [(2, 1), (2, 128), (8, 1), (8, 128)])
    def test_batched_rounds_match_per_round_oracle(self, dim, rounds):
        # a session raises each base once for all rounds; round_keygen
        # with one pair at a time, from the same draws, is the oracle
        p = 2**64 - 59 if dim == 2 else 65537
        setup = generate_setup(dim, p, 2**63, rounds, random.Random(dim * 1000 + rounds))
        session = RdmpfSession(setup, random.Random(7))
        draws = random.Random(7)
        oracle = [drawn_round(setup, draws) for _ in range(rounds)]
        assert session.privates == tuple(priv for priv, _ in oracle)
        assert session.tokens == tuple(token for _, token in oracle)
        peer_tokens = session.tokens[::-1]  # any zero-free tokens of the setup will do
        keys = [round_key(priv, tok, setup) for (priv, _), tok in zip(oracle, peer_tokens)]
        assert session.round_keys(peer_tokens) == keys
        assert session.derive(peer_tokens) == session_digest(keys)

    def test_rounds_raise_each_base_once_through_module_names(self, monkeypatch):
        # a session reaches its powers as rdmpf.round_keygen, then one
        # rdmpf.mat_pow_mod per base over every round's exponents, and its
        # keys as rdmpf.round_key and rdmpf.session_digest; the per-layer
        # timings in perfbench wrap exactly these names
        setup = generate_setup(3, 65537, 1000, 3, random.Random(8))
        calls = []
        keygen, power = rdmpf_module.round_keygen, rdmpf_module.mat_pow_mod
        key, digest = rdmpf_module.round_key, rdmpf_module.session_digest

        def spy_keygen(setup, pairs):
            calls.append(("round_keygen", len(pairs)))
            return keygen(setup, pairs)

        def spy_power(m, exps, modulus):
            calls.append(("mat_pow_mod", list(exps)))
            return power(m, exps, modulus)

        def spy_key(priv, token, setup):
            calls.append(("round_key", priv.rand_l))
            return key(priv, token, setup)

        def spy_digest(keys):
            calls.append(("session_digest", len(keys)))
            return digest(keys)

        monkeypatch.setattr(rdmpf_module, "round_keygen", spy_keygen)
        monkeypatch.setattr(rdmpf_module, "mat_pow_mod", spy_power)
        monkeypatch.setattr(rdmpf_module, "round_key", spy_key)
        monkeypatch.setattr(rdmpf_module, "session_digest", spy_digest)
        session = RdmpfSession(setup, injected=[(5, 6), (7, 8), (9, 10)])
        assert calls == [("round_keygen", 3), ("mat_pow_mod", [5, 7, 9]),
                         ("mat_pow_mod", [6, 8, 10])]
        calls.clear()
        session.derive(session.tokens)
        assert calls == [("round_key", 5), ("round_key", 7), ("round_key", 9),
                         ("session_digest", 3)]

    def test_injected_pairs_draw_nothing(self):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"an injected session drew rng.{name}")

        setup = ka.rdmpf_setup()
        pairs = [(v.rand_x, v.rand_y) for v in ka.RDMPF_ROUND_VECTORS]
        assert RdmpfSession(setup, NoDraws(), pairs) == RdmpfSession(setup, injected=pairs)

    def test_injected_count_checked_before_any_power(self, monkeypatch):
        setup = generate_setup(3, 65537, 1000, 3, random.Random(8))
        monkeypatch.setattr(rdmpf_module, "round_keygen", None)
        with pytest.raises(ParameterError, match="need 3 injected exponent pairs, got 2"):
            RdmpfSession(setup, injected=[(5, 6), (7, 8)])

    def test_seeded_loopback(self):
        rng = random.Random(35)
        setup = generate_setup(3, 65537, 1000, 3, rng)
        alice = RdmpfSession(setup, random.Random(1))
        bob = RdmpfSession(setup, random.Random(2))
        assert alice.derive(bob.tokens) == bob.derive(alice.tokens)

    def test_shared_sigma_agreement(self):
        rng = random.Random(36)
        plain = generate_setup(3, 65537, 500, 2, rng, sigma=1)
        shared = RdmpfSetup(
            plain.params, plain.w, plain.base_xu, plain.base_yv, 500, 2, sigma=4242
        )
        a = RdmpfSession(shared, random.Random(3))
        b = RdmpfSession(shared, random.Random(4))
        assert a.derive(b.tokens) == b.derive(a.tokens)

    def test_sigma_composition_is_symmetric(self):
        # each party's sigma scales its token once and its key derivation
        # once, so both keys carry the product sigma_a * sigma_b; even
        # per-party distinct sigmas leave the keys in agreement, which is
        # why sigma buys randomization of the map rather than binding
        rng = random.Random(36)
        plain = generate_setup(3, 65537, 500, 2, rng, sigma=1)
        sa = RdmpfSetup(plain.params, plain.w, plain.base_xu, plain.base_yv, 500, 2, sigma=4242)
        sb = RdmpfSetup(plain.params, plain.w, plain.base_xu, plain.base_yv, 500, 2, sigma=99)
        a = RdmpfSession(sa, random.Random(3))
        b = RdmpfSession(sb, random.Random(4))
        assert a.tokens != b.tokens
        assert a.derive(b.tokens) == b.derive(a.tokens)

    def test_sigma_changes_tokens(self):
        rng = random.Random(38)
        plain = generate_setup(3, 65537, 500, 1, rng, sigma=1)
        varied = RdmpfSetup(plain.params, plain.w, plain.base_xu, plain.base_yv, 500, 1, sigma=7)
        t_plain = RdmpfSession(plain, random.Random(9)).tokens
        t_varied = RdmpfSession(varied, random.Random(9)).tokens
        assert t_plain != t_varied

    def test_digest_reflects_key_list_changes(self):
        rng = random.Random(37)
        setup = generate_setup(3, 65537, 500, 2, rng)
        alice = RdmpfSession(setup, random.Random(5))
        bob = RdmpfSession(setup, random.Random(6))
        keys = alice.round_keys(bob.tokens)
        digest = session_digest(keys)
        assert alice.derive(bob.tokens) == digest
        flipped = [r[:] for r in keys[0].to_rows()]
        flipped[0][0] = (flipped[0][0] + 1) % 65537
        tampered = [Matrix.from_rows(flipped, 65537)] + keys[1:]
        assert session_digest(tampered) != digest

    def test_peer_list_length_checked(self):
        alice, _ = known_parties()
        with pytest.raises(ProtocolError, match="peer sent 1 round tokens, expected 2"):
            alice.derive(alice.tokens[:1])
        with pytest.raises(ProtocolError):
            alice.derive([Matrix.identity(4, ka.P)] * ka.RDMPF_ROUNDS)

    def test_parse_token_list_validates(self):
        with pytest.raises(ProtocolError):
            parse_token_list([1] * 9, dim=2, rounds=2, p=7)
        with pytest.raises(ProtocolError):
            parse_token_list([9] * 8, dim=2, rounds=2, p=7)
        mats = parse_token_list(list(range(1, 9)), dim=2, rounds=2, p=65537)
        assert len(mats) == 2 and mats[1].to_rows() == [[5, 6], [7, 8]]
