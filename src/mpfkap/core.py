"""Modular integer and matrix arithmetic over Z_p and Z_{p-1}.

Everything here works on unbounded-precision Python integers.  Value
matrices live in Z_p (p prime); exponent matrices live in Z_{p-1}, the
ring where Fermat reduction keeps powers of units consistent.  The
canonical byte encoding at the bottom is the single source of truth for
every hash, HMAC, and wire payload in the package.
"""

from __future__ import annotations

import random
import struct
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from .errors import ParameterError, SerializationError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

# Deterministic for n < 3.3e24; extra random rounds push the error
# probability below 2^-64 for larger candidates.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_RANDOM_ROUNDS = 40

_sysrand = random.SystemRandom()


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test with error probability below 2^-64."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    for a in _MR_BASES:
        if witness(a % n):
            return False
    if n.bit_length() > 82:
        for _ in range(_MR_RANDOM_ROUNDS):
            if witness(_sysrand.randrange(2, n - 1)):
                return False
    return True


_store = object.__setattr__  # the one way a record's field gets its value


class Record:
    """Base of the package's immutable records.

    A subclass names its fields in __slots__, in order, and its __init__
    checks the arguments and then stores them with _set.  Instances
    refuse assignment, compare and hash field-wise against their own
    class only, and repr as Class(field=value, ...): a frozen dataclass's
    behaviour without building one per class at import time.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()  # every field, the base classes' first

    def __init_subclass__(cls) -> None:
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _store(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setstate__(self, state: tuple) -> None:
        # pickle and copy hand back (None, {slot: value}) here
        for name, value in state[1].items():
            _store(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


class FieldParams(Record):
    """The prime p and the derived exponent modulus p-1."""

    __slots__ = ("p", "exp_modulus")

    def __init__(self, p: int):
        if p < 3 or not is_probable_prime(p):
            raise ParameterError(f"p must be an odd prime >= 3, got {p}")
        self._set(p, p - 1)

    def floor_warnings(self) -> list[str]:
        """Every setup's warnings: both protocols fall to discrete logs mod p, at any shape."""
        out = [f"p={self.p} is below the recommended 2^64 floor"] if self.p < 2**64 else []
        if not is_probable_prime(self.p // 2):
            out.append(f"(p-1)/2 = {self.p // 2} is not prime, so Pohlig-Hellman reduces "
                       "each discrete log mod p to the prime factors of p-1")
        out.append("an eavesdropper who can take discrete logarithms mod p recovers every key by "
                   "linear algebra, at any dimension and exp_max, so dimension adds no security")
        return out


class Matrix(Record):
    """Rectangular integer matrix with an attached modulus.

    Entries are stored row-major and must already be reduced into
    [0, modulus).  Instances are immutable and safe to share.
    """

    __slots__ = ("rows", "cols", "entries", "modulus")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...], modulus: int):
        if rows < 1 or cols < 1:
            raise ParameterError(f"bad dimensions {rows}x{cols}")
        if modulus < 2:
            raise ParameterError(f"modulus must be >= 2, got {modulus}")
        if len(entries) != rows * cols:
            raise ParameterError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        if min(entries) < 0 or max(entries) >= modulus:
            raise ParameterError("matrix entry out of [0, modulus) range")
        # spelled out rather than _set: every kernel result is a Matrix
        _store(self, "rows", rows)
        _store(self, "cols", cols)
        _store(self, "entries", entries)
        _store(self, "modulus", modulus)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], modulus: int) -> "Matrix":
        """Build a matrix from nested lists, reducing entries mod modulus."""
        if not rows or not rows[0]:
            raise ParameterError("matrix needs at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ParameterError("ragged rows")
        if modulus < 2:
            raise ParameterError(f"modulus must be >= 2, got {modulus}")
        flat = tuple(e % modulus for r in rows for e in r)
        return cls(len(rows), ncols, flat, modulus)

    @classmethod
    def identity(cls, n: int, modulus: int) -> "Matrix":
        flat = tuple(1 if i == j else 0 for i in range(n) for j in range(n))
        return cls(n, n, flat, modulus)

    @classmethod
    def zeros(cls, rows: int, cols: int, modulus: int) -> "Matrix":
        return cls(rows, cols, (0,) * (rows * cols), modulus)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def has_zero_entry(self) -> bool:
        return 0 in self.entries

    def __repr__(self) -> str:  # full entry dumps drown test output
        return f"Matrix({self.rows}x{self.cols} mod {self.modulus}, {list(self.entries)})"


def mat_scalar_mul_mod(s: int, m: Matrix, modulus: int) -> Matrix:
    """Entry-wise s * M reduced mod modulus."""
    flat = tuple(s * e % modulus for e in m.entries)
    return Matrix(m.rows, m.cols, flat, modulus)


# Row length from which _pack joins bytes: at the floor's 136-bit slots
# the shift loop was faster up to 25 entries and the join from 26 on.
_JOIN_FROM = 26


def _slot_width(bits: int) -> int:
    """bits rounded up to whole bytes, as _pack's join needs; a wider slot never carries."""
    return -(-bits // 8) * 8


def _pack(row: Sequence[int], width: int) -> int:
    """One integer holding row[k] in bits [k·width, (k+1)·width).

    width must be whole bytes, as _slot_width gives.  A row of _JOIN_FROM
    entries or more is one int.from_bytes over its entries' little-endian
    byte strings, linear in its length.  A shorter row shifts its entries
    in one by one, which copies the growing integer each time but costs
    less there.
    """
    if len(row) < _JOIN_FROM:
        acc = 0
        for e in reversed(row):
            acc = acc << width | e
        return acc
    size = width // 8
    return int.from_bytes(b"".join([e.to_bytes(size, "little") for e in row]), "little")


def mul_rows_mod(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], modulus: int
) -> list[list[int]]:
    """Rows of A·B mod modulus, for entries of A and B already in [0, modulus).

    The only matrix-product kernel.  Each row of B is packed into one
    integer with fixed-width slots, so row i of the product is a sum of
    len(b) scalar-times-packed-row products, unpacked slot by slot and
    reduced once.  A slot of 2·bitlen(modulus-1) + bitlen(len(b)) bits,
    rounded up to whole bytes, holds len(b)·(modulus-1)^2 without
    carrying into the next slot; an unreduced entry could overflow it
    silently.
    """
    width = _slot_width(2 * (modulus - 1).bit_length() + len(b).bit_length())
    mask = (1 << width) - 1
    packed = [_pack(row, width) for row in b]
    shifts = range(0, width * len(b[0]), width)
    return [
        [(s >> k & mask) % modulus for k in shifts]
        for s in (sum(map(mul, row, packed)) for row in a)
    ]


def _reduced_rows(m: Matrix, modulus: int) -> list[list[int]]:
    return [[e % modulus for e in m.row(i)] for i in range(m.rows)]


def _from_product_rows(rows: list[list[int]], modulus: int) -> Matrix:
    return Matrix(len(rows), len(rows[0]), tuple(e for r in rows for e in r), modulus)


def mat_mul_mod(a: Matrix, b: Matrix, modulus: int) -> Matrix:
    """Conventional matrix product with entries reduced mod modulus."""
    if a.cols != b.rows:
        raise ParameterError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    rows = mul_rows_mod(_reduced_rows(a, modulus), _reduced_rows(b, modulus), modulus)
    return _from_product_rows(rows, modulus)


def _window(exps: Sequence[int]) -> tuple[int, int, int]:
    """(products, c, positions) for the digit width c that needs the fewest products.

    The count is exact.  With P = ceil(bitlen(max)/c) positions, the
    tables cost 2^c - 2 products at position 0, 2^c - 1 at each middle
    position (one for the base, from the previous top entry) and the
    last position's largest digit D there; a single position costs
    D - 1.  Each exponent's nonzero digits after its first cost one
    product each.  Ties go to the smaller c.  Every c with 2^c - 1 above
    the best count costs more than it, so the search stops there.
    """
    top = max(exps)
    bits = top.bit_length()
    nonzero = sum(1 for e in exps if e)
    folded = [0] * len(exps)  # bit c·j set iff digit j of e is nonzero
    best: tuple[int, int, int] | None = None  # (products, c, positions)
    for c in range(1, bits + 1):
        full = (1 << c) - 1
        if best is not None and full > best[0]:
            break
        folded = [f | e >> (c - 1) for f, e in zip(folded, exps)]
        positions = -(-bits // c)
        last = top >> c * (positions - 1)
        table = last - 1 if positions == 1 else full - 1 + (positions - 2) * full + last
        digit_bits = ((1 << c * positions) - 1) // full  # bits 0, c, 2c, ...
        products = table + sum((f & digit_bits).bit_count() for f in folded) - nonzero
        if best is None or products < best[0]:
            best = (products, c, positions)
    return best


def mat_pow_mod(
    m: Matrix, e: int | Sequence[int], modulus: int
) -> Matrix | list[Matrix]:
    """M**e mod modulus; for a sequence of exponents, the list of M**e.

    The only matrix-power function; _merged_powers and _table_walk below
    do the work.  e = 0 gives the identity.
    """
    if isinstance(e, int):
        return mat_pow_mod(m, [e], modulus)[0]
    exps = e
    if not m.is_square:
        raise ParameterError(f"matrix power needs a square matrix, got {m.rows}x{m.cols}")
    if any(x < 0 for x in exps):
        raise ParameterError(f"exponent must be non-negative, got {min(exps)}")
    return [
        Matrix.identity(m.rows, modulus) if r is None else _from_product_rows(r, modulus)
        for r in _merged_powers(_reduced_rows(m, modulus), exps, modulus)
    ]


def _merged_powers(rows: list[list[int]], exps: Sequence[int], modulus: int) -> list:
    """Rows of B**x for each x in exps, B given by its reduced rows; None for x = 0.

    Equal rows make B a smaller matrix's power in disguise.  Write
    B = E·B', where B' holds the d distinct rows and E (n x d) copies
    them back into place.  Then B**x = E·C**(x-1)·B' for x >= 1, with the
    d x d core C = B'·E, whose column t sums the columns of B' that
    class t's members index.  A 1x1 core is B's row sum s, so B**x is
    s**(x-1)·B, and scalar_powers raises s to every exponent at once; a
    larger core is powered the same way, so its own equal rows merge in
    turn.  A matrix with no equal rows runs _table_walk.  A result may
    share row lists with rows and with other results.
    """
    classes: dict[tuple[int, ...], int] = {}
    place = [classes.setdefault(tuple(r), len(classes)) for r in rows]
    distinct = list(classes)
    if len(distinct) == 1:
        row = distinct[0]
        scales = scalar_powers(sum(row) % modulus, [max(x - 1, 0) for x in exps], modulus)
        return [[[f * v % modulus for v in row]] * len(rows) if x else None
                for x, f in zip(exps, scales)]
    if len(distinct) == len(rows):
        return _table_walk(rows, exps, lambda a, b: mul_rows_mod(a, b, modulus))
    merged = []
    for r in distinct:
        sums = [0] * len(distinct)
        for t, v in zip(place, r):
            sums[t] += v
        merged.append([v % modulus for v in sums])
    out: list = []
    for x, c in zip(exps, _merged_powers(merged, [max(x - 1, 0) for x in exps], modulus)):
        if not x:
            out.append(None)
            continue
        product = distinct if c is None else mul_rows_mod(c, distinct, modulus)
        out.append([product[t] for t in place])
    return out


def _table_walk(base, exps: Sequence[int], product) -> list:
    """base**x for each x in exps; None for x = 0.

    All exponents share one fixed-base table walk (Brickell, Gordon,
    McCurley and Wilson 1992; HAC §14.6.3), with product(a, b) the
    multiplication: mul_rows_mod on a matrix's rows, or a product mod m
    on an integer.  The exponents are cut into c-bit digits from the
    bottom.  Position j's table holds base^(d·2^(c·j)) for 0 < d < 2^c;
    its first entry is the previous position's first entry times its
    top entry, and each further entry is one more product.  Each
    exponent's nonzero digit picks an entry into its result, the first
    one by reference, the rest by a product; then the table is dropped,
    so N results plus 2^c entries are live.  The last position builds
    its table only up to its largest digit.  c comes from _window's
    exact product count.  For one exponent that count picks c = 1, plain
    square-and-multiply: bitlen(e) - 1 squarings and popcount(e) - 1
    products, with no product by the identity and no unused last
    squaring.
    """
    results: list = [None] * len(exps)
    if any(exps):
        _, c, positions = _window(exps)
        full = (1 << c) - 1
        first = base
        for j in range(positions):
            if j:
                first = product(table[-1], first)
            digits = [x >> c * j & full for x in exps]
            table = [None, first]
            for _ in range(1, full if j < positions - 1 else max(digits)):
                table.append(product(table[-1], first))
            for i, d in enumerate(digits):
                if d:
                    acc = results[i]
                    results[i] = table[d] if acc is None else product(acc, table[d])
    return results


def scalar_powers(base: int, exps: Sequence[int], modulus: int) -> list[int]:
    """[pow(base, x, modulus) for x in exps], for non-negative exponents.

    One _table_walk shares its tables across all exponents.
    """
    walked = _table_walk(base % modulus, exps, lambda a, b: a * b % modulus)
    return [1 % modulus if r is None else r for r in walked]


@lru_cache(maxsize=8)  # a setup checks its nucleus twice and eliminates it once
def rank_mod_p(m: Matrix, p: int) -> int:
    """Rank of m over the field Z_p, by Gaussian elimination on packed rows.

    Each row is one integer with fixed-width slots, and the column being
    eliminated is always every live row's lowest slot.  The rest of the
    pivot row is reduced and turned into -row/lead slot by slot, so
    eliminating the column from another row is one shift, which drops its
    lead, plus one multiply-add of its reduced lead times that packed row.
    Slots are never reduced in between.  A row starts reduced and takes at
    most min(rows, cols) updates of less than p^2 each, so a slot of
    2·bitlen(p) + bitlen(min(rows, cols)) + 1 bits, rounded up to whole
    bytes, holds p + min(rows, cols)·p^2 without carrying into the next
    slot; a narrower slot could corrupt its neighbour silently.
    """
    if not is_probable_prime(p):
        raise ParameterError(f"rank is only defined over a prime modulus, got {p}")
    width = _slot_width(2 * p.bit_length() + min(m.rows, m.cols).bit_length() + 1)
    mask = (1 << width) - 1
    live = [_pack(row, width) for row in _reduced_rows(m, p)]
    rank = 0
    for col in range(m.cols):
        leads = [(r & mask) % p for r in live]
        pivot = next((i for i, v in enumerate(leads) if v), None)
        if pivot is None:
            live = [r >> width for r in live]
            continue
        row = live.pop(pivot)
        lead = leads.pop(pivot)
        scale = -pow(lead, -1, p)
        negated = _pack(
            [(row >> k & mask) * scale % p for k in range(width, width * (m.cols - col), width)],
            width,
        )
        live = [(r >> width) + v * negated for r, v in zip(live, leads)]
        rank += 1
        if not live:
            break
    return rank


def _draw(rng: random.Random, count: int, low: int, stop: int) -> list[int]:
    """count values in [low, stop), as count calls of rng.randrange(low, stop) draw them.

    Where rng's randrange runs Random._randbelow_with_getrandbits, as
    Random and SystemRandom do, this is that rejection loop over
    getrandbits, so the values and the state it leaves in rng are the
    same, without randrange's argument handling per value.  Any other
    source, such as a subclass that overrides only random(), is drawn
    through its own randrange.  Needs stop > low.
    """
    if getattr(type(rng), "_randbelow", None) is not random.Random._randbelow_with_getrandbits:
        return [rng.randrange(low, stop) for _ in range(count)]
    n = stop - low
    k = n.bit_length()
    getrandbits = rng.getrandbits
    out = []
    append = out.append
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append(r + low)
    return out


def sample_matrix(
    rows: int,
    cols: int,
    modulus: int,
    rng: random.Random,
    mode: str,
) -> Matrix:
    """Draw a random matrix from the injected randomness source.

    Modes:
      unit_entries   uniform entries in [1, modulus), so no zero bases
      rank_deficient sample (rows-1) x cols with unit entries, then insert
                     a duplicate of one of those rows at a random position

    Entries are drawn row-major, as rng.randrange draws them.
    """
    if modulus < 2:
        raise ParameterError(f"modulus must be >= 2, got {modulus}")
    if mode == "unit_entries":
        flat = _draw(rng, rows * cols, 1, modulus)
    elif mode == "rank_deficient":
        if rows < 2:
            raise ParameterError("rank_deficient mode needs at least 2 rows")
        flat = _draw(rng, (rows - 1) * cols, 1, modulus)
        start = rng.randrange(rows - 1) * cols
        at = rng.randrange(rows) * cols
        flat[at:at] = flat[start : start + cols]
    else:
        raise ParameterError(f"unknown sampling mode {mode!r}")
    return Matrix(rows, cols, tuple(flat), modulus)


WORD_BYTES = 8
_WORD_LIMIT = 1 << (8 * WORD_BYTES)


def canonical_bytes(values: Iterable[int]) -> bytes:
    """Encode integers as concatenated 8-byte big-endian words.

    This fixes the bit-exact input of every hash and HMAC.  Values must
    fit in 8 bytes; larger moduli still work in-process but cannot be
    serialized.
    """
    values = list(values)
    if values and (min(values) < 0 or max(values) >= _WORD_LIMIT):
        v = next(v for v in values if v < 0 or v >= _WORD_LIMIT)
        raise SerializationError(f"value {v} does not fit in {WORD_BYTES} bytes")
    return struct.pack(f">{len(values)}Q", *values)


def canonical_values(data: bytes) -> tuple[int, ...]:
    """The integers canonical_bytes encoded; len(data) must be a multiple of WORD_BYTES."""
    return struct.unpack(f">{len(data) // WORD_BYTES}Q", data)


def matrix_values(matrices: Iterable[Matrix]) -> list[int]:
    """Flatten matrices row-major, in order, into one value list."""
    return [e for m in matrices for e in m.entries]
