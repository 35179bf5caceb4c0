"""Known-answer vectors for both protocols.

Two fully worked desk-scale transcripts pin the arithmetic: a 5x3
rectangular instance (protocol 1) and a dim-5, two-round rank-deficient
instance (protocol 2).  Every intermediate value is frozen so a
regression anywhere in the pipeline is caught at the step that broke.

The session digest depends on this library's canonical byte encoding,
so PINNED_SESSION_DIGEST_HEX is this implementation's own regression
pin rather than an externally published value.
"""

from __future__ import annotations

from .core import FieldParams, Matrix, Record, mat_pow_mod, mat_scalar_mul_mod, matrix_values
from .rdmpf import RdmpfSession, RdmpfSetup, session_digest
from .rmpf import RmpfSetup, derive_key, keygen, mpf_double

P = 65537

# --- protocol 1: rectangular 5x3 instance -------------------------------

RMPF_BASE = [
    [44664, 10605, 58177],
    [37079, 44866, 49280],
    [45409, 15609, 726],
    [57731, 9471, 41234],
    [52116, 32253, 872],
]
RMPF_X = [
    [25454, 62439, 63614],
    [39060, 9694, 46468],
    [6392, 43055, 15148],
    [26377, 42964, 30474],
    [55812, 12484, 59987],
]
RMPF_Y = [
    [32239, 25090, 32249],
    [31554, 15896, 40908],
    [53836, 29341, 55133],
    [49046, 44776, 7840],
    [53994, 48994, 62776],
]

RMPF_LAMBDA_A = 60308
RMPF_OMEGA_A = 36605
RMPF_LAMBDA_B = 25401
RMPF_OMEGA_B = 64763

RMPF_A1 = [
    [30104, 3724, 21208],
    [4496, 44632, 7248],
    [5984, 24620, 39280],
    [54324, 41616, 65480],
    [46672, 7504, 43260],
]
RMPF_B1 = [
    [1843, 63482, 40213],
    [27706, 44472, 5276],
    [64796, 23337, 27881],
    [35646, 35656, 1056],
    [15682, 32730, 26712],
]
RMPF_TOKEN_A = [
    [19050, 55225, 32116],
    [20307, 33635, 46068],
    [50694, 64046, 51330],
    [1754, 3460, 4352],
    [50272, 26460, 52031],
]
RMPF_A2 = [
    [44414, 41839, 3598],
    [13556, 18542, 30308],
    [30520, 40823, 12492],
    [27649, 23092, 24378],
    [5860, 42916, 17787],
]
RMPF_B2 = [
    [48469, 4086, 40739],
    [53686, 33160, 32004],
    [132, 60399, 46127],
    [32786, 56696, 34528],
    [9070, 7446, 36328],
]
RMPF_TOKEN_B = [
    [8616, 10721, 1187],
    [43735, 40329, 8281],
    [52007, 53646, 42109],
    [20747, 37614, 61557],
    [18153, 19017, 15289],
]
RMPF_KEY = [
    [23030, 13518, 44672],
    [8819, 10151, 12163],
    [21, 40471, 6436],
    [45352, 62662, 60452],
    [9532, 30007, 11905],
]

# --- protocol 2: dim-5, two-round rank-deficient instance ----------------

RDMPF_DIM = 5
RDMPF_EXP_MAX = 10000
RDMPF_ROUNDS = 2

RDMPF_W = [
    [36671, 1524, 19050, 12061, 61140],
    [5366, 34773, 37275, 10709, 60768],
    [59994, 8372, 16513, 19213, 18024],
    [22554, 1387, 10646, 57542, 54414],
    [62130, 15684, 5868, 17933, 2855],
]
RDMPF_BASE_XU = [
    [57543, 23480, 42992, 19549, 59890],
    [57543, 23480, 42992, 19549, 59890],
    [43343, 28960, 64751, 37741, 48337],
    [1091, 62357, 30242, 50955, 3101],
    [37839, 36136, 38757, 10107, 12470],
]
RDMPF_BASE_YV = [
    [61098, 25692, 18347, 31256, 2737],
    [61098, 25692, 18347, 31256, 2737],
    [23628, 47854, 30452, 10898, 3201],
    [4055, 43906, 6517, 25648, 29018],
    [13622, 59502, 23730, 40601, 41483],
]


class RdmpfRoundVector(Record):
    """One round of the two-party transcript (Alice = x/y, Bob = u/v)."""

    __slots__ = (
        "rand_x", "x", "rand_y", "y", "rand_u", "u", "rand_v", "v", "token_a", "token_b", "key"
    )

    def __init__(
        self, rand_x: int, x: list[list[int]], rand_y: int, y: list[list[int]],
        rand_u: int, u: list[list[int]], rand_v: int, v: list[list[int]],
        token_a: list[list[int]], token_b: list[list[int]], key: list[list[int]]
    ):
        self._set(rand_x, x, rand_y, y, rand_u, u, rand_v, v, token_a, token_b, key)


RDMPF_ROUND_1 = RdmpfRoundVector(
    rand_x=4267,
    x=[
        [25300, 53591, 3358, 6302, 15971],
        [25300, 53591, 3358, 6302, 15971],
        [59640, 62777, 43012, 50996, 33510],
        [8272, 23015, 13985, 6756, 47019],
        [64853, 6353, 9303, 16909, 11272],
    ],
    rand_y=4651,
    y=[
        [50294, 15396, 2447, 20604, 46313],
        [50294, 15396, 2447, 20604, 46313],
        [52856, 57814, 29792, 40618, 1969],
        [25287, 53714, 4577, 4384, 26014],
        [24014, 4806, 32294, 48601, 23187],
    ],
    rand_u=6066,
    u=[
        [61917, 24420, 29078, 47059, 18070],
        [61917, 24420, 29078, 47059, 18070],
        [35935, 20952, 51333, 41093, 16163],
        [41155, 1979, 10882, 17171, 37033],
        [38861, 15750, 29077, 7509, 61114],
    ],
    rand_v=8472,
    v=[
        [37353, 1020, 59757, 44920, 18981],
        [37353, 1020, 59757, 44920, 18981],
        [38256, 24936, 25399, 44464, 10051],
        [36307, 16166, 52913, 49849, 13652],
        [51670, 11528, 54954, 50615, 6058],
    ],
    token_a=[
        [53838, 27572, 60974, 49207, 54423],
        [53838, 27572, 60974, 49207, 54423],
        [7986, 15752, 8069, 40416, 15771],
        [41410, 8254, 42646, 57132, 64087],
        [62119, 17840, 19622, 20589, 6234],
    ],
    token_b=[
        [29348, 1649, 29136, 53009, 60590],
        [29348, 1649, 29136, 53009, 60590],
        [47894, 18698, 17669, 19542, 31170],
        [5356, 9122, 3736, 17535, 33881],
        [46266, 10907, 21467, 39257, 36010],
    ],
    key=[
        [20743, 10836, 64775, 35222, 44472],
        [20743, 10836, 64775, 35222, 44472],
        [49310, 2062, 65040, 46960, 24883],
        [40381, 25492, 38040, 58289, 65195],
        [43404, 25602, 54209, 59994, 36225],
    ],
)

RDMPF_ROUND_2 = RdmpfRoundVector(
    rand_x=6171,
    x=[
        [20687, 43044, 29876, 65277, 34570],
        [20687, 43044, 29876, 65277, 34570],
        [48043, 42272, 30547, 16281, 53097],
        [64011, 43209, 15826, 58203, 65225],
        [59031, 50156, 13641, 54627, 6418],
    ],
    rand_y=2414,
    y=[
        [40891, 39362, 36749, 34923, 28810],
        [40891, 39362, 36749, 34923, 28810],
        [22763, 63190, 28195, 33540, 27134],
        [56708, 35280, 14969, 48184, 42201],
        [38364, 57222, 24807, 17310, 52808],
    ],
    rand_u=7574,
    u=[
        [61547, 33968, 56069, 41953, 50743],
        [61547, 33968, 56069, 41953, 50743],
        [29714, 32573, 36652, 42508, 7927],
        [33931, 35041, 24823, 50021, 61711],
        [38392, 28428, 60085, 13340, 4043],
    ],
    rand_v=1456,
    v=[
        [17998, 3012, 8841, 26426, 43907],
        [17998, 3012, 8841, 26426, 43907],
        [49148, 8686, 26452, 55316, 51969],
        [64313, 53978, 52641, 4196, 14662],
        [51704, 8754, 12104, 61813, 36643],
    ],
    token_a=[
        [21108, 54710, 20029, 6255, 14963],
        [21108, 54710, 20029, 6255, 14963],
        [28723, 28942, 9398, 51028, 3356],
        [44003, 6940, 4827, 50400, 35084],
        [54653, 19386, 46270, 24516, 19667],
    ],
    token_b=[
        [31055, 8992, 38240, 47046, 52571],
        [31055, 8992, 38240, 47046, 52571],
        [53708, 5236, 39748, 56283, 63932],
        [27273, 31500, 58981, 63915, 16157],
        [21773, 26963, 14715, 52520, 13589],
    ],
    key=[
        [33253, 42632, 21998, 52285, 49951],
        [33253, 42632, 21998, 52285, 49951],
        [14086, 35325, 53116, 60717, 41037],
        [3238, 39606, 1643, 48792, 26310],
        [19481, 30394, 40594, 46821, 12282],
    ],
)

RDMPF_ROUND_VECTORS = (RDMPF_ROUND_1, RDMPF_ROUND_2)

# First/last values of the flattened two-round lists.
TOKEN_LIST_A_ENDS = (53838, 19667)
TOKEN_LIST_B_ENDS = (29348, 13589)
KEY_LIST_ENDS = (20743, 12282)
COMBINED_LIST_LEN = 50

# This library's canonical-encoding regression pin (see module docstring).
PINNED_SESSION_DIGEST_HEX = (
    "549c7058752f9f968d168197c52c7ad4765e58e96edee1041b2f110cb7cc9bc6"
    "1100fb41b5b9638088a2f9eff3ed973a45b179a982872d770f23a9bc6569d2f3"
)


def rmpf_setup() -> RmpfSetup:
    params = FieldParams(P)
    return RmpfSetup(
        params,
        Matrix.from_rows(RMPF_BASE, P),
        Matrix.from_rows(RMPF_X, P),
        Matrix.from_rows(RMPF_Y, P),
    )


def rdmpf_setup(sigma: int = 1) -> RdmpfSetup:
    params = FieldParams(P)
    return RdmpfSetup(
        params,
        Matrix.from_rows(RDMPF_W, P),
        Matrix.from_rows(RDMPF_BASE_XU, P),
        Matrix.from_rows(RDMPF_BASE_YV, P),
        RDMPF_EXP_MAX,
        RDMPF_ROUNDS,
        sigma,
    )


def check_rmpf_vectors() -> list[tuple[str, bool]]:
    """Replay the rectangular transcript; one (label, ok) entry per value."""
    setup = rmpf_setup()
    em = setup.params.exp_modulus
    results = []

    a1 = mat_scalar_mul_mod(RMPF_LAMBDA_A, setup.x, em)
    b1 = mat_scalar_mul_mod(RMPF_OMEGA_A, setup.y, em)
    results.append(("rmpf scaled exponent matrix A1", a1.to_rows() == RMPF_A1))
    results.append(("rmpf scaled exponent matrix B1", b1.to_rows() == RMPF_B1))

    priv_a, token_a = keygen(setup, _NoRng(), RMPF_LAMBDA_A, RMPF_OMEGA_A)
    priv_b, token_b = keygen(setup, _NoRng(), RMPF_LAMBDA_B, RMPF_OMEGA_B)
    results.append(("rmpf scaled exponent matrix A2", priv_b.a.to_rows() == RMPF_A2))
    results.append(("rmpf scaled exponent matrix B2", priv_b.b.to_rows() == RMPF_B2))
    results.append(("rmpf token A", token_a.to_rows() == RMPF_TOKEN_A))
    results.append(("rmpf token B", token_b.to_rows() == RMPF_TOKEN_B))

    key_a = derive_key(priv_a, token_b, setup)
    key_b = derive_key(priv_b, token_a, setup)
    results.append(("rmpf key A", key_a.to_rows() == RMPF_KEY))
    results.append(("rmpf key B", key_b.to_rows() == RMPF_KEY))
    results.append(("rmpf key agreement", key_a == key_b))

    double = mpf_double(a1, setup.base, b1, P)
    results.append(("rmpf double action reproduces token A", double.to_rows() == RMPF_TOKEN_A))
    return results


def check_rdmpf_vectors() -> list[tuple[str, bool]]:
    """Replay the two-round rank-deficient transcript."""
    setup = rdmpf_setup()
    em = setup.params.exp_modulus
    results = []

    for idx, vec in enumerate(RDMPF_ROUND_VECTORS, start=1):
        x = mat_pow_mod(setup.base_xu, vec.rand_x, em)
        y = mat_pow_mod(setup.base_yv, vec.rand_y, em)
        u = mat_pow_mod(setup.base_xu, vec.rand_u, em)
        v = mat_pow_mod(setup.base_yv, vec.rand_v, em)
        results.append((f"rdmpf round {idx} private X", x.to_rows() == vec.x))
        results.append((f"rdmpf round {idx} private Y", y.to_rows() == vec.y))
        results.append((f"rdmpf round {idx} private U", u.to_rows() == vec.u))
        results.append((f"rdmpf round {idx} private V", v.to_rows() == vec.v))

    alice = RdmpfSession(setup, injected=[(v.rand_x, v.rand_y) for v in RDMPF_ROUND_VECTORS])
    bob = RdmpfSession(setup, injected=[(v.rand_u, v.rand_v) for v in RDMPF_ROUND_VECTORS])
    keys_a, keys_b = alice.round_keys(bob.tokens), bob.round_keys(alice.tokens)
    for idx, vec in enumerate(RDMPF_ROUND_VECTORS, start=1):
        results.append(
            (f"rdmpf round {idx} token A", alice.tokens[idx - 1].to_rows() == vec.token_a)
        )
        results.append(
            (f"rdmpf round {idx} token B", bob.tokens[idx - 1].to_rows() == vec.token_b)
        )
    for idx, vec in enumerate(RDMPF_ROUND_VECTORS, start=1):
        results.append((f"rdmpf round {idx} key A", keys_a[idx - 1].to_rows() == vec.key))
        results.append((f"rdmpf round {idx} key B", keys_b[idx - 1].to_rows() == vec.key))

    tokens_a, tokens_b = matrix_values(alice.tokens), matrix_values(bob.tokens)
    key_list_a, key_list_b = matrix_values(keys_a), matrix_values(keys_b)
    results.append(
        (
            "rdmpf token list A ends",
            (tokens_a[0], tokens_a[-1]) == TOKEN_LIST_A_ENDS and len(tokens_a) == COMBINED_LIST_LEN,
        )
    )
    results.append(
        (
            "rdmpf token list B ends",
            (tokens_b[0], tokens_b[-1]) == TOKEN_LIST_B_ENDS and len(tokens_b) == COMBINED_LIST_LEN,
        )
    )
    results.append(
        (
            "rdmpf key list ends",
            (key_list_a[0], key_list_a[-1]) == KEY_LIST_ENDS and key_list_a == key_list_b,
        )
    )
    key_a, key_b = session_digest(keys_a), session_digest(keys_b)
    results.append(("rdmpf session digest agreement", key_a == key_b))
    results.append(("rdmpf pinned session digest", key_a.hex() == PINNED_SESSION_DIGEST_HEX))
    return results


def check_all() -> list[tuple[str, bool]]:
    return check_rmpf_vectors() + check_rdmpf_vectors()


class _NoRng:
    """Randomness source that must never be consulted (injected replays)."""

    def randrange(self, *args):  # pragma: no cover - defensive
        raise AssertionError("replay paths must not draw randomness")
