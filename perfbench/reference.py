"""Direct-formula reference for the keys a handshake writes.

Independent of the mpfkap package: it reads the parameter-set JSON
itself and evaluates the double action term by term with builtin pow,
so a kernel that is fast but wrong on both sides of a session still
disagrees with it.  Matrices are lists of rows.
"""

from __future__ import annotations

import hashlib
import json
import struct


def load_params(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mat_mul(a: list[list[int]], b: list[list[int]], m: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % m for col in cols] for row in a]


def mat_pow(a: list[list[int]], e: int, m: int) -> list[list[int]]:
    n = len(a)
    result = [[int(i == j) % m for j in range(n)] for i in range(n)]
    acc = [[v % m for v in row] for row in a]
    while e:
        if e & 1:
            result = mat_mul(result, acc, m)
        acc = mat_mul(acc, acc, m)
        e >>= 1
    return result


def double_action(x, w, y, p: int, r: int, sigma: int = 1) -> list[list[int]]:
    """Q[i][j] = prod_{k,l < r} w[k][l] ** (sigma * x[i][k] * y[l][j] mod p-1) mod p."""
    em = p - 1
    out = []
    for xi in x:
        row = []
        for j in range(len(y[0])):
            acc = 1
            for k in range(r):
                sx = sigma * xi[k] % em
                wk = w[k]
                for l in range(r):
                    acc = acc * pow(wk[l], sx * y[l][j] % em, p) % p
            row.append(acc)
        out.append(row)
    return out


def has_zero(m: list[list[int]]) -> bool:
    return any(0 in row for row in m)


def _words(rows: list[list[int]]) -> bytes:
    return b"".join(v.to_bytes(8, "big") for row in rows for v in row)


def rdmpf_privates(doc: dict, rand_l: list[int], rand_r: list[int]):
    em = doc["p"] - 1
    return [
        (mat_pow(doc["base_xu"], lv, em), mat_pow(doc["base_yv"], rv, em))
        for lv, rv in zip(rand_l, rand_r)
    ]


def rdmpf_session_key(doc: dict, alice: tuple, bob: tuple) -> bytes | None:
    """SHA3-512 session digest both key files must hold, or None when a
    round token has a zero entry (the CLI rejects such a session).

    alice and bob are (rand_l, rand_r) lists, one value per round.
    """
    p, sigma, w = doc["p"], doc.get("sigma", 1), doc["w"]
    dim = len(w)
    keys = []
    for (la, ra), (lb, rb) in zip(rdmpf_privates(doc, *alice), rdmpf_privates(doc, *bob)):
        token_a = double_action(la, w, ra, p, dim, sigma)
        token_b = double_action(lb, w, rb, p, dim, sigma)
        if has_zero(token_a) or has_zero(token_b):
            return None
        keys.append(double_action(la, token_b, ra, p, dim, sigma))
    return hashlib.sha3_512(b"".join(_words(k) for k in keys)).digest()


def rmpf_key_file(doc: dict, alice: tuple[int, int], bob: tuple[int, int]) -> bytes | None:
    """Key-matrix dump both key files must hold, or None when a token has a
    zero entry.  alice and bob are (lambda, omega) pairs."""
    p = doc["p"]
    em = p - 1
    cols = doc["cols"]

    def scaled(s, m):
        return [[s * v % em for v in row] for row in m]

    a_x, a_y = scaled(alice[0], doc["x"]), scaled(alice[1], doc["y"])
    b_x, b_y = scaled(bob[0], doc["x"]), scaled(bob[1], doc["y"])
    token_a = double_action(a_x, doc["base"], a_y, p, cols)
    token_b = double_action(b_x, doc["base"], b_y, p, cols)
    if has_zero(token_a) or has_zero(token_b):
        return None
    key = double_action(a_x, token_b, a_y, p, cols)
    return struct.pack(">II", len(key), cols) + _words(key)
