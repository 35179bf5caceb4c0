"""The package's immutable records, and what importing the CLI loads."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import mpfkap
from mpfkap import (
    FieldParams,
    KemContext,
    Matrix,
    ParameterError,
    RdmpfRoundPrivate,
    RdmpfSession,
    RdmpfSetup,
    RmpfPrivate,
    RmpfSession,
    RmpfSetup,
)
from mpfkap import known_answers as ka
from mpfkap.bench import BenchRecord
from mpfkap.known_answers import RdmpfRoundVector
from mpfkap.wire import ParamSet

P = 7
M = Matrix(2, 2, (1, 2, 3, 4), P)  # full rank, zero-free
LOW = Matrix(2, 2, (1, 1, 1, 1), P)  # rank 1
TALL = Matrix(3, 2, (1, 2, 3, 4, 5, 6), P)
RMPF_FIELDS = {"rows": 5, "cols": 3}
RMPF_MATRICES = {"base": ka.RMPF_BASE, "x": ka.RMPF_X, "y": ka.RMPF_Y}


def rmpf_paramset_args():
    mats = {name: Matrix.from_rows(rows, ka.P) for name, rows in RMPF_MATRICES.items()}
    return ("rmpf", ka.P, dict(RMPF_FIELDS), mats)


ROUND_VECTOR_FIELDS = (
    "rand_x", "x", "rand_y", "y", "rand_u", "u", "rand_v", "v", "token_a", "token_b", "key"
)


def round_vector_args():
    return {name: getattr(ka.RDMPF_ROUND_1, name) for name in ROUND_VECTOR_FIELDS}


# every record class: its fields in order, and a function giving fresh,
# valid constructor arguments
RECORDS = {
    FieldParams: (("p", "exp_modulus"), lambda: ((65537,), {})),
    Matrix: (("rows", "cols", "entries", "modulus"), lambda: ((2, 2, (1, 2, 3, 4), P), {})),
    RdmpfSetup: (
        ("params", "w", "base_xu", "base_yv", "exp_max", "rounds", "sigma"),
        lambda: ((FieldParams(P), M, LOW, LOW, 2, 1), {"sigma": 3}),
    ),
    RdmpfRoundPrivate: (("rand_l", "rand_r", "l", "r"), lambda: ((5, 6, M, LOW), {})),
    RdmpfSession: (
        ("setup", "privates", "tokens"),
        lambda: ((ka.rdmpf_setup(),), {"injected": [(5, 6), (7, 8)]}),
    ),
    RmpfSetup: (("params", "base", "x", "y"), lambda: ((FieldParams(P), TALL, TALL, TALL), {})),
    RmpfPrivate: (("lam", "omega", "a", "b"), lambda: ((5, 6, M, LOW), {})),
    RmpfSession: (
        ("setup", "private", "tokens"), lambda: ((ka.rmpf_setup(),), {"injected": [(5, 6)]})
    ),
    KemContext: (
        ("eta0", "auth_a", "auth_b"), lambda: ((bytes(64), bytes(32), bytes(range(32))), {})
    ),
    ParamSet: (
        ("protocol", "p", "fields", "matrices", "seed"),
        lambda: (rmpf_paramset_args(), {"seed": 9}),
    ),
    BenchRecord: (
        ("dim", "p", "exp_max", "trials", "median_s", "samples"),
        lambda: ((5, 997, 1000, 10, 0.25), {"samples": (0.25,) * 10}),
    ),
    RdmpfRoundVector: (ROUND_VECTOR_FIELDS, lambda: ((), round_vector_args())),
}
# fields that are dicts or lists: the record is unhashable, as a frozen
# dataclass over them was
UNHASHABLE = {ParamSet, RdmpfRoundVector}


def make(cls):
    args, kwargs = RECORDS[cls][1]()
    return cls(*args, **kwargs)


def values(rec, cls):
    return [getattr(rec, name) for name in RECORDS[cls][0]]


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
class TestRecordSemantics:
    def test_fields_refuse_assignment(self, cls):
        rec = make(cls)
        before = values(rec, cls)
        for name in RECORDS[cls][0]:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.not_a_field = 1
        assert values(rec, cls) == before
        assert not hasattr(rec, "__dict__")

    def test_equal_fields_are_equal(self, cls):
        a, b = make(cls), make(cls)
        assert a is not b
        assert a == b and not a != b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_another_class_with_the_same_values_differs(self, cls):
        twin_cls = type("Twin", (cls,), {"__slots__": ()})
        args, kwargs = RECORDS[cls][1]()
        rec, twin = cls(*args, **kwargs), twin_cls(*args, **kwargs)
        assert values(rec, cls) == values(twin, cls)
        assert rec != twin and twin != rec
        assert rec != tuple(values(rec, cls))

    def test_a_changed_field_differs(self, cls):
        rec = make(cls)
        *same, last = RECORDS[cls][0]
        other = object.__new__(cls)
        for name in same:
            object.__setattr__(other, name, getattr(rec, name))
        object.__setattr__(other, last, object())
        assert rec != other

    def test_copies_and_pickles_equal(self, cls):
        rec = make(cls)
        for again in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(again) is cls
            assert again == rec

    def test_repr_names_the_class_and_its_fields(self, cls):
        rec = make(cls)
        text = repr(rec)
        assert text.startswith(f"{cls.__name__}(")
        if cls is Matrix:  # its own compact form
            assert text == "Matrix(2x2 mod 7, [1, 2, 3, 4])"
            return
        for name in RECORDS[cls][0]:
            assert f"{name}={getattr(rec, name)!r}" in text


def test_different_records_with_equal_values_differ():
    assert RdmpfRoundPrivate(5, 6, M, LOW) != RmpfPrivate(5, 6, M, LOW)


def test_field_params_derives_exp_modulus():
    fp = FieldParams(65537)
    assert (fp.p, fp.exp_modulus) == (65537, 65536)
    assert repr(fp) == "FieldParams(p=65537, exp_modulus=65536)"
    with pytest.raises(TypeError):
        FieldParams(65537, 65536)


def test_defaults_apply():
    setup = RdmpfSetup(FieldParams(P), M, LOW, LOW, 2, 1)
    assert setup.sigma == 1
    assert ParamSet(*rmpf_paramset_args()).seed is None
    assert BenchRecord(5, 997, 1000, 10, 0.25).samples == ()


def _rdmpf(**changes):
    args = dict(params=FieldParams(P), w=M, base_xu=LOW, base_yv=LOW, exp_max=2, rounds=1)
    return RdmpfSetup(**{**args, **changes})


def _paramset(**changes):
    protocol, p, fields, matrices = rmpf_paramset_args()
    args = dict(protocol=protocol, p=p, fields=fields, matrices=matrices)
    return ParamSet(**{**args, **changes})


# (what is built, the error it must raise, a fragment of its message)
REFUSALS = [
    (lambda: FieldParams(65536), ParameterError, "odd prime"),
    (lambda: FieldParams(2), ParameterError, "odd prime"),
    (lambda: Matrix(0, 2, (), P), ParameterError, "bad dimensions"),
    (lambda: Matrix(1, 1, (0,), 1), ParameterError, "modulus must be >= 2"),
    (lambda: Matrix(2, 2, (1, 2, 3), P), ParameterError, "needs 4 entries, got 3"),
    (lambda: Matrix(1, 2, (1, P), P), ParameterError, "out of"),
    (lambda: Matrix(1, 2, (-1, 1), P), ParameterError, "out of"),
    (lambda: _rdmpf(w=TALL), ParameterError, "w must be 3x3"),
    (lambda: _rdmpf(base_yv=Matrix(2, 2, (1, 1, 1, 1), 11)), ParameterError, "does not match"),
    (lambda: _rdmpf(w=Matrix(2, 2, (0, 1, 1, 1), P)), ParameterError, "entries in"),
    (lambda: _rdmpf(w=LOW), ParameterError, "full rank"),
    (lambda: _rdmpf(base_xu=M), ParameterError, "base_xu must be rank-deficient"),
    (lambda: _rdmpf(exp_max=1), ParameterError, "exp_max must be >= 2"),
    (lambda: _rdmpf(rounds=0), ParameterError, "rounds must be >= 1"),
    (lambda: RmpfSetup(FieldParams(P), TALL, TALL, M), ParameterError, "share dimensions"),
    (lambda: RmpfSetup(FieldParams(P), M, M, M), ParameterError, "rows must exceed cols"),
    (lambda: RmpfSetup(FieldParams(11), TALL, TALL, TALL), ParameterError, "does not match"),
    (lambda: RmpfSetup(FieldParams(P), TALL, Matrix(3, 2, (0,) * 6, P), TALL),
     ParameterError, "x must have entries"),
    (lambda: KemContext(bytes(63), bytes(32), bytes(32)), ParameterError, "eta0 must be 64"),
    (lambda: KemContext(bytes(64), bytes(31), bytes(32)), ParameterError, "auth tags"),
    (lambda: _paramset(fields={**RMPF_FIELDS, "dim": 3}), ParameterError, "exactly the scalars"),
    (lambda: _paramset(fields={"rows": 5}), ParameterError, "needs an integer 'cols'"),
    (lambda: _paramset(matrices={}), ParameterError, "exactly the scalars"),
    (lambda: _paramset(matrices={"base": 1, "x": 2, "y": 3}), ParameterError, "must be a Matrix"),
    (lambda: _paramset(protocol="xmpf"), ParameterError, "unknown protocol"),
    (lambda: BenchRecord(5, 997, 1000, 9, 0.1), ParameterError, "at least 10 trials"),
    (lambda: BenchRecord(5, 997, 1000, 10, 0.0), ParameterError, "positive"),
]


@pytest.mark.parametrize("build, error, cause", REFUSALS)
def test_construction_checks(build, error, cause):
    with pytest.raises(error, match=cause):
        build()


def test_cli_import_loads_none_of_the_unneeded_modules():
    # -S: no site hooks, so only the package's own imports count
    src = os.path.dirname(os.path.dirname(os.path.abspath(mpfkap.__file__)))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import mpfkap.cli; "
        "print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    )
    unneeded = ["dataclasses", "inspect", "socket", "hashlib", "hmac", "_hashlib",
                "mpfkap.bench", "mpfkap.known_answers"]
    r = subprocess.run(
        [sys.executable, "-S", "-c", code, *unneeded], capture_output=True, text=True, timeout=60
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
