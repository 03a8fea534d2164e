"""Every record class (built by ``core.record``) against a ``dataclass``
twin: ``dataclasses.make_dataclass`` with the same fields and decorator
flags and the class's own methods (``__post_init__`` among them).  On
sample instances both give the same ``==``/``!=`` (against equal, unequal
and foreign objects), ``hash``, ``repr``, ordering, ``FrozenInstanceError``
on set and delete, ``dataclasses.replace``, ``fields``,
``inspect.signature``, ``TypeError`` class on a bad call, and copies; a
record whose field values pickle survives a pickle round trip.

The records are found by ``__dataclass_fields__`` in the seven modules
that declare them, so a new record without samples fails here.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import inspect
import pickle
import textwrap

import numpy as np
import pytest

from epigauge import certificates, cli, constructions, core, oracle, problem, stability
from epigauge.certificates import (AggregatedEnvelope, BracketingReport, Cover, EnvelopeCert,
                                   LocalCert, ToleranceField)
from epigauge.constructions import (ImpossibilityPair, SharpnessFamily, StrictnessPair,
                                    SweepResult, SweepRow)
from epigauge.core import (ClosedBall, Cylinder, FinitePointSet, Func, GaugeBound, Point,
                           Provenance, record)
from epigauge.oracle import ArgminResult, Grid, LevelGrid
from epigauge.stability import (DisplacementCert, GrowthCert, GrowthFalsificationReport,
                                GrowthViolation, ValueGapResult, WindowCheck)

MODULES = (core, oracle, certificates, stability, constructions, problem, cli)

RECORDS = sorted((obj for module in MODULES for obj in vars(module).values()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and "__dataclass_fields__" in vars(obj)), key=lambda c: c.__qualname__)

# The methods ``record`` (or ``dataclass``) may add; a twin gets its own.
GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__lt__", "__le__", "__gt__",
             "__ge__", "__setattr__", "__delattr__"}


@record(order=True)
class _Probe:
    """What no record of the package combines: ordering, an uncompared
    field and a plain default."""

    a: int
    b: int = dataclasses.field(default=0, compare=False)
    c: str = "c"


def _zero(p: Point) -> float:
    return 0.0


def _one(p: Point) -> float:
    return 1.0


def _samples():
    """Per record class: positional arguments of two unequal instances."""
    cyl = Cylinder(1.0, 2.0)
    zero, one = Func(_zero, label="zero"), Func(_one, label="one")
    origin, half = Point.of(0.0), Point.of(0.5)
    gauge = GaugeBound(0.5, cyl, Provenance.ENVELOPE, True, "d")
    growth = GrowthCert(2.0, 1.0, FinitePointSet((origin,)), 0.0)
    check = WindowCheck(origin, 0.0, 0.1, cyl)
    local = LocalCert(origin, 0.5, zero, one)
    local2 = LocalCert(half, 0.25, zero, one)
    violation = GrowthViolation("growth", half, 0.1, 0.2)
    row = SweepRow(1e-3, 0.1, 0.1, 0.2, 1e-3, 0.0, 1e-3)
    return {
        Point: [((1, 2),), ((1.0, 3.0),)],  # post_init makes the ints floats
        Func: [(_zero, 1.0, 1, "f"), (_zero, 2.0, 1, "f", _one)],
        Cylinder: [(1, 2), (1.0, 3.0)],
        GaugeBound: [(0.5, cyl, Provenance.ENVELOPE, True, "d"),
                     (0.5, cyl, Provenance.ASSUMED, False)],
        FinitePointSet: [((origin,),), ((origin, half),)],
        ClosedBall: [(origin, 1.0), (half, 1.0)],
        Grid: [(1, 1.0, 0.5), (2, 1.0, 0.5)],
        LevelGrid: [(1.0, 0.5), (1.0, 0.25)],
        ArgminResult: [(np.zeros((1, 1)), 0.0), (np.ones((1, 1)), 0.0)],
        EnvelopeCert: [(1.0, zero, one), (1.0, zero, one, True)],
        LocalCert: [(origin, 0.5, zero, one), (half, 0.25, zero, one)],
        Cover: [((local,),), ((local, local2),)],
        ToleranceField: [(zero, cyl), (one, cyl, True)],
        BracketingReport: [((), 10, 0.1), (((half, 0.0, 0.5, 1.0),), 10, 0.1)],
        AggregatedEnvelope: [(Cover((local,)),), (Cover((local2,)),)],
        GrowthCert: [(2.0, 1.0, FinitePointSet((origin,)), 0.0),
                     (3.0, 1.0, ClosedBall(origin, 0.5), 0.0)],
        WindowCheck: [(origin, 0.0, 0.1, cyl), (origin, 0.0, 0.2, cyl)],
        ValueGapResult: [(True, 0.5, ""), (False, None, "base")],
        DisplacementCert: [(gauge, growth, (check, check), 0.1),
                           (gauge, growth, (check, check), None)],
        GrowthViolation: [("growth", half, 0.1, 0.2), ("argmin_value", half, 0.1, 0.2)],
        GrowthFalsificationReport: [("h", (violation,), 10, 0.1), ("h", (), 10, 0.1)],
        SharpnessFamily: [(2.0, 1e-2, zero, one), (2.0, 2e-2, zero, one)],
        StrictnessPair: [(1.0, 2.0, 5.0, zero, one), (1.0, 2.0, 4.0, zero, one)],
        ImpossibilityPair: [(1.0, (half,), origin, 0.1, 5.0, zero, one),
                            (1.0, (half,), origin, 0.2, 5.0, zero, one)],
        SweepRow: [tuple(row.__dict__.values()), (2e-3, 0.1, 0.1, 0.2, 1e-3, 0.0, 1e-3)],
        SweepResult: [((row,), 0.5, 2.0, 1e-3, 1.0), ((row,), 0.4, 2.0, 1e-3, 1.0)],
        problem._Section: [("grid", "", 3, [("step", "0.1", 4)]), ("grid", "", 5, [])],
        problem.ProblemSpec: [("p", "abc", 1, {"f": zero}, cyl, (zero, one), None, None, None,
                               growth, 0.1),
                              ("p", "abc", 1, {}, None, None, None, None, None, None, None)],
        cli._Stage: [(0.1, [("envelope", gauge)]), (0.2, [], 0.1, 0.2)],
        cli._Property: [("p", True, "d"), ("p", False, "d")],
        _Probe: [(1, 2, "x"), (2,)],
    }


SAMPLES = _samples()


def _flags(cls) -> dict:
    """The keywords of the ``@record`` decorator on ``cls``, from its source."""
    lines, _ = inspect.getsourcelines(cls)
    (decorator,) = ast.parse(textwrap.dedent("".join(lines))).body[0].decorator_list
    call = decorator if isinstance(decorator, ast.Call) else None
    name = (call.func if call else decorator).id
    assert name == "record", f"{cls.__qualname__} is built by @{name}, not @record"
    keywords = {k.arg: ast.literal_eval(k.value) for k in call.keywords} if call else {}
    return {"frozen": True, "order": False, **keywords}


def _own(cls) -> set[str]:
    """The names of the functions defined in the body of ``cls``."""
    return {name for name, value in vars(cls).items()
            if inspect.isfunction(value) and value.__qualname__ == f"{cls.__qualname__}.{name}"}


def _twin(cls):
    """``cls`` built by ``dataclasses.make_dataclass``: the same fields and
    flags, and every attribute of the class body but the generated methods."""
    fields = [(f.name, f.type, dataclasses.field(
        default=f.default, default_factory=f.default_factory, init=f.init, repr=f.repr,
        hash=f.hash, compare=f.compare)) for f in dataclasses.fields(cls)]
    names = {f[0] for f in fields}
    own = _own(cls)
    namespace = {name: value for name, value in vars(cls).items()
                 if name not in GENERATED and name not in names
                 and (not (name.startswith("__") and name.endswith("__")) or name in own)}
    twin = dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, **_flags(cls))
    twin.__qualname__ = cls.__qualname__
    return twin


def _outcome(fn):
    """What ``fn()`` returns, or the class of what it raises (with its
    message, except for a bad call's ``TypeError``)."""
    try:
        return fn()
    except TypeError:
        return TypeError
    except Exception as e:
        return type(e), str(e)


def _transcript(cls, real):
    """Every comparable result of the record operations on ``cls``, built
    from the samples of ``real`` (``cls`` itself or its twin)."""
    args, other = SAMPLES[real]
    flags = _flags(real)
    a, b, c = cls(*args), cls(*args), cls(*other)
    params = [f.name for f in dataclasses.fields(cls) if f.init]
    keywords = dict(zip(params, args))
    first = params[0]
    out = {
        "repr": (repr(a), repr(c), repr(cls(**keywords)), repr(cls(*args[:1], **{
            k: v for k, v in keywords.items() if k != first}))),
        "fields": [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash,
                    f.compare) for f in dataclasses.fields(cls)],
        "signature": str(inspect.signature(cls)),
        "match_args": cls.__match_args__,
        "replace": (repr(dataclasses.replace(a)),
                    repr(dataclasses.replace(a, **{first: getattr(c, first)}))),
        "copy": (repr(copy.copy(a)), repr(copy.deepcopy(a))),
        "bad calls": [_outcome(lambda: cls()),
                      _outcome(lambda: cls(*args, bogus=1)),
                      _outcome(lambda: cls(*args, *[0] * len(params))),
                      _outcome(lambda: cls(*args, **{first: args[0]}))],
    }
    if "__eq__" not in _own(real):
        foreign = object()
        out["eq"] = [a == b, a != b, a == c, a != c, a == foreign, a != foreign, a == None,  # noqa: E711
                     a == cls(**keywords), copy.copy(a) == a, dataclasses.replace(a) == a]
        out["hash"] = [_outcome(lambda: hash(a)), _outcome(lambda: hash(a) == hash(b))]
    if flags["order"]:
        out["order"] = [_outcome(lambda: op(x, y)) for op in (
            lambda x, y: x < y, lambda x, y: x <= y, lambda x, y: x > y, lambda x, y: x >= y)
            for x, y in ((a, c), (c, a), (a, b), (a, 1))]
    probes = {"set field": lambda: setattr(a, first, getattr(c, first)),
              "delete field": lambda: delattr(a, first),
              "set other": lambda: setattr(a, "other", 1)}
    out["mutation"] = {name: _outcome(fn) for name, fn in probes.items()}
    out["after mutation"] = _outcome(lambda: repr(a))
    return out


@pytest.mark.parametrize("cls", sorted(SAMPLES, key=lambda c: c.__qualname__),
                         ids=lambda c: c.__qualname__)
def test_a_record_behaves_as_its_dataclass_twin(cls):
    twin = _twin(cls)
    expected = _transcript(twin, cls)
    got = _transcript(cls, cls)
    for key in expected:
        assert got[key] == expected[key], key
    assert got.keys() == expected.keys()


def test_every_record_has_samples():
    assert set(RECORDS) == set(SAMPLES) - {_Probe}
    assert len(RECORDS) == 30


def test_a_frozen_record_raises_frozen_instance_error():
    p = Point.of(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'coords'"):
        p.coords = (2.0,)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'coords'"):
        del p.coords


def test_a_method_of_its_own_is_kept():
    assert ArgminResult.__eq__.__qualname__ == "ArgminResult.__eq__"
    assert ArgminResult.__hash__.__qualname__ == "ArgminResult.__hash__"
    a = ArgminResult(np.zeros((2, 1)), 0.0)
    assert a == ArgminResult(np.zeros((2, 1)), 0.0) and hash(a) == hash((0.0, (2, 1)))


def test_an_uninit_field_with_a_plain_default_reads_the_class_attribute():
    tf = ToleranceField(Func(_zero), Cylinder(1.0, 1.0))
    assert "_range" not in vars(tf) and tf._range is None
    assert ToleranceField.constant(0.5, Cylinder(1.0, 1.0))._range == (0.5, 0.5)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_a_record_whose_fields_pickle_survives_a_pickle_round_trip(cls):
    a = cls(*SAMPLES[cls][0])
    try:
        pickle.dumps(tuple(getattr(a, f.name) for f in dataclasses.fields(cls)))
    except (pickle.PicklingError, AttributeError, TypeError):
        return  # a field holds a function or object pickle cannot name
    restored = pickle.loads(pickle.dumps(a))
    assert type(restored) is cls and restored == a and repr(restored) == repr(a)
    assert _outcome(lambda: hash(restored)) == _outcome(lambda: hash(a))
