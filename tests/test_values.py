"""Value semantics of the package's record classes.

Each frozen class compares equal field by field to an instance of its own
class only, hashes equal when equal, and refuses assignment; the three
mutable ones (witness, certificate, report) compare the same way and are
unhashable.  Importing the command line loads neither `dataclasses` nor
`inspect`.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import parapic
from parapic.covers import C2_GROUP, IDENTITY, CoverShape, FiniteGroup, RamificationVector
from parapic.descent import CGReport, DescentCertificate
from parapic.dynkin import (
    AffineType,
    FiniteType,
    all_affine_types,
    parse_affine_type,
)
from parapic.factorization import BaseCase, DecompositionWitness
from parapic.picard import GroupDatum, PointDatum, WeightBundle, datum_from_json
from parapic.verlinde import RankResult

SRC = Path(parapic.__file__).resolve().parents[1]
T12 = (2, 1, 3)
A2_2 = parse_affine_type("A2~2")


def _point(label="x1"):
    return PointDatum(label, A2_2, {1}, T12, True)


#: class name -> (a factory of fresh equal instances, one field name)
FROZEN = {
    "FiniteType": (lambda: FiniteType("A", 2), "rank"),
    "AffineType": (lambda: AffineType(FiniteType("A", 2), 2, A2_2.cartan, A2_2.dual_labels),
                   "twist"),
    "FiniteGroup": (lambda: FiniteGroup("C2", (IDENTITY, T12)), "elements"),
    "RamificationVector": (lambda: RamificationVector(C2_GROUP, (T12, T12)), "elements"),
    "CoverShape": (lambda: CoverShape(1, 1), "genus"),
    "PointDatum": (_point, "label"),
    "GroupDatum": (lambda: GroupDatum(0, C2_GROUP, [_point("x1"), _point("x2")]), "points"),
    "WeightBundle": (lambda: WeightBundle((("x1", ((1, 1),)),)), "entries"),
    "RankResult": (lambda: RankResult(2, [("S3Case1", 2)]), "value"),
}


def _witness():
    return DecompositionWitness([BaseCase("UntwistedVacuum", (IDENTITY,), (((0, 1),),), ("h",))])


def _certificate():
    return DescentCertificate(WeightBundle((("x1", ((1, 1),)),)), 1, _witness(), 1,
                              "Descends", "gsd2")


MUTABLE = {
    "DecompositionWitness": (_witness, "steps"),
    "DescentCertificate": (_certificate, "route"),
    "CGReport": (lambda: CGReport(1, 1, 1, _certificate()), "exact"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_instance_refuses_assignment(name):
    make, field = FROZEN[name]
    x = make()
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, field) is before and not hasattr(x, "extra")


@pytest.mark.parametrize("name", FROZEN)
def test_equal_frozen_instances_hash_equal(name):
    x, y = FROZEN[name][0](), FROZEN[name][0]()
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) and len({x, y}) == 1


@pytest.mark.parametrize("name", [*FROZEN, *MUTABLE])
def test_an_instance_equals_no_tuple_and_no_other_class(name):
    make, _ = {**FROZEN, **MUTABLE}[name]
    x = make()
    fields = tuple(getattr(x, f) for f in type(x)._fields)
    assert x != fields and fields != x
    assert x != fields[0] and x != list(fields)
    for other, (make_other, _) in {**FROZEN, **MUTABLE}.items():
        if other != name:
            assert x != make_other()


@pytest.mark.parametrize("name", MUTABLE)
def test_a_mutable_record_is_unhashable_and_compares_by_field(name):
    make, field = MUTABLE[name]
    x, y = make(), make()
    assert x == y
    with pytest.raises(TypeError):
        hash(x)
    setattr(y, field, None)
    assert x != y and getattr(y, field) is None


def test_a_changed_field_breaks_equality():
    assert FiniteType("A", 2) != FiniteType("A", 3)
    assert _point("x1") != _point("x2")
    assert WeightBundle((("x1", ((1, 1),)),)) != WeightBundle((("x1", ((1, 2),)),))
    assert RankResult(2, [("a", 2)]) != RankResult(2, [("b", 2)])


def test_repr_names_the_class_and_every_field():
    assert repr(FiniteType("A", 2)) == "FiniteType(series='A', rank=2)"
    assert repr(CoverShape(3, 1)) == "CoverShape(genus=3, component_count=1)"
    assert repr(DecompositionWitness()) == "DecompositionWitness(factors=[], steps=[])"
    assert repr(_point()) == (
        f"PointDatum(label='x1', affine_type={A2_2!r}, facet=frozenset({{1}}), "
        "monodromy=(2, 1, 3), is_bad=True)")


def test_affine_type_hash_is_that_of_base_and_twist():
    for t in all_affine_types():
        assert hash(t) == hash((t.base, t.twist))
        assert t.vertices == tuple(range(len(t.dual_labels)))
        assert t.vertex_set == frozenset(t.vertices)


def test_defaults_and_conversions_are_kept():
    p = PointDatum("x", parse_affine_type("D4"), [0, 1])
    assert p.facet == frozenset({0, 1}) and type(p.facet) is frozenset
    assert p.monodromy == IDENTITY and p.is_bad is False
    assert type(GroupDatum(0, C2_GROUP, [_point("x1"), _point("x2")]).points) is tuple
    assert RankResult(2, [("a", 2)]).derivation == (("a", 2),)
    assert WeightBundle((("x1", ((1, 1),)),)).weight("x1") == ((1, 1),)


def test_two_witnesses_never_share_lists():
    a, b = DecompositionWitness(), DecompositionWitness()
    assert a.factors is not b.factors and a.steps is not b.steps
    a.factors.append(None)
    a.steps.append({})
    assert b.factors == [] and b.steps == []
    given = []
    assert DecompositionWitness(given).factors is given


def test_a_relabelled_point_equals_one_checked_afresh():
    raw = {"type": "A2~2", "facet": [1], "monodromy": "(12)", "bad": True}
    d = datum_from_json({"schema": 1, "genus": 0, "group": "C2",
                         "points": [{"label": "x1", **raw}, {"label": "x2", **raw}]})
    fresh = _point("x2")
    relabelled = d.points[1]
    assert type(relabelled) is PointDatum
    assert relabelled == fresh and hash(relabelled) == hash(fresh)
    assert repr(relabelled) == repr(fresh)
    with pytest.raises(AttributeError):
        relabelled.label = "x3"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, as each `parapic` process starts
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import parapic.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
