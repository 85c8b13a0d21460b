"""The package's immutable value records: construction, repr, equality,
hashing, immutability, copying and pickling, and an import of the CLI that
loads neither dataclasses nor inspect."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from edgecolorkit import (
    CnfFormula,
    GadgetGraph,
    GadgetSpec,
    KeyPropertyReport,
    MultiGraph,
    PartitionSpectrum,
    ReductionCertificate,
    ReplacedBlock,
    StratifiedSystem,
    WitnessColoring,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PATH3 = GadgetGraph(MultiGraph(3, [(0, 1), (1, 2)]), (0, 2))

# Each record with its field values, and its repr as a dataclass printed it.
RECORDS = [
    (
        MultiGraph,
        (3, ((0, 1), (1, 2))),
        "MultiGraph(vertex_count=3, edges=((0, 1), (1, 2)))",
    ),
    (
        GadgetGraph,
        (MultiGraph(2, [(0, 1)]), (0, 1)),
        "GadgetGraph(base=MultiGraph(vertex_count=2, edges=((0, 1),)), dangling=(0, 1))",
    ),
    (
        ReplacedBlock,
        (3, 1, (2, 3), 4),
        "ReplacedBlock(vertex_offset=3, entry_edge=1, internal_edges=(2, 3), exit_edge=4)",
    ),
    (
        GadgetSpec,
        ("h", 2, False, PATH3),
        "GadgetSpec(name='h', r=2, planar_claimed=False, gadget=GadgetGraph(base="
        "MultiGraph(vertex_count=3, edges=((0, 1), (1, 2))), dangling=(0, 2)))",
    ),
    (
        KeyPropertyReport,
        ("h3", 3, True, 4, ((4, 0), (0, 4)), 4, 0),
        "KeyPropertyReport(gadget_name='h3', kappa=3, holds=True, c=4,"
        " matrix=((4, 0), (0, 4)), a=4, b=0)",
    ),
    (
        WitnessColoring,
        ((0, 1), (2,)),
        "WitnessColoring(edge_colors=(0, 1), boundary=(2,))",
    ),
    (
        PartitionSpectrum,
        (3, (0, 1, 2, 3)),
        "PartitionSpectrum(kappa=3, counts=(0, 1, 2, 3))",
    ),
    (
        ReductionCertificate,
        ("h3", 3, 3, 4, 9),
        "ReductionCertificate(gadget_name='h3', kappa=3, r=3, c=4, edge_count=9)",
    ),
    (
        StratifiedSystem,
        (1, 5, -1, (5, -1), (4, 26), (Fraction(1, 2), Fraction(3, 4)), 5, False),
        "StratifiedSystem(m=1, lambda1=5, lambda2=-1, column_values=(5, -1), rows=(4, 26),"
        " solution=(Fraction(1, 2), Fraction(3, 4)), recovered=5, derived=False)",
    ),
    (
        CnfFormula,
        (2, ((1, -2), ())),
        "CnfFormula(variable_count=2, clauses=((1, -2), ()))",
    ),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _fields(cls):
    return list(cls.__dict__["__annotations__"])


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(cls, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_equal_records_hash_equal_and_types_differ(cls, values, text):
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for other_cls, other_values, _ in RECORDS:
        if other_cls is not cls:
            assert a != other_cls(*other_values)
    assert a != tuple(values)
    assert a.__eq__(tuple(values)) is NotImplemented


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, values, text):
    record = cls(*values)
    for name in _fields(cls) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_keyword_construction_and_bad_arguments(cls, values, text):
    names = _fields(cls)
    assert len(names) == len(values)
    record = cls(*values)
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record
    with pytest.raises(TypeError):
        cls(*values[:-1])  # a field missing
    with pytest.raises(TypeError):
        cls(*values, values[-1])  # one value too many
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})  # a field given twice
    with pytest.raises(TypeError):
        cls(*values, extra=0)  # no such field


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle_give_equal_records(cls, values, text):
    record = cls(*values)
    for twin in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, _fields(cls)[0], 0)


def test_gadget_spec_validates_every_construction():
    with pytest.raises(ValueError, match="not 3-regular"):
        GadgetSpec("h", 3, False, PATH3)
    with pytest.raises(ValueError, match="not 3-regular"):
        GadgetSpec(name="h", r=3, planar_claimed=False, gadget=PATH3)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S skips site hooks, which may import modules of their own.
    code = (
        "import sys, edgecolorkit.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
