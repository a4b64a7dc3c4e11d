"""The ten record classes: constructors, defaults, equality, hashing, repr and immutability.

Each class is built from one row of `CASES`: its field names in order, the
values of its required fields and the defaults of the others.  The tests pin
the behaviour callers rely on, whatever generates the methods.
"""

import pytest

from homyb import Matrix, ParamSet, Scalar, StructureError
from homyb._record import replace
from homyb.catalog import CatalogEntry, TableComparison
from homyb.constructions import Construction, Recipe, SolutionOperator
from homyb.structures import HomAlgebra, HomCoalgebra, HomLieAlgebra, _StructureBase
from homyb.verify import VerificationReport, Witness

P = ParamSet(["a"])
A = Scalar(P, {(1,): 1})
M = Matrix.from_rows(P, [[A]])


class _Bare(_StructureBase):
    """The base's own fields, with a twist as its only map."""

    _maps = {"alpha": (1, 1)}


_BASE = ("one", ("e",), P, M)
_ALGEBRA = HomAlgebra(*_BASE, M, M)

# class -> (field names, required values, defaults of the remaining fields, hashable)
CASES = {
    _Bare: (["name", "basis", "params", "alpha"], _BASE, {}, False),
    HomAlgebra: (["name", "basis", "params", "alpha", "mu", "eta"], (*_BASE, M, M), {}, False),
    HomCoalgebra: (["name", "basis", "params", "alpha", "delta", "epsilon"],
                   (*_BASE, M, M), {}, False),
    HomLieAlgebra: (["name", "basis", "params", "alpha", "bracket"], (*_BASE, M), {}, False),
    Recipe: (["kind", "first", "second", "twist", "flipped", "inverts", "nu_is_one"],
             (HomAlgebra, (1, 0), None, (0, 1)),
             {"flipped": False, "inverts": None, "nu_is_one": False}, True),
    SolutionOperator: (["matrix", "construction", "lam", "nu", "source"],
                       (M, Construction.ALG21, A, A, _ALGEBRA), {}, False),
    Witness: (["row", "col", "residual", "label"], (3, 4, A), {"label": ""}, True),
    VerificationReport: (["check_name", "holds", "witnesses", "elapsed_ms", "subreports", "metadata"],
                         ("hybe", False, []), {"elapsed_ms": 0.0, "subreports": [], "metadata": {}},
                         False),
    CatalogEntry: (["id", "description", "structure", "notes", "variant", "expected_table",
                    "documented_mismatches", "expected_failures", "u", "involutive_at", "checks"],
                   ("ex", "an entry", _ALGEBRA, ("n",)),
                   {"variant": None, "expected_table": None, "documented_mismatches": frozenset(),
                    "expected_failures": frozenset(), "u": None, "involutive_at": {},
                    "checks": ("axioms",)}, False),
    TableComparison: (["left", "right", "left_name", "right_name", "expected", "computed", "match"],
                      (0, 1, "x", "y", (A,), (A,), True), {}, False),
}
FROZEN = {_Bare, HomAlgebra, HomCoalgebra, HomLieAlgebra, Recipe, SolutionOperator, Witness,
          CatalogEntry}
IDS = [cls.__name__ for cls in CASES]


def _other(value):
    """A value of the same kind that compares unequal to `value`."""
    if isinstance(value, Matrix):
        return value + value
    if isinstance(value, Scalar):
        return value + 1
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "'"
    if isinstance(value, (tuple, list)):
        return type(value)([*value, value[0] if value else 1])
    if isinstance(value, type):
        return HomCoalgebra
    if isinstance(value, Construction):
        return Construction.ALG24
    if isinstance(value, HomAlgebra):
        return value.substitute({"a": 2})
    raise AssertionError(f"no unequal value for {value!r}")


@pytest.mark.parametrize("cls", CASES, ids=IDS)
class TestRecords:
    def test_positional_and_keyword_construction_agree(self, cls):
        names, required, defaults, _ = CASES[cls]
        values = [*required, *defaults.values()]
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        assert by_position == by_keyword
        assert vars(by_position) == vars(by_keyword) == dict(zip(names, values))
        assert list(vars(by_keyword)) == names

    def test_defaults_fill_the_optional_fields_and_are_fresh(self, cls):
        names, required, defaults, _ = CASES[cls]
        first, second = cls(*required), cls(*required)
        assert vars(first) == dict(zip(names, [*required, *defaults.values()]))
        for name, default in defaults.items():
            if isinstance(default, (list, dict)):
                assert getattr(first, name) is not getattr(second, name)

    def test_bad_calls_raise_type_error(self, cls):
        names, required, defaults, _ = CASES[cls]
        with pytest.raises(TypeError):
            cls(*required[:-1])
        with pytest.raises(TypeError):
            cls(*required, *defaults.values(), None)
        with pytest.raises(TypeError):
            cls(*required, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*required, **{names[0]: required[0]})

    def test_equality_reads_every_field_and_the_class(self, cls):
        names, required, defaults, _ = CASES[cls]
        values = [*required, *defaults.values()]
        obj = cls(*values)
        assert obj == cls(*values) and not obj != cls(*values)
        assert obj.__eq__(object()) is NotImplemented
        assert obj != values
        for i, value in enumerate(values):
            if value is None or isinstance(value, (frozenset, dict)) or names[i] in ("basis", "params"):
                continue  # no unequal value that passes the structure's shape checks
            changed = [*values[:i], _other(value), *values[i + 1:]]
            assert obj != cls(*changed), names[i]

    def test_hash_follows_the_fields_or_is_refused(self, cls):
        _, required, _, hashable = CASES[cls]
        if hashable:
            assert hash(cls(*required)) == hash(cls(*required))
            assert len({cls(*required), cls(*required)}) == 1
        else:
            with pytest.raises(TypeError):
                hash(cls(*required))

    def test_replace_copies_the_fields_and_nothing_else(self, cls):
        names, required, _, _ = CASES[cls]
        obj = cls(*required)
        vars(obj)["extra"] = 1  # an attribute kept beside the fields, as a memo is
        copy = replace(obj)
        assert copy == obj and list(vars(copy)) == names
        assert not hasattr(copy, "extra")
        assert replace(obj, **{names[0]: required[0]}) == obj

    def test_frozen_classes_refuse_assignment(self, cls):
        names, required, _, _ = CASES[cls]
        obj = cls(*required)
        if cls in FROZEN:
            with pytest.raises(AttributeError):
                setattr(obj, names[0], required[0])
            with pytest.raises(AttributeError):
                delattr(obj, names[0])
            if cls is not _Bare:  # a plain subclass of a frozen record may add attributes
                with pytest.raises(AttributeError):
                    obj.extra = 1
        else:
            setattr(obj, names[0], required[0])
            assert getattr(obj, names[0]) == required[0]


REPRS = {
    _Bare: "_Bare(name='one', basis=('e',), params=ParamSet(a), alpha=Matrix(1x1: a))",
    HomAlgebra: ("HomAlgebra(name='one', basis=('e',), params=ParamSet(a), alpha=Matrix(1x1: a), "
                 "mu=Matrix(1x1: a), eta=Matrix(1x1: a))"),
    HomCoalgebra: ("HomCoalgebra(name='one', basis=('e',), params=ParamSet(a), "
                   "alpha=Matrix(1x1: a), delta=Matrix(1x1: a), epsilon=Matrix(1x1: a))"),
    HomLieAlgebra: ("HomLieAlgebra(name='one', basis=('e',), params=ParamSet(a), "
                    "alpha=Matrix(1x1: a), bracket=Matrix(1x1: a))"),
    Recipe: ("Recipe(kind=<class 'homyb.structures.HomAlgebra'>, first=(1, 0), second=None, "
             "twist=(0, 1), flipped=False, inverts=None, nu_is_one=False)"),
    SolutionOperator: ("SolutionOperator(matrix=Matrix(1x1: a), "
                       "construction=<Construction.ALG21: 'thm2.1'>, lam=Scalar('a'), "
                       "nu=Scalar('a'), source=" + repr(_ALGEBRA) + ")"),
    Witness: "Witness(row=3, col=4, residual=Scalar('a'), label='')",
    VerificationReport: ("VerificationReport(check_name='hybe', holds=False, witnesses=[], "
                         "elapsed_ms=0.0, subreports=[], metadata={})"),
    CatalogEntry: ("CatalogEntry(id='ex', description='an entry', structure=" + repr(_ALGEBRA)
                   + ", notes=('n',), variant=None, expected_table=None, "
                   "documented_mismatches=frozenset(), expected_failures=frozenset(), u=None, "
                   "involutive_at={}, checks=('axioms',))"),
    TableComparison: ("TableComparison(left=0, right=1, left_name='x', right_name='y', "
                      "expected=(Scalar('a'),), computed=(Scalar('a'),), match=True)"),
}


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_repr_names_every_field_in_order(cls):
    assert repr(cls(*CASES[cls][1])) == REPRS[cls]


@pytest.mark.parametrize("by_keyword", [False, True], ids=["positional", "keyword"])
def test_structure_shapes_are_checked_on_construction(by_keyword):
    wrong = Matrix.zeros(1, 2, P)
    values = dict(zip(CASES[HomAlgebra][0], (*_BASE, wrong, M)))
    with pytest.raises(StructureError, match="mu: expected 1x1, got 1x2"):
        HomAlgebra(**values) if by_keyword else HomAlgebra(*values.values())
    with pytest.raises(StructureError, match="empty basis"):
        HomLieAlgebra("none", (), P, M, M)

