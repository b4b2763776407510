"""Start-up cost and the record classes.

The frozen records of the library are ``typing.NamedTuple`` classes, so
importing the CLI needs neither ``dataclasses`` nor what it loads
(``inspect``, ``ast``, ``dis``, ``tokenize``).  Their ``repr``, equality
and hashing are those the earlier frozen dataclasses had; being tuples,
they are also iterable and compare equal to a plain tuple of their fields.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from serretrace import kodaira, motivic, pipeline, snc, tate
from serretrace.localfield import LocalFieldSpec
from serretrace.tate import KodairaType
from serretrace.weierstrass import WeierstrassModel

SRC = Path(__file__).resolve().parents[1] / "src"

_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # importlib.resources itself loads inspect from Python 3.12 on, so the
    # check is on the modules serretrace adds to those of its stdlib imports.
    script = (
        "import sys\n"
        f"heavy = {_HEAVY!r}\n"
        "import argparse, importlib.resources\n"
        "stdlib = {m for m in heavy if m in sys.modules}\n"
        "import serretrace.cli\n"
        "print(sorted(m for m in heavy if m in sys.modules and m not in stdlib))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[]"


_CUSP = WeierstrassModel.from_literals("laurent:Q", "0", "0", "0", "0", "t")

_REPORT_II = (
    "Report(field='laurent:Q', coefficients={'a1': '0', 'a2': '0', 'a3': '0', 'a4': '0', "
    "'a6': 't'}, type=KodairaType(kind='II', nu=None), v_delta_min=2, n_components=1, "
    "reduction=<ReductionClass.ADDITIVE: 'additive'>, p=0, serre_class='1', serre_euler=1, "
    "tame=True, error_term=0, trace_table=1, trace_snc=1, trace_monodromy=1, holds=True, "
    "consistent=True, warnings=())"
)
_REPORT_IV = (
    "Report(field='laurent:Q', coefficients={'a1': '0', 'a2': '0', 'a3': '0', 'a4': '0', "
    "'a6': 't^2'}, type=KodairaType(kind='IV', nu=None), v_delta_min=4, n_components=3, "
    "reduction=<ReductionClass.ADDITIVE: 'additive'>, p=0, serre_class='3', serre_euler=3, "
    "tame=True, error_term=0, trace_table=3, trace_snc=3, trace_monodromy=3, holds=True, "
    "consistent=True, warnings=())"
)

# Each record of the library, built the way the program builds it, with the
# repr the frozen dataclass version printed (CorpusSummary has since gained
# its ``errors`` field).
RECORDS = {
    "Report": (lambda: pipeline.analyze(_CUSP), _REPORT_II),
    "BaseChangeCheck": (
        lambda: pipeline.base_change_check(_CUSP, 2),
        f"BaseChangeCheck(original={_REPORT_II}, substituted={_REPORT_IV}, degree=2, "
        "serre_euler_after=3, predicted_trace=3, agrees=True)",
    ),
    "TorsorReport": (
        lambda: pipeline.torsor_analyze(KodairaType("II"), 0, 2),
        "TorsorReport(jacobian_type=KodairaType(kind='II', nu=None), p=0, m=2, serre_euler=0, "
        "error_term=1, scaled_smooth_chi=0, holds=True, warnings=('no torsor of order prime "
        "to p exists over an additive-reduction Jacobian (the Weil-Chatelet group is a "
        "p-group); this is a formal answer',))",
    ),
    "CorpusSummary": (
        lambda: pipeline.corpus_run("laurent:Q;0;0;0;0;t\n"),
        f"CorpusSummary(reports=({_REPORT_II},), type_counts={{'II': 1}}, holds_count=1, "
        "fails_count=0, consistency_failures=0, errors=())",
    ),
    "LocalFieldSpec": (
        lambda: LocalFieldSpec.parse("padic:5"),
        "LocalFieldSpec(kind='padic', residue_field=F5)",
    ),
    "Monodromy": (lambda: kodaira.Monodromy("good", 6), "Monodromy(kind='good', order=6)"),
    "KodairaType": (lambda: KodairaType("I", 3), "KodairaType(kind='I', nu=3)"),
    "LocalInvariants": (
        lambda: tate.tate_algorithm(_CUSP),
        re.compile(
            r"LocalInvariants\(type=KodairaType\(kind='II', nu=None\), v_delta_min=2, "
            r"minimal_model=<serretrace\.weierstrass\.WeierstrassModel object at 0x[0-9a-f]+>, "
            r"n_components=1, reduction_class=<ReductionClass\.ADDITIVE: 'additive'>, p=0\)"
        ),
    ),
    "QuotientComparison": (
        lambda: motivic.eq_mod_L_minus_1(motivic.parse_groth("L"), motivic.parse_groth("pt")),
        "QuotientComparison(verdict=<QuotientVerdict.INDISTINGUISHABLE: 'indistinguishable'>, "
        "residue=IntPoly(0))",
    ),
    "Component": (lambda: snc.Component("E0", 2), "Component(id='E0', multiplicity=2, genus=0)"),
    "LocalMarking": (
        lambda: snc.LocalMarking({"E0": 1}),
        "LocalMarking(external_degree={'E0': 1})",
    ),
    "Diagnostics": (
        lambda: snc.validate(kodaira.snc_configuration(KodairaType("II"))),
        "Diagnostics(ok=True, failures=(), multiplicity_gcd=1, chi_fiber=5)",
    ),
    "StandardInvariants": (
        lambda: _CUSP._invariants,
        "StandardInvariants(b2=ValuedElement(laurent:Q, 0), b4=ValuedElement(laurent:Q, 0), "
        "b6=ValuedElement(laurent:Q, 4*t), b8=ValuedElement(laurent:Q, 0), "
        "c4=ValuedElement(laurent:Q, 0), c6=ValuedElement(laurent:Q, -864*t), "
        "delta=ValuedElement(laurent:Q, -432*t^2), j=ValuedElement(laurent:Q, 0))",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_equality_and_hash_are_those_of_the_frozen_dataclass(name):
    make, expected = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    if isinstance(expected, str):
        assert repr(record) == expected
    else:
        assert expected.fullmatch(repr(record))
    fields = tuple(getattr(record, field) for field in record._fields)
    copy = type(record)(*fields)
    assert copy == record and not copy != record
    # A frozen dataclass hashes the tuple of its fields, and is unhashable
    # when one of them is.
    try:
        expected_hash = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected_hash


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name][0]()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_records_differ_on_a_field_and_are_tuples():
    assert KodairaType("I", 3) != KodairaType("I", 4)
    assert KodairaType.parse("I3") == KodairaType.I(3) == ("I", 3)
    assert hash(KodairaType("II")) == hash(("II", None))
    kind, nu = KodairaType.I_star(2)
    assert (kind, nu) == ("I*", 2)


@pytest.mark.parametrize("args", [("I", 0), ("I*", None), ("I0", 2), ("X",)], ids=str)
def test_kodaira_type_rejects_bad_symbols(args):
    with pytest.raises(ValueError):
        KodairaType(*args)
