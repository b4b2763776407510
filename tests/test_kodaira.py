import pytest

from serretrace import kodaira, motivic, snc
from serretrace.tate import KodairaType, error_term_for, n_components_for

ALL_TYPES = kodaira.atlas_types(4)

# Classical Euler numbers of the Kodaira fibers plus the number of
# blow-ups needed to reach strict normal crossings: an oracle for the
# chi of every stored configuration.
CLASSICAL_EULER = {
    "I0": 0, "I1": 1, "I2": 2, "I3": 3, "I4": 4,
    "II": 2, "III": 3, "IV": 4,
    "I0*": 6, "I1*": 7, "I2*": 8, "I3*": 9, "I4*": 10,
    "IV*": 8, "III*": 9, "II*": 10,
}
BLOWUPS = {"I1": 1, "II": 3, "III": 2, "IV": 1}


@pytest.mark.parametrize("type_", ALL_TYPES, ids=str)
def test_chi_fiber_is_classical_euler_plus_blowups(type_):
    config = kodaira.snc_configuration(type_)
    expected = CLASSICAL_EULER[str(type_)] + BLOWUPS.get(str(type_), 0)
    assert snc.chi_fiber(config) == expected


@pytest.mark.parametrize("type_", ALL_TYPES, ids=str)
def test_configurations_are_connected_with_reduced_gcd(type_):
    diag = snc.validate(kodaira.snc_configuration(type_))
    assert diag.ok
    assert diag.multiplicity_gcd == 1


def test_all_components_rational_except_good_reduction():
    for type_ in ALL_TYPES:
        config = kodaira.snc_configuration(type_)
        genera = [c.genus for c in config.components]
        if str(type_) == "I0":
            assert genera == [1]
        else:
            assert all(g == 0 for g in genera)


def test_i0star_fiber_chi_is_six():
    assert snc.chi_fiber(kodaira.snc_configuration(KodairaType("I0*"))) == 6


def test_II_fiber_chi_counts_blowups():
    assert snc.chi_fiber(kodaira.snc_configuration(KodairaType("II"))) == 5


def test_IIstar_fiber_chi_is_ten():
    assert snc.chi_fiber(kodaira.snc_configuration(KodairaType("II*"))) == 10


# ---- monodromy traces --------------------------------------------------------

def test_monodromy_trace_examples():
    assert kodaira.monodromy_trace(KodairaType("IV"), 1) == 3
    for nu in (1, 2, 5):
        for d in (1, 2, 3, 7):
            assert kodaira.monodromy_trace(KodairaType.I(nu), d) == 0
    for d in (1, 2, 3, 12):
        assert kodaira.monodromy_trace(KodairaType("I0"), d) == 0
    assert kodaira.monodromy_trace(KodairaType("II"), 2) == 3


def test_monodromy_trace_orbits():
    # II has order-6 eigenvalues: the d-orbit walks II, IV, I0*, IV*, II*, I0.
    values = [kodaira.monodromy_trace(KodairaType("II"), d) for d in range(1, 7)]
    assert values == [1, 3, 4, 3, 1, 0]
    # I* types: quadratic twist of the unipotent block.
    for nu in (1, 3):
        assert kodaira.monodromy_trace(KodairaType.I_star(nu), 1) == 4
        assert kodaira.monodromy_trace(KodairaType.I_star(nu), 2) == 0


def test_monodromy_trace_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        kodaira.monodromy_trace(KodairaType("II"), 0)


def test_monodromy_trace_at_one_matches_char_zero_trace():
    for type_ in ALL_TYPES:
        config = kodaira.snc_configuration(type_)
        assert kodaira.monodromy_trace(type_, 1) == snc.tame_trace(config, 0)


# ---- Serre classes ---------------------------------------------------------------

def test_serre_class_examples():
    assert kodaira.serre_class(KodairaType("IV")) == motivic.GrothElement.from_int(3)
    assert kodaira.serre_class(KodairaType.I(5)).is_zero()
    good = kodaira.serre_class(KodairaType("I0"))
    assert good == motivic.GrothElement.curve(1)
    assert motivic.euler(good) == 0


def test_serre_class_euler_equals_smooth_locus_chi():
    for type_ in ALL_TYPES:
        assert motivic.euler(kodaira.serre_class(type_)) == snc.smooth_locus_chi(
            kodaira.snc_configuration(type_)
        )


def test_n_components_for_convention():
    assert n_components_for(KodairaType("I0")) == 1
    assert n_components_for(KodairaType.I(7)) == 7
    assert n_components_for(KodairaType("II*")) == 1
    assert n_components_for(KodairaType("III")) == 2
    assert n_components_for(KodairaType("IV*")) == 3
    # The component group of Inu* has order 4 for every nu.
    for nu in (1, 2, 3, 9):
        assert n_components_for(KodairaType.I_star(nu)) == 4


# ---- the wild-locus error table ---------------------------------------------------

WILD_TABLE = {
    ("II", 2): 1, ("III", 2): 0, ("III*", 2): 0, ("II*", 2): 1,
    ("I0*", 2): -2, ("I1*", 2): -2, ("I2*", 2): -2, ("I3*", 2): -2, ("I4*", 2): -2,
    ("II", 3): 1, ("II*", 3): 1, ("IV", 3): -1, ("IV*", 3): -1,
}


def test_wild_locus_reproduces_the_error_table():
    for type_ in ALL_TYPES:
        for p in (2, 3):
            expected = WILD_TABLE.get((str(type_), p), 0)
            got = snc.wild_locus_chi(kodaira.snc_configuration(type_), p)
            assert got == expected, f"{type_} at p={p}"
            assert error_term_for(type_, p) == expected


def test_master_identity_over_types_and_characteristics():
    for type_ in ALL_TYPES:
        config = kodaira.snc_configuration(type_)
        serre_chi = motivic.euler(kodaira.serre_class(type_))
        for p in (0, 2, 3, 5, 7):
            assert serre_chi + snc.wild_locus_chi(config, p) == snc.tame_trace(config, p)
