import random

import pytest

from serretrace.snc import (
    Component,
    InconsistentMarking,
    LocalMarking,
    SncConfiguration,
    UnknownComponent,
    chi_fiber,
    chi_open,
    local_trace,
    parse_config,
    scale_multiplicities,
    smooth_locus_chi,
    tame_trace,
    validate,
    wild_locus_chi,
)


def cycle(nu: int) -> SncConfiguration:
    comps = [Component(f"E{i}", 1) for i in range(nu)]
    if nu == 2:
        edges = [("E0", "E1"), ("E0", "E1")]
    else:
        edges = [(f"E{i}", f"E{(i + 1) % nu}") for i in range(nu)]
    return SncConfiguration(comps, edges)


def star_i0():
    comps = [Component("C", 2)] + [Component(f"T{i}", 1) for i in range(4)]
    return SncConfiguration(comps, [("C", f"T{i}") for i in range(4)])


def test_chi_open_examples():
    config = SncConfiguration(
        [Component("A", 1, genus=0), Component("B", 1, genus=1)],
        [("A", "B")] * 4,
    )
    assert chi_open(config, "A") == -2  # P^1 minus 4 points
    lone = SncConfiguration([Component("E", 1, genus=1)], [])
    assert chi_open(lone, "E") == 0
    assert chi_open(star_i0(), "C") == -2


def test_chi_open_unknown_component():
    with pytest.raises(UnknownComponent):
        chi_open(star_i0(), "missing")


def test_degree_counts_edge_endpoints_on_random_multigraphs():
    rng = random.Random(3571)
    for _ in range(100):
        size = rng.randint(2, 8)
        comps = [Component(f"V{i}", 1) for i in range(size)]
        edges = [
            tuple(f"V{i}" for i in rng.sample(range(size), 2))
            for _ in range(rng.randint(0, 12))
        ]
        config = SncConfiguration(comps, edges)
        for c in comps:
            assert config.degree(c.id) == sum((a == c.id) + (b == c.id) for a, b in edges)
        with pytest.raises(UnknownComponent):
            config.degree("missing")


def test_chi_fiber_examples():
    assert chi_fiber(cycle(3)) == 3
    assert chi_fiber(SncConfiguration([Component("E", 1, genus=1)], [])) == 0


def test_smooth_locus_examples():
    from serretrace import kodaira
    from serretrace.tate import KodairaType

    assert smooth_locus_chi(kodaira.snc_configuration(KodairaType("IV"))) == 3
    for nu in (2, 3, 5):
        assert smooth_locus_chi(cycle(nu)) == 0
    for nu in (1, 2, 4):
        assert smooth_locus_chi(kodaira.snc_configuration(KodairaType.I_star(nu))) == 4


def test_wild_locus_examples():
    from serretrace import kodaira
    from serretrace.tate import KodairaType

    assert wild_locus_chi(kodaira.snc_configuration(KodairaType("I0*")), 2) == -2
    assert wild_locus_chi(kodaira.snc_configuration(KodairaType("II")), 3) == 1
    for type_ in kodaira.atlas_types(2):
        assert wild_locus_chi(kodaira.snc_configuration(type_), 0) == 0


def test_tame_trace_examples():
    from serretrace import kodaira
    from serretrace.tate import KodairaType

    assert tame_trace(kodaira.snc_configuration(KodairaType("IV")), 0) == 3
    for nu in (1, 2, 4):
        for p in (0, 2, 3):
            assert tame_trace(cycle(max(nu, 2)), p) == 0
    assert tame_trace(kodaira.snc_configuration(KodairaType.I_star(2)), 2) == 2


def test_scale_multiplicities():
    config = star_i0()
    assert scale_multiplicities(config, 1) == config
    doubled = scale_multiplicities(config, 2)
    assert [c.multiplicity for c in doubled.components] == [4, 2, 2, 2, 2]
    assert smooth_locus_chi(doubled) == 0
    assert wild_locus_chi(scale_multiplicities(cycle(3), 2), 2) == 0
    assert chi_fiber(doubled) == chi_fiber(config)
    assert doubled.edges == config.edges


def test_scale_preserves_chi_and_kills_smooth_locus_randomized():
    rng = random.Random(2718)
    for _ in range(40):
        config = _random_connected(rng)
        for m in (2, 3, 5):
            scaled = scale_multiplicities(config, m)
            assert chi_fiber(scaled) == chi_fiber(config)
            assert smooth_locus_chi(scaled) == 0


def test_self_edges_are_rejected():
    with pytest.raises(ValueError):
        SncConfiguration([Component("A", 1)], [("A", "A")])


def test_validate_examples():
    diag = validate(star_i0())
    assert diag.ok and diag.multiplicity_gcd == 1 and diag.chi_fiber == 6
    disconnected = SncConfiguration([Component("A", 1), Component("B", 1)], [])
    bad = validate(disconnected)
    assert not bad.ok and "NotConnected" in bad.failures
    scaled = validate(scale_multiplicities(star_i0(), 2))
    assert scaled.ok and scaled.multiplicity_gcd == 2


# ---- local (analytic Milnor fiber) markings -------------------------------------

def a_chain(n: int):
    """Marked exceptional chain of the A_{n-1} singularity xy = t^n."""
    size = n - 1
    comps = [Component(f"X{i}", 1) for i in range(size)]
    edges = [(f"X{i}", f"X{i+1}") for i in range(size - 1)]
    config = SncConfiguration(comps, edges)
    external = {}
    for i in range(size):
        external[f"X{i}"] = (i == 0) + (i == size - 1)
    return config, LocalMarking(external)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_a_chain_has_zero_serre_side_and_zero_trace(n):
    config, marking = a_chain(n)
    for p in (0, 2, 3, 5):
        assert local_trace(config, marking, p) == (0, 0)


def test_a_chain_n1_is_empty_marking():
    config, marking = a_chain(1)
    assert local_trace(config, marking, 2) == (0, 0)


def test_smooth_point_gives_one():
    config = SncConfiguration([Component("X", 1)], [])
    marking = LocalMarking({"X": 1})
    for p in (0, 2, 5):
        assert local_trace(config, marking, p) == (1, 1)


def test_full_marking_reduces_to_global_quantities():
    from serretrace import kodaira

    rng = random.Random(31)
    configs = [kodaira.snc_configuration(t) for t in kodaira.atlas_types(2)]
    configs += [_random_connected(rng) for _ in range(10)]
    for config in configs:
        marking = LocalMarking({c.id: 0 for c in config.components})
        for p in (0, 2, 3):
            assert local_trace(config, marking, p) == (
                smooth_locus_chi(config),
                tame_trace(config, p),
            )


def test_marking_consistency_checks():
    config, _ = a_chain(4)
    with pytest.raises(InconsistentMarking):
        local_trace(config, LocalMarking({"nope": 0}), 2)
    # X1 really does meet the unmarked X0 and X2 inside the configuration.
    with pytest.raises(InconsistentMarking):
        local_trace(config, LocalMarking({"X1": 0}), 2)
    assert local_trace(config, LocalMarking({"X1": 2}), 2) == (0, 0)


# ---- chi additivity against an independent normalization count ------------------

def _random_connected(rng: random.Random) -> SncConfiguration:
    size = rng.randint(1, 7)
    comps = [
        Component(f"V{i}", rng.randint(1, 6), genus=rng.choice([0, 0, 0, 1, 2]))
        for i in range(size)
    ]
    edges = []
    for i in range(1, size):
        edges.append((f"V{i}", f"V{rng.randrange(i)}"))
    for _ in range(rng.randint(0, 4)):
        if size >= 2:
            a, b = rng.sample(range(size), 2)
            edges.append((f"V{a}", f"V{b}"))
    return SncConfiguration(comps, edges)


def test_chi_additivity_random_graphs():
    # Independent oracle: gluing two points into one intersection point
    # drops chi by one, so chi(fiber) = sum chi(components) - #edges.
    rng = random.Random(1618)
    for _ in range(200):
        config = _random_connected(rng)
        normalization = sum(2 - 2 * c.genus for c in config.components)
        assert chi_fiber(config) == normalization - len(config.edges)
        total_open = sum(chi_open(config, c.id) for c in config.components)
        assert chi_fiber(config) == total_open + len(config.edges)


def test_tame_trace_equals_smooth_chi_when_p_divides_no_multiplicity():
    rng = random.Random(55)
    for _ in range(100):
        config = _random_connected(rng)
        for p in (2, 3, 5, 7):
            if all(c.multiplicity % p for c in config.components):
                assert tame_trace(config, p) == smooth_locus_chi(config)


def test_parse_config_round_trip():
    text = """
# the I0* fiber
component C 2 0
component T1 1 0
component T2 1 0
component T3 1 0
component T4 1 0
edge C T1
edge C T2
edge C T3
edge C T4
"""
    config = parse_config(text)
    assert chi_fiber(config) == 6
    assert smooth_locus_chi(config) == 4
    assert wild_locus_chi(config, 2) == -2


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_config("component A 1\n")
    with pytest.raises(ValueError):
        parse_config("vertex A 1 0\n")
