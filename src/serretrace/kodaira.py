"""Static per-Kodaira-type data: SNC fibers, monodromy, Serre classes.

The special fiber of the minimal regular model is not strict normal
crossings for I1 (a node on the component itself), II (cusp), III
(tangency) and IV (triple point); the tables store the fiber *after* the
standard resolving blow-ups, with the usual exceptional multiplicities
(I1 -> {1,2}, II -> {1,2,3,6}, III -> {1,1,2,4}, IV -> {1,1,1,3}).  Each
entry is pinned down by two independent oracles in the test suite: Euler
bookkeeping under blow-up, and the error terms of the wild reduction
types that the wild locus of the table must reproduce.

Tame monodromy acts on H^1 through eigenvalues that the reduction type
determines: a primitive e-th root pair for the potentially good additive
types (e = 6, 4, 3, 2 for II/II*, III/III*, IV/IV*, I0*), a unipotent
block for Inu, and a quadratic twist of a unipotent block for Inu*
(nu >= 1), so that even-degree base change degenerates to the
multiplicative case.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .motivic import GrothElement
from .snc import Component, SncConfiguration
from .tate import KIND_FACTS, KodairaType, ReductionClass, n_components_for, reduction_class_for


# zeta_e^r + zeta_e^-r for r = 0 .. e - 1, as exact integers, for each
# eigenvalue order e of KIND_FACTS.
_ROOT_PAIR_TRACES = {
    1: (2,),
    2: (2, -2),
    3: (2, -1, -1),
    4: (2, 0, -2, 0),
    6: (2, 1, -1, -2, -1, 1),
}


class Monodromy(NamedTuple):
    """Action of the tame monodromy generator on H^1."""

    kind: str  # "good" | "multiplicative" | "twisted-multiplicative"
    order: Optional[int] = None  # eigenvalue order, for the "good" kind

    def h1_trace(self, d: int) -> int:
        """Trace of the d-th power of the monodromy operator on H^1."""
        # A unipotent block traces like the identity, its quadratic twist like -1.
        e = {"multiplicative": 1, "twisted-multiplicative": 2}.get(self.kind, self.order)
        return _ROOT_PAIR_TRACES[e][d % e]


def _line(*mults):
    """Chain of rational components with the given multiplicities."""
    comps = [Component(f"E{i}", m) for i, m in enumerate(mults)]
    edges = [(f"E{i}", f"E{i+1}") for i in range(len(mults) - 1)]
    return comps, edges


def snc_configuration(type_: KodairaType) -> SncConfiguration:
    """SNC special fiber of the minimal regular model (post blow-up)."""
    kind, nu = type_.kind, type_.nu
    if kind == "I0":
        return SncConfiguration([Component("E0", 1, genus=1)], [])
    if kind == "I":
        if nu == 1:
            # Blown-up node: strict transform meets the exceptional curve twice.
            return SncConfiguration(
                [Component("E0", 1), Component("E1", 2)],
                [("E0", "E1"), ("E0", "E1")],
            )
        comps = [Component(f"E{i}", 1) for i in range(nu)]
        edges = [(f"E{i}", f"E{(i + 1) % nu}") for i in range(nu)]
        if nu == 2:
            edges = [("E0", "E1"), ("E0", "E1")]
        return SncConfiguration(comps, edges)
    if kind == "II":
        # Cusp fully resolved: star with center of multiplicity 6.
        comps = [Component("C", 6), Component("T1", 1), Component("T2", 2), Component("T3", 3)]
        edges = [("C", "T1"), ("C", "T2"), ("C", "T3")]
        return SncConfiguration(comps, edges)
    if kind == "III":
        comps = [Component("C", 4), Component("T1", 1), Component("T2", 1), Component("T3", 2)]
        edges = [("C", "T1"), ("C", "T2"), ("C", "T3")]
        return SncConfiguration(comps, edges)
    if kind == "IV":
        comps = [Component("C", 3), Component("T1", 1), Component("T2", 1), Component("T3", 1)]
        edges = [("C", "T1"), ("C", "T2"), ("C", "T3")]
        return SncConfiguration(comps, edges)
    if kind == "I0*":
        comps = [Component("C", 2)] + [Component(f"T{i}", 1) for i in range(1, 5)]
        edges = [("C", f"T{i}") for i in range(1, 5)]
        return SncConfiguration(comps, edges)
    if kind == "I*":
        comps, edges = _line(*([2] * (nu + 1)))
        first, last = "E0", f"E{nu}"
        comps += [Component(f"A{i}", 1) for i in (1, 2)]
        comps += [Component(f"B{i}", 1) for i in (1, 2)]
        edges += [(first, "A1"), (first, "A2"), (last, "B1"), (last, "B2")]
        return SncConfiguration(comps, edges)
    if kind == "IV*":
        comps = [Component("C", 3)]
        edges = []
        for i in (1, 2, 3):
            comps += [Component(f"M{i}", 2), Component(f"T{i}", 1)]
            edges += [("C", f"M{i}"), (f"M{i}", f"T{i}")]
        return SncConfiguration(comps, edges)
    if kind == "III*":
        comps, edges = _line(1, 2, 3, 4, 3, 2, 1)
        comps.append(Component("F", 2))
        edges.append(("E3", "F"))
        return SncConfiguration(comps, edges)
    if kind == "II*":
        comps, edges = _line(1, 2, 3, 4, 5, 6, 4, 2)
        comps.append(Component("F", 3))
        edges.append(("E5", "F"))
        return SncConfiguration(comps, edges)
    raise ValueError(f"no SNC table for {type_}")


def monodromy(type_: KodairaType) -> Monodromy:
    order = KIND_FACTS[type_.kind].tame_order
    if order is not None:
        return Monodromy("good", order)
    return Monodromy("multiplicative" if type_.kind == "I" else "twisted-multiplicative")


def monodromy_trace(type_: KodairaType, d: int) -> int:
    """Trace of the d-th monodromy power on H^0 - H^1 + H^2 of the curve."""
    if d < 1:
        raise ValueError("monodromy power must be >= 1")
    return 2 - monodromy(type_).h1_trace(d)


def serre_class(type_: KodairaType) -> GrothElement:
    """Class of the Neron special fiber modulo (L - 1).

    Zero for multiplicative reduction (the fiber is a union of tori and
    affine lines over component points, all killed in the quotient), the
    component count for additive reduction, the class of the reduction
    itself for good reduction.
    """
    if reduction_class_for(type_) is ReductionClass.MULTIPLICATIVE:
        return GrothElement.zero()
    if reduction_class_for(type_) is ReductionClass.GOOD:
        return GrothElement.curve(1)
    return GrothElement.from_int(n_components_for(type_))


def atlas_types(max_nu: int = 3):
    """Representative list of all types, with I / I* indices up to max_nu."""
    out = []
    for kind, facts in KIND_FACTS.items():
        if facts.indexed:
            out += [KodairaType(kind, nu) for nu in range(1, max_nu + 1)]
        else:
            out.append(KodairaType(kind))
    return out
