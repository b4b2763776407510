"""Combinatorics of strict-normal-crossings special fibers.

A configuration is the weighted dual graph of the special fiber
Y_s = sum N_i E_i of a regular model: vertices carry a multiplicity and a
genus, edges are transversal intersection points of two distinct
components (a multiset; two components may meet several times; no
self-edges, which is what *strict* normal crossings buys).

All the quantities of interest are Euler characteristics of unions of
open strata E_i-minus-the-others, so everything here is exact integer
bookkeeping on the graph:

* chi of an open stratum is 2 - 2g_i - deg(i);
* the smooth locus of Y_s is the union of the multiplicity-1 strata, and
  its chi computes the Euler characteristic of the motivic Serre
  invariant of the generic fiber;
* the wild locus collects the strata whose multiplicity is a positive
  power of the residue characteristic, and its chi is the error term of
  the trace formula;
* their sum is the tame monodromy trace.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple


class UnknownComponent(ValueError):
    """A component id that is not part of the configuration."""


class InconsistentMarking(ValueError):
    """A local marking that contradicts the configuration's edges."""


class Component(NamedTuple):
    id: str
    multiplicity: int
    genus: int = 0


class SncConfiguration:
    """Weighted dual graph with multi-edges and no self-edges."""

    __slots__ = ("components", "edges", "_by_id", "_degrees")

    def __init__(self, components, edges):
        comps = tuple(components)
        by_id = {}
        for c in comps:
            if c.id in by_id:
                raise ValueError(f"duplicate component id {c.id!r}")
            by_id[c.id] = c
        normalized = []
        degrees = dict.fromkeys(by_id, 0)
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-edge at {a!r} (crossings must be strict)")
            if a not in by_id or b not in by_id:
                raise UnknownComponent(f"edge ({a!r}, {b!r}) references a missing component")
            normalized.append((a, b) if a <= b else (b, a))
            degrees[a] += 1
            degrees[b] += 1
        self.components = comps
        self.edges = tuple(sorted(normalized))
        self._by_id = by_id
        self._degrees = degrees

    def component(self, cid: str) -> Component:
        try:
            return self._by_id[cid]
        except KeyError:
            raise UnknownComponent(f"no component {cid!r}") from None

    def degree(self, cid: str) -> int:
        """Edge endpoints at cid, counted with multiplicity."""
        try:
            return self._degrees[cid]
        except KeyError:
            raise UnknownComponent(f"no component {cid!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, SncConfiguration)
            and self.components == other.components
            and self.edges == other.edges
        )

    def __str__(self):
        comps = ", ".join(
            f"{c.id}(N={c.multiplicity},g={c.genus})" for c in self.components
        )
        edges = ", ".join(f"{a}-{b}" for a, b in self.edges)
        return f"[{comps}; edges: {edges or 'none'}]"


def chi_open(config: SncConfiguration, cid: str) -> int:
    """chi of the open stratum: the component minus its neighbours."""
    c = config.component(cid)
    return 2 - 2 * c.genus - config.degree(cid)


def chi_fiber(config: SncConfiguration) -> int:
    """chi of the whole fiber: open strata plus one point per crossing."""
    return sum(chi_open(config, c.id) for c in config.components) + len(config.edges)


def smooth_locus_chi(config: SncConfiguration) -> int:
    """chi of the union of multiplicity-1 open strata."""
    return sum(
        chi_open(config, c.id) for c in config.components if c.multiplicity == 1
    )


def _is_p_power(n: int, p: int) -> bool:
    if p < 2 or n < p:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def wild_locus_chi(config: SncConfiguration, p: int) -> int:
    """chi of the wild locus: strata with multiplicity a power p^e, e > 0.

    Components of an SNC fiber are smooth, so the smooth locus of each
    open stratum is the stratum itself.  Empty in residue characteristic
    zero.
    """
    if p == 0:
        return 0
    return sum(
        chi_open(config, c.id)
        for c in config.components
        if _is_p_power(c.multiplicity, p)
    )


def tame_trace(config: SncConfiguration, p: int) -> int:
    """Trace of the tame monodromy operator on the nearby cycles."""
    return smooth_locus_chi(config) + wild_locus_chi(config, p)


def scale_multiplicities(config: SncConfiguration, m: int) -> SncConfiguration:
    """Same graph with every multiplicity scaled by m.

    This is the reduction of an order-m torsor over the curve with this
    reduction type; for m >= 2 it kills the smooth locus.
    """
    if m < 1:
        raise ValueError("scale factor must be >= 1")
    return SncConfiguration(
        [Component(c.id, m * c.multiplicity, c.genus) for c in config.components],
        config.edges,
    )


class LocalMarking(NamedTuple):
    """Components lying over a marked point, with their outward contacts.

    ``external_degree`` maps marked component ids to the number of their
    intersection points with *unmarked* components (which may live outside
    the configuration when only the marked subgraph is modelled).
    """

    external_degree: dict

    @property
    def marked_ids(self):
        return set(self.external_degree)


def local_trace(config: SncConfiguration, marking: LocalMarking, p: int):
    """Both sides of the trace formula for an analytic Milnor fiber.

    Returns ``(chi_serre, trace)`` where chi_serre sums the local open
    chi over marked multiplicity-1 components and trace adds the marked
    wild components.  The two agree whenever the wild sum vanishes, which
    is the tameness hypothesis of the local statement.
    """
    marked = marking.marked_ids
    for cid in marked:
        if cid not in config._by_id:
            raise InconsistentMarking(f"marked id {cid!r} is not in the configuration")
    internal = {cid: 0 for cid in marked}
    for a, b in config.edges:
        if a in marked and b in marked:
            internal[a] += 1
            internal[b] += 1
    for cid in marked:
        crossing = sum(
            (a == cid and b not in marked) or (b == cid and a not in marked)
            for a, b in config.edges
        )
        if marking.external_degree[cid] < crossing:
            raise InconsistentMarking(
                f"{cid!r} meets {crossing} unmarked components in the configuration "
                f"but external_degree is {marking.external_degree[cid]}"
            )

    def chi_local(cid: str) -> int:
        c = config.component(cid)
        return 2 - 2 * c.genus - internal[cid] - marking.external_degree[cid]

    chi_serre = sum(
        chi_local(cid) for cid in marked if config.component(cid).multiplicity == 1
    )
    wild = 0
    if p > 0:
        wild = sum(
            chi_local(cid)
            for cid in marked
            if _is_p_power(config.component(cid).multiplicity, p)
        )
    return chi_serre, chi_serre + wild


class Diagnostics(NamedTuple):
    ok: bool
    failures: tuple
    multiplicity_gcd: int
    chi_fiber: int


def validate(config: SncConfiguration) -> Diagnostics:
    """Connectivity / positivity checks plus summary quantities.

    A gcd above 1 flags the non-reduced fibers that arise as torsor
    reductions (no multiplicity-1 components, Serre side zero).
    """
    failures = []
    if any(c.multiplicity < 1 for c in config.components):
        failures.append("NonPositiveMultiplicity")
    if any(c.genus < 0 for c in config.components):
        failures.append("NegativeGenus")
    if not _is_connected(config):
        failures.append("NotConnected")
    g = 0
    for c in config.components:
        g = gcd(g, c.multiplicity)
    return Diagnostics(
        ok=not failures,
        failures=tuple(failures),
        multiplicity_gcd=g,
        chi_fiber=chi_fiber(config),
    )


def _is_connected(config: SncConfiguration) -> bool:
    if not config.components:
        return True
    adjacency = {c.id: set() for c in config.components}
    for a, b in config.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    stack = [config.components[0].id]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adjacency[v] - seen)
    return len(seen) == len(config.components)


# ---- structured-text configuration files ------------------------------------

def parse_config(text: str) -> SncConfiguration:
    """Read the CLI configuration format.

    One directive per line: ``component <id> <multiplicity> <genus>`` or
    ``edge <id> <id>``; blank lines and ``#`` comments are skipped.
    """
    components = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "component" and len(parts) == 4:
            try:
                components.append(Component(parts[1], int(parts[2]), int(parts[3])))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        elif parts[0] == "edge" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise ValueError(f"line {lineno}: expected 'component <id> <N> <g>' or 'edge <a> <b>'")
    return SncConfiguration(components, edges)
