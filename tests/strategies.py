"""Shared hypothesis strategies: drawn graphs, small network states
(with and without reverse-direction pairs), fraction rows, rule
budgets and signature-scan cases.

The array paths of the control plane (fraction table, row-wise range
layout, rule table, vector validation, coverage accounting) are each
compared against the one-row / per-object code they replace; those comparisons draw their
instances here, so "small state" and "awkward fraction row" mean the
same thing in every test file.
"""

from __future__ import annotations

import itertools

from hypothesis import assume
from hypothesis import strategies as st

from repro.core.inputs import NetworkState
from repro.topology.routing import shortest_path_routing
from repro.topology.topology import Topology
from repro.traffic.classes import TrafficClass

#: small topologies with unique or tie-broken shortest paths
TOPOLOGIES = (
    Topology("line", ["A", "B", "C", "D"],
             [("A", "B"), ("B", "C"), ("C", "D")]),
    Topology("diamond", ["A", "B", "C", "D"],
             [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"),
              ("B", "C")]),
    Topology("ring", ["A", "B", "C", "D", "E"],
             [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"),
              ("E", "A")]),
)

@st.composite
def topologies(draw, max_nodes=8):
    """2 to ``max_nodes`` nodes in a drawn order (so insertion order
    and name order disagree) with a drawn subset of the possible
    links: connected or not, tied shortest paths included."""
    nodes = draw(st.permutations("ABCDEFGH"[:draw(
        st.integers(min_value=2, max_value=max_nodes))]))
    pairs = list(itertools.combinations(sorted(nodes), 2))
    return Topology("drawn", nodes, draw(st.lists(
        st.sampled_from(pairs), unique=True, max_size=len(pairs))))


#: per-class session counts, an idle class (zero) included
volumes = st.one_of(st.just(0.0),
                    st.floats(min_value=1.0, max_value=5000.0))

#: per-class rule budgets; ``None`` is the exact lowering
budgets = st.one_of(st.none(), st.integers(min_value=1, max_value=9))


@st.composite
def small_states(draw, resources=("cpu",)):
    """A calibrated state with a datacenter: one of
    :data:`TOPOLOGIES`, 2-6 classes between drawn node pairs, drawn
    volumes (at least one nonzero), session sizes and footprints."""
    topology = draw(st.sampled_from(TOPOLOGIES))
    routing = shortest_path_routing(topology)
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(topology.nodes),
                  st.sampled_from(topology.nodes)).filter(
                      lambda pair: pair[0] != pair[1]),
        min_size=2, max_size=6, unique=True))
    sessions = draw(st.lists(volumes, min_size=len(pairs),
                             max_size=len(pairs)).filter(
                                 lambda drawn: max(drawn) > 0.0))
    classes = [
        TrafficClass(
            f"{source}->{target}", source, target,
            routing.path(source, target), count,
            session_bytes=draw(st.floats(min_value=100.0,
                                         max_value=1e5)),
            footprints={resource: draw(st.floats(0.5, 4.0))
                        for resource in resources})
        for (source, target), count in zip(pairs, sessions)]
    return NetworkState.calibrated(
        topology, classes, resources=resources,
        dc_capacity_factor=draw(st.sampled_from([2.0, 10.0])))


@st.composite
def paired_states(draw, resources=("cpu",)):
    """A :func:`small_states` state plus, for a drawn non-empty subset
    of its classes, the reverse class: same session size and
    footprints, its own drawn volume (zero included). Where routing is
    symmetric the two cross the same nodes — the classes
    ``ReplicationProblem`` lets share fraction variables."""
    state = draw(small_states(resources))
    classes = list(state.classes)
    present = {cls.name for cls in classes}
    for cls in state.classes:
        name = f"{cls.target}->{cls.source}"
        if name not in present and draw(st.booleans()):
            present.add(name)
            classes.append(TrafficClass(
                name, cls.target, cls.source,
                state.routing.path(cls.target, cls.source),
                draw(volumes), session_bytes=cls.session_bytes,
                footprints=dict(cls.footprints)))
    assume(len(classes) > len(state.classes))
    return state.with_traffic(classes)


#: one layout entry: nothing, float noise below the 1e-9 cut-off, a
#: value that ties exactly with its neighbours, or anything else
weights = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-13, max_value=1e-9),
    st.sampled_from([0.125, 0.25, 0.5]),
    st.floats(min_value=0.0, max_value=1.0))


@st.composite
def fraction_rows(draw, full=True, max_size=8):
    """One class's fractions in layout order.

    ``full`` rows sum to 1 within the compiler's tolerance (equal
    weights stay exactly equal: they go through the same division);
    otherwise the row sums to a drawn span in (0.05, 1] — the partial
    coverage a split-traffic class may have.
    """
    drawn = draw(st.lists(weights, min_size=1, max_size=max_size).filter(
        lambda row: sum(row) > 0.01))
    span = 1.0 if full else draw(st.floats(min_value=0.05,
                                           max_value=1.0))
    total = sum(drawn)
    return [weight / total * span for weight in drawn]


@st.composite
def fraction_matrices(draw, full=True, max_rows=6, max_width=8):
    """``(rows, matrix)``: 1..``max_rows`` fraction rows of differing
    lengths and the same rows zero-padded to one width."""
    rows = draw(st.lists(fraction_rows(full=full, max_size=max_width),
                         min_size=1, max_size=max_rows))
    width = max(len(row) for row in rows)
    return rows, [row + [0.0] * (width - len(row)) for row in rows]


#: one hash-range bound: a grid point — so drawn intervals touch,
#: nest, repeat exactly, or have zero width; the non-dyadic ones make
#: two touching widths round differently from their sum — or anything
#: in [0, 1]
bounds = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7,
                                    0.75, 1.0]),
                   st.floats(min_value=0.0, max_value=1.0))


@st.composite
def interval_lists(draw, max_size=3):
    """``(start, end)`` pairs with ``start <= end``, in drawn order."""
    pairs = draw(st.lists(st.tuples(bounds, bounds), max_size=max_size))
    return [(min(low, high), max(low, high)) for low, high in pairs]


#: payload letters of the signature-scan draws: those of the
#: self-overlapping signatures (NOP sled, ``../``) and three others
SCAN_LETTERS = (0x90, ord("."), ord("/"), ord("A"), 0x00, 0xFF)

#: signatures that overlap themselves, so every offset counts
SELF_OVERLAPPING = (b"\x90" * 8, b"../../../../")


@st.composite
def scan_cases(draw, max_body=19):
    """``(patterns, bodies)``: a signature list and packet payloads
    over one alphabet of 1-4 :data:`SCAN_LETTERS`, so that overlapping
    and boundary-straddling hits are common.

    The list may repeat a pattern and holds 1-byte patterns, patterns
    sharing a 2-byte prefix, :data:`SELF_OVERLAPPING` ones and ones
    longer than any packet (``max_body`` bytes at most). The payloads
    are one stream of letters and planted patterns — the last piece
    may be one, a hit at the last possible start — cut at drawn
    points: zero-length packets, an empty stream and odd lengths come
    up.
    """
    letters = draw(st.lists(st.sampled_from(SCAN_LETTERS), min_size=1,
                            max_size=4, unique=True))

    def words(low, high):
        return st.lists(st.sampled_from(letters), min_size=low,
                        max_size=high).map(bytes)

    patterns = draw(st.lists(st.one_of(
        words(1, 1), words(2, 6), st.sampled_from(SELF_OVERLAPPING),
        words(max_body + 1, max_body + 4)), max_size=5))
    if patterns:
        patterns += draw(st.lists(st.sampled_from(patterns),
                                  max_size=2))
    longer = [pattern for pattern in patterns if len(pattern) > 1]
    if longer:
        patterns += [prefix[:2] + draw(words(0, 3)) for prefix in
                     draw(st.lists(st.sampled_from(longer), max_size=2))]
    pieces = words(0, 8) if not patterns else st.one_of(
        words(0, 8), st.sampled_from(patterns))
    stream = b"".join(draw(st.lists(pieces, max_size=6)))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)),
                                max_size=8)))
    bodies = []
    for low, high in zip([0, *cuts], [*cuts, len(stream)]):
        bodies += [stream[at:min(at + max_body, high)]
                   for at in range(low, high, max_body)] or [b""]
    return patterns, bodies
