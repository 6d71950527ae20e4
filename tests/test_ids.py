"""One id rule at every entry point that takes vertex ids or cover keys.

An id is an integer value (a whole float counts), never a bool, and lies in
[0, n) for a vertex or [0, 2n) for a cover key; anything else is a ValueError
that names the id, never a TypeError, an IndexError, a numpy cast warning or a
silently truncated result.
"""

import re

import numpy as np
import pytest

from pairclust import (
    AprState,
    EspState,
    Graph,
    conductance_in_cover,
    cover_degree,
    cover_vertex,
    evo_cut_directed,
    exact_esp_kernel,
    loc_bipart_dc,
    sweep_cut,
    to_cluster_pair,
)
from pairclust.cover import cover_cut_and_volume
from pairclust.graph import as_vertex_array
from pairclust.oracle import dcpush, pair_to_cover_set

N = 4
G = Graph(N, [(0, 1), (1, 2), (2, 3), (3, 0)])
DG = Graph(N, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (0, 2)], directed=True)


def _rng():
    return np.random.default_rng(0)


# (name, call, takes a collection, cover key, graph bound): a scalar entry point
# is handed the bad value itself, a collection entry point a list holding it.
ENTRY_POINTS = [
    ("Graph", lambda ids: Graph(N, [(a, 2) for a in ids]), True, False, True),
    ("Graph.from_arrays", lambda ids: Graph.from_arrays(N, ids, [2] * len(ids)), True, False, True),
    ("as_vertex_array", lambda ids: as_vertex_array(N, ids), True, False, True),
    ("Graph.degree", lambda x: G.degree(x), False, False, True),
    ("Graph.neighbors", lambda x: G.neighbors(x), False, False, True),
    ("AprState", lambda x: AprState(G, x, 0.5, 1e-3), False, False, True),
    ("loc_bipart_dc", lambda x: loc_bipart_dc(G, x, 1.0, 0.5, alpha=0.5), False, False, True),
    ("dcpush", lambda x: dcpush(AprState(G, 0, 0.5, 1e-3), x, 1), False, False, True),
    ("evo_cut_directed", lambda x: evo_cut_directed(DG, x, 1, 0.1, _rng(), steps=3), False, False, True),
    ("pair_to_cover_set", lambda ids: pair_to_cover_set(ids, []), True, False, False),
    ("cover_vertex", lambda x: cover_vertex(x, 1), False, False, False),
    ("cover_degree", lambda x: cover_degree(G, x), False, True, True),
    ("EspState.from_seed", lambda x: EspState.from_seed(DG, x), False, True, True),
    ("cover_cut_and_volume", lambda ids: cover_cut_and_volume(G, ids), True, True, True),
    ("conductance_in_cover", lambda ids: conductance_in_cover(G, ids), True, True, True),
    ("exact_esp_kernel", lambda ids: exact_esp_kernel(DG, ids), True, True, True),
    ("sweep_cut", lambda ids: sweep_cut(G, dict.fromkeys(ids, 1.0), 0.9), True, True, True),
    ("to_cluster_pair", lambda ids: to_cluster_pair(ids), True, True, False),
]

BAD = ["True", "1.5", "1e20", "-1", "n", "[0, True]", "2**70", "-2**70"]


def _cases():
    for name, call, collection, cover, bounded in ENTRY_POINTS:
        for bad in BAD:
            if bad != "n" or bounded:
                yield pytest.param(call, collection, cover, bad, id=f"{name}-{bad}")


@pytest.mark.parametrize("call, collection, cover, bad", _cases())
def test_bad_id_is_a_value_error_naming_it(call, collection, cover, bad):
    value = {
        "True": True,
        "1.5": 1.5,
        "1e20": np.float64(1e20),
        "-1": -1,
        "n": 2 * N if cover else N,
        "[0, True]": [0, True],
        "2**70": 2**70,  # a Python int past int64, which numpy holds in an object array
        "-2**70": -(2**70),
    }[bad]
    if isinstance(value, list):
        named = "True" if collection else "[0, True]"
    else:
        named = str(value)
        value = [value] if collection else value
    noun = "cover vertex" if cover else "vertex id"
    pattern = rf"^{noun} {re.escape(named)} (is not an integer|out of range \[0, \d+\))$"
    with pytest.raises(ValueError, match=pattern):
        call(value)


def test_whole_float_seed_is_the_integer_seed():
    a = evo_cut_directed(DG, 1.0, 1, 0.1, np.random.default_rng(5), steps=4, attempts=2)
    b = evo_cut_directed(DG, 1, 1, 0.1, np.random.default_rng(5), steps=4, attempts=2)
    assert a is not None and b is not None
    assert (a.l.tolist(), a.r.tolist(), a.flow, a.volume) == (
        b.l.tolist(), b.r.tolist(), b.flow, b.volume
    )


BIG = "1180591620717411303424"  # 2**70, past int64, so numpy holds it in an object array


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: G.degree(2**70), f"vertex id {BIG} out of range [0, 4)"),
        (lambda: G.volume([2**70]), f"vertex id {BIG} out of range [0, 4)"),
        (lambda: G.volume([1, 2**70]), f"vertex id {BIG} out of range [0, 4)"),
        (lambda: cover_degree(G, -(2**70)), f"cover vertex -{BIG} out of range [0, 8)"),
    ],
    ids=["degree", "volume", "volume-mixed", "cover-key"],
)
def test_int_past_int64_is_named(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_object_array_of_in_range_ints_is_still_refused():
    with pytest.raises(ValueError, match=r"^vertex ids must be integers, not object$"):
        G.volume(np.array([1, 2], dtype=object))
