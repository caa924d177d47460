"""Support-local storage of representations and their maps.

A `Rep` stores the matrices of the arrows whose two ends are nonzero, and a
`RepMap` the components at the vertices where source and target are both
nonzero; every other key reads as the empty matrix of its shape.  These
tests pin that invariant and compare the support-local computations with a
densified copy of each module and with dense recomputations that loop over
every vertex and arrow of the window.
"""

import random

import pytest
from conftest import fixture_windows, random_fp_rep, random_thread_quivers
from hypothesis import given, settings
from hypothesis import strategies as st

from threadquiver.linalg import hstack, rank
from threadquiver.reps import (
    INJECTIVE,
    PROJECTIVE,
    SIMPLE,
    Rep,
    dualize,
    hom_basis_generic,
    hom_dim,
    injective_hull,
    kernel_with_inclusion,
    projective_cover,
    std_module,
)
from threadquiver.windows import expand


def assert_rep_storage(M):
    """Every stored arrow block is nonempty, every nonempty one is stored
    (in window order), and a missing arrow reads as an empty matrix."""
    q = M.window.quiver
    inside = [a.name for a in q.arrows if M.dims[a.src] and M.dims[a.tgt]]
    assert list(M.maps) == inside
    assert [a.name for a in M.support_arrows] == inside
    assert M.support == tuple(v for v in q.vertices if M.dims[v])
    for a in q.arrows:
        m = M.maps[a.name]
        assert (m.rows, m.cols) == (M.dims[a.src], M.dims[a.tgt])
        if a.name not in inside:
            assert m.rows == 0 or m.cols == 0
    assert list(M.maps) == inside  # reading a missing key stores nothing


def assert_map_storage(f):
    """The same for the components of a map, keyed by vertex."""
    q = f.source.window.quiver
    sd, td = f.source.dims, f.target.dims
    inside = [v for v in q.vertices if sd[v] and td[v]]
    assert list(f.comps) == inside
    for v in q.vertices:
        m = f.comps[v]
        assert (m.rows, m.cols) == (td[v], sd[v])
        if v not in inside:
            assert m.rows == 0 or m.cols == 0
    assert list(f.comps) == inside


def densified(M):
    """M rebuilt from a dims entry for every vertex and a matrix for every
    arrow, empty ones included, as a dense caller would pass them."""
    q = M.window.quiver
    return Rep(M.window, {v: M.dims[v] for v in q.vertices},
               {a.name: M.maps[a.name] for a in q.arrows})


def dense_cover_vertices(M):
    """The vertices of a minimal projective cover, from top M = M / rad M
    computed at every vertex over every out-arrow."""
    w = M.window
    out = []
    for v in w.quiver.vertices:
        blocks = [M.maps[a.name] for a in w.quiver.out_arrows[v]]
        rad = rank(hstack(blocks)) if blocks else 0
        out += [v] * (M.dims[v] - rad)
    return out


def dense_dims(w, verts, kind):
    """Dimension vector of a sum of standard projectives or injectives,
    read off the hom spaces at every vertex."""
    if kind == PROJECTIVE:
        return {x: sum(w.hom(x, v).dim for v in verts) for x in w.quiver.vertices}
    return {x: sum(w.hom(v, x).dim for v in verts) for x in w.quiver.vertices}


@given(random_thread_quivers(), st.integers(0, 2**32 - 1), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_support_local_modules_match_their_densified_copies(tq, seed, depth):
    w = expand(tq, depth)
    rng = random.Random(seed)
    M = random_fp_rep(w, rng, n_gens=3)
    N = random_fp_rep(w, rng, n_gens=2)
    D = densified(M)
    for X in (M, D, N):
        assert_rep_storage(X)
    assert D.dims == M.dims and dict(D.maps) == dict(M.maps)

    # projective covers: the same vertex list both ways and from the dense top
    (P, cover), (PD, cover_d) = projective_cover(M), projective_cover(D)
    assert list(P.cert[1]) == list(PD.cert[1]) == dense_cover_vertices(M)
    assert P.dims == dense_dims(w, P.cert[1], PROJECTIVE)
    assert_rep_storage(P)
    assert_map_storage(cover)

    # kernels of the covers: the dense dimension count, both ways
    K, incl = kernel_with_inclusion(cover)
    KD, _ = kernel_with_inclusion(cover_d)
    assert K.dims == KD.dims == {x: P.dims[x] - M.dims[x] for x in w.quiver.vertices}
    assert_rep_storage(K)
    assert_map_storage(incl)

    # injective hulls, built by duality over the opposite window
    I, emb = injective_hull(M)
    assert I.dims == dense_dims(w, I.cert[1], INJECTIVE)
    assert_rep_storage(I)
    assert_map_storage(emb)

    # hom dimensions against the naturality system on the dense copies
    for X, Y in ((M, N), (N, M), (P, M), (M, I)):
        assert hom_dim(X, Y) == hom_basis_generic(densified(X), densified(Y))[0]

    # the double dual is M again, arrow by arrow
    DD = dualize(dualize(M))
    assert DD.window is w
    assert_rep_storage(dualize(M))
    assert_rep_storage(DD)
    for a in w.quiver.arrows:
        assert DD.maps[a.name] == D.maps[a.name] == M.maps[a.name]


@pytest.mark.parametrize(
    "label, w", [pytest.param(label, w, id=label) for label, w in fixture_windows((0, 1, 2))])
def test_cover_of_a_simple_stores_one_component(label, w):
    for v in w.quiver.vertices:
        S = std_module(w, v, SIMPLE)
        P, cover = projective_cover(S)
        assert P.cert[1] == (v,)
        assert list(cover.comps) == [v]
        assert_rep_storage(S)
        assert_rep_storage(P)
        assert_map_storage(cover)
