import random

import pytest
from conftest import FIXTURES

from threadquiver.errors import AlphaNotInvertible
from threadquiver.linalg import QQ
from threadquiver.orders import INT, Fin
from threadquiver.quiver import Quiver
from threadquiver.reps import (
    PROJECTIVE,
    from_triple,
    hom_basis,
    hom_dim,
    map_factor,
    modification_hom_dim,
    proj_sum,
    std_module,
    to_triple,
)
from threadquiver.dsl import parse_tq
from threadquiver.windows import ThreadQuiver, Window, expand


def fixtures():
    return [
        ThreadQuiver(["x", "y"], [], [("t", "x", "y", Fin(0))]),
        ThreadQuiver(["x", "y"], [], [("t", "x", "y", INT)]),
        ThreadQuiver(
            ["x", "y", "z"],
            [("s", "x", "z")],
            [("t", "x", "y", Fin(1)), ("u", "y", "z", Fin(0))],
        ),
    ]


def random_rep(w, rng, n_gens=2):
    verts = w.quiver.vertices
    gen_vs = [rng.choice(verts) for _ in range(rng.randint(1, n_gens))]
    rel_vs = [rng.choice(verts) for _ in range(rng.randint(1, 2))]
    P0, P1 = proj_sum(w, gen_vs), proj_sum(w, rel_vs)
    _, basis = hom_basis(P1, P0)
    f = None
    for g in basis:
        c = rng.randint(-2, 2)
        if c:
            g = g.scale(QQ(c))
            f = g if f is None else f + g
    if f is None:
        return P0
    return map_factor(f).cokernel


def test_roundtrip_identity_on_the_nose():
    rng = random.Random(1)
    for tq in fixtures():
        w = expand(tq, 1)
        for _ in range(4):
            M = random_rep(w, rng)
            T = to_triple(M)
            M2 = from_triple(T, w)
            assert M2.dims == M.dims
            for a in w.quiver.arrows:
                assert M2.maps[a.name] == M.maps[a.name]


def _windows_held(obj, seen=None) -> list:
    """The windows that obj refers to, directly or through dicts, lists,
    tuples and sets."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Window):
        return [obj]
    if isinstance(obj, dict):
        obj = [*obj.keys(), *obj.values()]
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [w for x in obj for w in _windows_held(x, seen)]
    return []


def test_release_drops_the_glued_model_windows():
    w = expand(parse_tq((FIXTURES / "mixed.tq").read_text()), 1)
    M = random_rep(w, random.Random(3))
    to_triple(M)
    w.release()
    assert not _windows_held(list(vars(w).values()))
    M2 = from_triple(to_triple(M), w)
    assert M2.dims == M.dims
    for a in w.quiver.arrows:
        assert M2.maps[a.name] == M.maps[a.name]


def test_glued_projective_from_chain_data():
    # N supported on the endpoints, L the full chain projective, alpha identities
    tq = fixtures()[0]
    w = expand(tq, 1)
    P = std_module(w, "x", PROJECTIVE)
    T = to_triple(P)
    # x is the chain minimum, so P(x) restricted to the chain is the simple
    # at the minimum; gluing back gives the projective again
    glued = from_triple(T, w)
    assert glued.dims == P.dims


def test_modification_dims_match_glued_hom():
    rng = random.Random(2)
    for tq in fixtures():
        w = expand(tq, 1)
        for _ in range(5):
            M, N = random_rep(w, rng), random_rep(w, rng)
            tm, tn = to_triple(M), to_triple(N)
            assert modification_hom_dim(tm, tn) == hom_dim(M, N)


def test_alpha_must_be_invertible():
    tq = fixtures()[0]
    w = expand(tq, 1)
    M = std_module(w, "y", PROJECTIVE)
    T = to_triple(M)
    t = next(iter(T.alpha))
    amin, amax = T.alpha[t]
    T.alpha[t] = (amin.scale(QQ(0)), amax)
    with pytest.raises(AlphaNotInvertible):
        T.validate()
