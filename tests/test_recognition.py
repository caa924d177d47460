"""Recognising a module as a sum of standard projectives by its cover.

`reps.kernel_as_projectives` covers a kernel by one resolution step and asks
whether the step's kernel is zero; `threads.supp_adjoint` asks whether a
quotient of P(A) is P(A) itself; `threads.interval_adjoint` reads its unit
off the perpendicular step alone.  Each is compared with the route it
replaced, kept in `conftest` as an oracle: the Fitting decomposition with one
cover per summand, the image from a full factorization, and the composition
of the two steps' units.  A kernel with two or more summands comes out in
the step's order rather than the decomposition's, so recognitions are
compared up to isomorphism: the same vertices with multiplicity, and the
same image of the realized inclusion at every vertex.
"""

import random
from collections import Counter

import pytest
from conftest import (
    ainf_rad2_window,
    compose_coords,
    decomposition_kernel_as_projectives,
    factorization_supp_adjoint,
    fixture_windows,
    random_thread_quivers,
    unit_composing_interval_adjoint,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import threadquiver.serre as serre
from threadquiver.errors import ThreadQuiverError
from threadquiver.linalg import hstack, rank
from threadquiver.reps import (
    INJECTIVE,
    VarietyMor,
    kernel_as_projectives,
    realize_proj,
    std_module,
    transport_to_opposite,
)
from threadquiver.serre import COKERNEL, KERNEL
from threadquiver.threads import LEFT, RIGHT, _evaluation, interval_adjoint, supp_adjoint
from threadquiver.windows import expand

WINDOWS = fixture_windows((0, 1, 2)) + [("ainf_rad2", ainf_rad2_window(10))]
WINDOW_PARAMS = [pytest.param(label, w, id=label) for label, w in WINDOWS]


def outcome(fn, *args):
    """What fn answers: its value, or the type and message of the package
    error it raises."""
    try:
        return "ok", fn(*args)
    except ThreadQuiverError as exc:
        return type(exc).__name__, str(exc)


def adjoint_outcome(fn, *args):
    kind, value = outcome(fn, *args)
    if kind != "ok":
        return kind, value
    verts, unit = value
    assert unit.window is args[0]
    return kind, verts, unit.source, unit.target, unit.entries


def assert_same_up_to_isomorphism(got, want, where):
    """got and want are outcomes of two recognitions, each (verts, mor)
    when it succeeds, mor the inclusion of the sum of standard projectives
    it names, in the coordinate form.  Equal errors; otherwise the same
    vertices with multiplicity and, at every vertex, realized inclusions
    (`reps.realize_proj`) with the
    same column space; and identical answers where there is at most one
    summand.  Returns whether the two name the summands in different
    orders."""
    assert got[0] == want[0], (where, got, want)
    if got[0] != "ok":
        assert got == want, where
        return False
    (gverts, gmor), (wverts, wmor) = got[1], want[1]
    assert Counter(gverts) == Counter(wverts), (where, gverts, wverts)
    if len(gverts) <= 1:
        assert (gverts, gmor) == (wverts, wmor), where
        return False
    g, h = realize_proj(gmor), realize_proj(wmor)
    for x in g.target.support:
        a, b = g.comps[x], h.comps[x]
        assert rank(a) == rank(b) == rank(hstack([a, b])), (where, x)
    return gverts != wverts


def kernel_maps(w, rng, n_evaluations):
    """Maps out of certified projective sums whose kernels are recognized:
    every arrow's P(x) -> P(y), the block map P(x) + P(y) -> P(z) of every
    composable pair of arrows, and n_evaluations of the evaluations
    P(A) -> I(X) ⊗ hom(X, A) behind the interval adjoint (whose kernels can
    have several summands), sampled by rng."""
    def coords(a):
        return VarietyMor.from_arrow(w, a.name).entries[0][0]

    maps = [realize_proj(VarietyMor.from_arrow(w, a.name)) for a in w.quiver.arrows]
    for a in w.quiver.arrows:
        for b in w.quiver.out_arrows[a.tgt]:
            ba = compose_coords(w, a.src, a.tgt, b.tgt, coords(a), coords(b))
            cell = ba if any(c != w.field.zero for c in ba) else None
            maps.append(realize_proj(VarietyMor(w, (a.src, a.tgt), (b.tgt,), [[cell, coords(b)]])))
    pairs = [(A, X) for A in w.quiver.vertices for X in w.quiver.vertices if w.hom_dim(X, A)]
    for A, X in rng.sample(pairs, min(n_evaluations, len(pairs))):
        maps.append(_evaluation(w, A, [std_module(w, X, INJECTIVE)]))
    return maps


def named(recognize):
    """recognize's inclusion with the vertices it names: (verts, mor)."""
    def pair(f):
        mor = recognize(f)
        return mor.source, mor
    return pair


def assert_kernels_match(w, where, rng, n_evaluations):
    """Returns how many kernels the two recognitions name in different
    orders."""
    reordered = 0
    for f in kernel_maps(w, rng, n_evaluations):
        reordered += assert_same_up_to_isomorphism(
            outcome(named(kernel_as_projectives), f),
            outcome(named(decomposition_kernel_as_projectives), f),
            (where, f.source.cert, f.target.cert))
    return reordered


def assert_pseudo_match(w, where, monkeypatch):
    def oracle_pseudo(vm, side):
        with monkeypatch.context() as m:
            m.setattr(serre, "kernel_as_projectives", decomposition_kernel_as_projectives)
            return serre.pseudo(vm, side)

    def answer(fn, vm, side):
        kind, value = outcome(fn, vm, side)
        if kind != "ok":
            return kind, value
        verts, mor = value
        assert mor.window is w
        # a pseudocokernel is a pseudokernel over the opposite window
        return kind, (verts, mor if side == KERNEL else transport_to_opposite(mor))

    for a in w.quiver.arrows:
        vm = VarietyMor.from_arrow(w, a.name)
        for side in (KERNEL, COKERNEL):
            assert_same_up_to_isomorphism(
                answer(serre.pseudo, vm, side), answer(oracle_pseudo, vm, side),
                (where, a.name, side))


def assert_adjoints_match(w, where, rng, n_pairs, n_triples):
    verts = list(w.quiver.vertices)
    pairs = [(A, Y) for A in verts for Y in verts]
    for A, Y in rng.sample(pairs, min(n_pairs, len(pairs))):
        assert (adjoint_outcome(supp_adjoint, w, A, Y)
                == adjoint_outcome(factorization_supp_adjoint, w, A, Y)), (where, A, Y)
    # objects of [X, Y] are their own image before either route starts
    triples = [(X, Y, A, side) for X in verts for Y in verts if w.hom_dim(X, Y)
               for A in verts if not (w.hom_dim(X, A) and w.hom_dim(A, Y))
               for side in (LEFT, RIGHT)]
    for X, Y, A, side in rng.sample(triples, min(n_triples, len(triples))):
        assert (adjoint_outcome(interval_adjoint, w, X, Y, A, side)
                == adjoint_outcome(unit_composing_interval_adjoint, w, X, Y, A, side)), (
            where, X, Y, A, side)


@pytest.mark.parametrize("label, w", WINDOW_PARAMS)
def test_kernel_recognition_and_pseudo_match_the_decomposition_oracle(label, w, monkeypatch):
    assert_kernels_match(w, label, random.Random(label), n_evaluations=40)
    assert_pseudo_match(w, label, monkeypatch)


def test_a_kernel_with_several_summands_can_come_out_in_another_order():
    # on mixed at depth 0 some evaluation kernels have two summands, and the
    # cover lists them in another order than the Fitting decomposition: the
    # comparison up to isomorphism is exercised, not only the equal case
    label, w = next((label, w) for label, w in WINDOWS if label == "mixed@0")
    assert assert_kernels_match(w, label, random.Random(0), n_evaluations=10**6) > 0


@pytest.mark.parametrize("label, w", WINDOW_PARAMS)
def test_support_and_interval_adjoints_match_their_oracles(label, w):
    assert_adjoints_match(w, label, random.Random(label), n_pairs=150, n_triples=60)


@given(random_thread_quivers(), st.integers(0, 1), st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_recognitions_match_their_oracles_on_random_thread_quivers(tq, depth, seed):
    w = expand(tq, depth)
    assert_kernels_match(w, "random", random.Random(seed), n_evaluations=20)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_pseudo_match(w, "random", monkeypatch)
    assert_adjoints_match(w, "random", random.Random(seed), n_pairs=40, n_triples=20)
