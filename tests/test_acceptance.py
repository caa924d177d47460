"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (run with -s to see them); timing bounds
are asserted where the criterion declares one.
"""

import json
import random
import time
from pathlib import Path

from conftest import (
    ainf_rad2_window,
    chain_fixtures,
    dualizing_fixtures,
    random_fp_rep,
    solve,
    tq_fin1_thread,
    tq_two_empty_threads,
    zigzag_window,
)

from threadquiver.cli import run
from threadquiver.dsl import parse_tq, serialize_tq
from threadquiver.linalg import QQ, Matrix
from threadquiver.reps import (
    INJECTIVE,
    PROJECTIVE,
    SIMPLE,
    decompose,
    hom_basis,
    hom_basis_generic,
    hom_dim,
    identity_map,
    kernel_with_inclusion,
    map_factor,
    modification_hom_dim,
    proj_dim,
    proj_sum,
    projective_cover,
    std_module,
    to_triple,
    from_triple,
)
from threadquiver.serre import check_dualizing, check_serre
from threadquiver.threads import (
    LEFT,
    RIGHT,
    adjunction_check,
    extract_threadquiver,
    interval_adjoint,
    thread_hom_check,
    thread_runs,
)
from threadquiver.windows import (
    Window,
    expand,
    normalize,
    underlying_quiver,
    window_iso,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def interior_probes(w):
    out = []
    for v in w.interior_vertices():
        out.append((f"P({v})", std_module(w, v, PROJECTIVE)))
        out.append((f"S({v})", std_module(w, v, SIMPLE)))
    return out


def announce(n, name, t0):
    print(f"ACCEPTANCE {n} ({name}): PASS in {time.monotonic() - t0:.2f}s")


def test_criterion_1_zigzag_pd_and_serre():
    t0 = time.monotonic()
    w = zigzag_window()
    assert proj_dim(std_module(w, "a11", SIMPLE), 6) == 1
    assert proj_dim(std_module(w, "a22", SIMPLE), 6) == 2
    assert proj_dim(std_module(w, "a33", SIMPLE), 6) == 3
    report = check_serre(w, interior_probes(w), 6)
    assert report.passed, report.items[:3]
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    announce(1, "zig-zag projective dimensions + Serre check", t0)


def test_criterion_2_negative_control(capsys):
    t0 = time.monotonic()
    w = ainf_rad2_window(10)
    for k in range(1, 11):
        assert proj_dim(std_module(w, f"v{k}", SIMPLE), 12) == k - 1
    code = run(["serre-check", str(FIXTURES / "ainf_rad2.tq"), "--max-len", "6"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 1
    assert doc["status"] == "fail"
    assert any("ExceedsBound" in item["actual"] for item in doc["items"])
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"
    announce(2, "rad^2=0 linear window: pd S(v_k) = k-1, serre-check exits 1", t0)


def test_criterion_3_dualizing_suite():
    t0 = time.monotonic()
    for name, tq in dualizing_fixtures():
        for d in (1, 2, 3):
            w = expand(tq, d)
            report = check_dualizing(w)
            assert report.passed, (name, d, report.items[:3])
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"
    announce(3, "dualizing checks over all fixtures at depths 1..3", t0)


def random_proj_map(w, rng, max_summands=2):
    verts = w.quiver.vertices
    src = [rng.choice(verts) for _ in range(rng.randint(1, max_summands))]
    tgt = [rng.choice(verts) for _ in range(rng.randint(1, max_summands))]
    P, Q = proj_sum(w, src), proj_sum(w, tgt)
    _, basis = hom_basis(P, Q)
    f = None
    for g in basis:
        c = rng.randint(-1, 2)
        if c:
            g = g.scale(QQ(c))
            f = g if f is None else f + g
    if f is None:
        from threadquiver.reps import zero_map

        f = zero_map(P, Q)
    return P, Q, f


def kernel_is_projective_and_splits(P, f):
    K, incl = kernel_with_inclusion(f)
    if K.is_zero():
        return True
    # projectivity: the minimal cover is an isomorphism
    P0, cover = projective_cover(K)
    if not map_factor(cover).kernel.is_zero():
        return False
    # splits off: a retraction r with r . incl = id exists
    dim, basis = hom_basis(P, K)
    if not basis:
        return False
    w = P.window

    def flat(g):
        return [c for v in w.quiver.vertices for c in g.comps[v].data]

    cols = [flat(incl.then(b)) for b in basis]
    n = len(cols[0])
    mat = Matrix.zeros(w.field, n, len(cols))
    for j, col in enumerate(cols):
        for i, c in enumerate(col):
            mat.data[i * len(cols) + j] = c
    return solve(mat, flat(identity_map(K))) is not None


def test_criterion_4_hereditary_splitting():
    t0 = time.monotonic()
    rng = random.Random(2024)
    relation_free = [(n, tq) for n, tq in dualizing_fixtures() if n != "comm-square"]
    for name, tq in relation_free:
        w = expand(tq, 1)
        for i in range(50):
            P, Q, f = random_proj_map(w, rng)
            assert kernel_is_projective_and_splits(P, f), (name, i)
            if i % 10 == 0:
                # independent route: every kernel summand is a standard projective
                K, _ = kernel_with_inclusion(f)
                for part in decompose(K):
                    Pp, cov = projective_cover(part)
                    assert len(Pp.cert[1]) == 1
                    assert map_factor(cov).kernel.is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.2f}s"
    announce(4, "kernels of 50 random projective maps per fixture split off", t0)


def test_criterion_5_yoneda_and_serre_symmetry():
    t0 = time.monotonic()
    rng = random.Random(55)
    for name, tq in dualizing_fixtures():
        w = expand(tq, 1)
        reps = [random_fp_rep(w, rng) for _ in range(20)]
        for v in w.interior_vertices():
            P = std_module(w, v, PROJECTIVE)
            I = std_module(w, v, INJECTIVE)
            for M in reps:
                assert hom_basis_generic(P, M)[0] == M.dims[v], (name, v)
                assert hom_basis_generic(M, I)[0] == M.dims[v], (name, v)
        report = check_serre(w, interior_probes(w), 6)
        assert report.passed, (name, report.items[:3])
    announce(5, "Yoneda dimension identities + Serre pair symmetry", t0)


def test_criterion_6_thread_structure():
    t0 = time.monotonic()
    for name, tq in dualizing_fixtures():
        for d in (1, 2):
            report = thread_hom_check(expand(tq, d))
            assert report.passed, (name, d, report.items[:3])
    for name, tq in chain_fixtures():
        for d in (0, 1, 2):
            w = expand(tq, d)
            assert thread_hom_check(w).passed, (name, d)
            extracted = extract_threadquiver(w, 1)
            w0 = expand(extracted, 0)
            assert window_iso(w0, w) is not None, (name, d)
    announce(6, "thread hom = 1 along threads; extraction round trip", t0)


def test_criterion_7_equivalence_instance():
    t0 = time.monotonic()
    for d in (0, 1, 2):
        w1 = expand(tq_fin1_thread(), d)
        w2 = expand(tq_two_empty_threads(), d)
        assert len(w1.quiver.vertices) == len(w2.quiver.vertices) == 4 * d + 3
        assert window_iso(w1, w2) is not None, d
    announce(7, "label-1 thread vs two empty threads give isomorphic windows", t0)


def _chain_positions(w, t):
    vmap = w.embed_t[t]
    return {wv: i for i, wv in enumerate(vmap.values())}


def test_criterion_8_adjunction_identities():
    t0 = time.monotonic()
    for name, tq in dualizing_fixtures():
        tqn = normalize(tq)
        w = expand(tqn, 1)
        base = Window(underlying_quiver(tqn), tqn.relations)
        qr = list(w.source_tq.vertices)
        qr_set = set(qr)
        owner = {}
        for t, vmap in w.embed_t.items():
            for wv in vmap.values():
                if wv not in qr_set:
                    owner[wv] = t
        ends = {t.name: (t.src, t.tgt) for t in tqn.thread_arrows}
        i_left, i_right = {}, {}
        for v in w.quiver.vertices:
            if v in qr_set:
                i_left[v] = (v,)
                i_right[v] = (v,)
            else:
                src, tgt = ends[owner[v]]
                i_right[v] = (src,)
                i_left[v] = (tgt,)
        base_hom = lambda a, b: base.hom_dim(a, b)
        rep = adjunction_check(w, qr, i_left, LEFT, sub_hom=base_hom)
        assert rep.passed, (name, "qr left", rep.items[:3])
        rep = adjunction_check(w, qr, i_right, RIGHT, sub_hom=base_hom)
        assert rep.passed, (name, "qr right", rep.items[:3])
        for t, vmap in w.embed_t.items():
            chain = list(vmap.values())
            pos = {v: i for i, v in enumerate(chain)}
            chain_hom = lambda a, b: 1 if pos[a] <= pos[b] else 0
            X, Y = chain[0], chain[-1]
            for side in (LEFT, RIGHT):
                assign = {
                    v: interval_adjoint(w, X, Y, v, side)[0]
                    for v in w.quiver.vertices
                }
                rep = adjunction_check(w, chain, assign, side, sub_hom=chain_hom)
                assert rep.passed, (name, t, side, rep.items[:3])
    # the maps-out-of-threads instance: i_L of a thread start is the successor
    # of the thread end, with a one dimensional hom
    from conftest import tq_z_thread

    w = expand(normalize(tq_z_thread()), 2)
    runs = [r for r in thread_runs(w) if len(r) >= 2]
    assert runs
    run_ = runs[0]
    outs = {a.src: a.tgt for a in w.quiver.arrows}
    y_plus = outs[run_[-1]]
    assert w.hom_dim(run_[0], y_plus) == 1
    complement = [v for v in w.quiver.vertices if v not in set(run_)]
    assign = {v: ((y_plus,) if v in set(run_) else (v,)) for v in w.quiver.vertices}
    rep = adjunction_check(w, complement, assign, LEFT, probes=list(run_))
    assert rep.passed, rep.items[:3]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.2f}s"
    announce(8, "adjunction identities for regular-part and chain embeddings", t0)


def test_criterion_9_triple_model():
    t0 = time.monotonic()
    rng = random.Random(99)
    threaded = [(n, tq) for n, tq in dualizing_fixtures() if tq.thread_arrows]
    threaded.append(("two-empty-threads", tq_two_empty_threads()))
    for name, tq in threaded:
        w = expand(tq, 1)
        for _ in range(20):
            M, N = random_fp_rep(w, rng), random_fp_rep(w, rng)
            tm, tn = to_triple(M), to_triple(N)
            assert modification_hom_dim(tm, tn) == hom_dim(M, N), name
        M = random_fp_rep(w, rng)
        back = from_triple(to_triple(M), w)
        assert back.dims == M.dims
        for a in w.quiver.arrows:
            assert back.maps[a.name] == M.maps[a.name]
    announce(9, "modification homs match glued homs; triple round trip exact", t0)


def schema_valid(doc):
    if set(doc) != {"check", "status", "items"}:
        return False
    if doc["status"] not in ("pass", "fail"):
        return False
    for item in doc["items"]:
        if not {"subject", "expected", "actual"} <= set(item):
            return False
    return (doc["status"] == "pass") == (len(doc["items"]) == 0)


def test_criterion_10_cli_contract(capsys):
    t0 = time.monotonic()
    code = run(["serre-check", str(FIXTURES / "a2.tq")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and schema_valid(doc) and doc["status"] == "pass"
    code = run(["serre-check", str(FIXTURES / "ainf_rad2.tq"), "--max-len", "6"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and schema_valid(doc)
    assert any("ExceedsBound" in i["actual"] for i in doc["items"])
    code = run(["roundtrip", str(FIXTURES / "empty_thread.tq")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and schema_valid(doc)
    for path in sorted(FIXTURES.glob("*.tq")):
        tq = parse_tq(path.read_text())
        tq2 = parse_tq(serialize_tq(tq))
        assert tq2.vertices == tq.vertices
        assert tq2.standard_arrows == tq.standard_arrows
        assert [(t.name, t.label) for t in tq2.thread_arrows] == [
            (t.name, t.label) for t in tq.thread_arrows
        ]
        assert len(tq2.relations) == len(tq.relations)
    announce(10, "CLI exit codes, JSON schema, DSL round trip", t0)
