"""Fast tests of the benchmark itself: one tiny pass of each workload, a
corrupted expected answer that must be caught, and a traced run that must
leave the package as it found it.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run, tracing  # noqa: E402
from perfbench.speed import REFERENCE_S, SpeedProbe  # noqa: E402
from perfbench.workloads import WORKLOADS, _splits_over_q, grid_dsl, grid_hom_dim  # noqa: E402


def bindings() -> dict:
    """Every name bound in a package module or on a package class."""
    out = {}
    for mod in tracing.package_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = cvalue
    return out


def bench(capsys, monkeypatch, *args):
    monkeypatch.setattr(run, "TINY", True)
    code = run.main(["--seed", "3", "--seconds", "0", *args])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_pass_is_correct_and_reports_every_end_to_end_metric(capsys, monkeypatch, workload):
    code, result = bench(capsys, monkeypatch, "--workload", workload, "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_corrupted_expected_answer_fails_the_command(capsys, monkeypatch, tmp_path):
    expected = json.loads(run.EXPECTED.read_text())
    expected["serre-check mixed --depth 1"]["checked"] += 1
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", corrupted)
    code, result = bench(capsys, monkeypatch, "--workload", "serre-ladder", "--trace", "0")
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def test_recorded_answers_match_the_committed_ones(capsys, monkeypatch, tmp_path):
    committed = json.loads(run.EXPECTED.read_text())
    recorded = tmp_path / "expected.json"
    monkeypatch.setattr(run, "EXPECTED", recorded)
    code, _ = bench(capsys, monkeypatch, "--workload", "structure-mixed", "--trace", "0",
                    "--record")
    assert code == 0
    answers = json.loads(recorded.read_text())
    assert answers and all(committed[label] == answer for label, answer in answers.items())


def test_traced_run_reports_layers_and_restores_the_package(capsys, monkeypatch):
    code, result = bench(capsys, monkeypatch, "--workload", "structure-mixed", "--trace", "1")
    assert code == 0 and result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _, _ in tracing.per_layer_metrics()]
    assert metrics["threads.rad_irr_dims.calls"]["value"] > 0
    assert metrics["serre.total_hom_dims.calls"]["value"] == 0
    shares = sum(metrics[f"{name}.share"]["value"] for name in tracing.NAMES)
    assert 0 < shares <= 1
    wrapped = [key for key, value in bindings().items()
               if getattr(value, "__qualname__", "").startswith("Tracer.")]
    assert wrapped == []


def test_tracer_restores_every_binding_and_splits_recursive_self_time():
    tq = run.import_package(ROOT / "src")
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tq.serre.pseudo is not before[("threadquiver.serre", "pseudo")]
        w = tq.windows.expand(tq.dsl.parse_tq((ROOT / "fixtures/mixed.tq").read_text()), 1)
        arrow = next(a for a in w.quiver.arrows if not {a.src, a.tgt} & w.boundary)
        tq.serre.pseudo(tq.serre.VarietyMor.from_arrow(w, arrow.name), tq.serre.COKERNEL)
    finally:
        tracer.restore()
    assert bindings() == before
    i = tracer.ids["serre.pseudo"]
    spans = [(tracer.span_start[k], tracer.span_end[k])
             for k in range(len(tracer.span_name)) if tracer.span_name[k] == i]
    assert len(spans) == 2  # the cokernel side calls the kernel side ...
    assert tracer.calls[i] == 1  # ... which is the same call, counted once
    outer = max(end - start for start, end in spans)
    assert 0 < tracer.self_s[i] <= outer
    # every Window.hom call is a stored span (a miss) or a hit kept on its parent
    h = tracer.ids[tracing.HOM]
    stored = sum(1 for k in range(len(tracer.span_name)) if tracer.span_name[k] == h)
    hits = sum(tracer.span_hits) + tracer.root_hits[0]
    assert stored == tracer.calls[tracer.ids[tracing.HOM_PATHS]]
    assert stored + hits == tracer.calls[h] and hits > 0


def test_split_test_of_the_end_not_split_oracle():
    F = Fraction
    assert not _splits_over_q([[F(0), F(2)], [F(1), F(0)]])  # x^2 - 2
    assert _splits_over_q([[F(1), F(1)], [F(0), F(1)]])  # (x - 1)^2
    assert _splits_over_q([[F(1, 2), F(0), F(0)], [F(3), F(-2), F(0)], [F(1), F(1), F(0)]])
    assert not _splits_over_q([[F(0), F(0), F(2)], [F(1), F(0), F(0)], [F(0), F(1), F(0)]])


def test_speed_probe_rescales_between_probes_and_leaves_them_out():
    probe = SpeedProbe()
    probe.samples = [(0.0, 0.1, 0.01), (1.1, 1.2, 0.03), (2.2, 2.3, 0.01)]
    # each second between probes ran where the kernel took 0.02 s on average
    assert probe.scale(0.0, 2.3) == pytest.approx(2 * REFERENCE_S / 0.02)
    assert probe.scale(0.5, 0.7) == pytest.approx(0.2 * REFERENCE_S / 0.02)
    assert probe.raw(0.0, 2.3) == pytest.approx(2.0)


def test_speed_probe_timer_samples_and_is_switched_off():
    probe = SpeedProbe()
    handler = signal.getsignal(signal.SIGALRM)
    with probe.running():
        time.sleep(3 * probe.interval)
    assert len(probe.samples) >= 4
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_grid_closed_form_matches_the_grid():
    text = grid_dsl(2)
    assert text.count("\nrelation ") == 4
    assert grid_hom_dim("v0_0", "v2_2") == 1 and grid_hom_dim("v1_0", "v0_1") == 0


def test_without_a_checkout_the_command_fails_without_a_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "serre-ladder", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
