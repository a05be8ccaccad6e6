"""Tests of the benchmark itself (its checks, corpus and tracer), not of
skeinlab.  Run from the root of a checkout:

    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import pytest

import run

workloads, tracing, _ = run.load_program()


def _items(name: str, keep, seed: int = 5, rounds: int = 1):
    """Built items of the first `rounds` rounds whose cell passes `keep`."""
    wl = workloads.WORKLOADS[name]
    shared = wl.setup()
    specs = workloads.specs(wl, seed, rounds)
    return wl, [[wl.build(shared, s) for cell, s in zip(wl.ROUND, rnd) if keep(cell)]
                for rnd in specs]


SMALL = {
    "knots": lambda cell: cell[0] <= 4,
    "tl": lambda cell: cell[0] <= 4,
    "algebra": lambda cell: cell[0] == 2,
    "cli": lambda cell: True,
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corpus_is_determined_by_the_seed(name):
    wl = workloads.WORKLOADS[name]
    digest = lambda seed: hashlib.sha256(repr(workloads.specs(wl, seed, 2)).encode()).digest()
    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_correct_results_pass(name):
    wl, rounds = _items(name, SMALL[name])
    tally = run.Tally()
    run.run_rounds(wl, rounds, tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.reasons


def _scale_pairing(pair, k):
    return dataclasses.replace(pair, pairing=pair.pairing.scale(k))


# One deliberately wrong value per check: each must be counted as a failure.
CORRUPTIONS = {
    "knots: invariant off by one": ("knots", lambda r: (r[0] + 1, r[1])),
    "knots: oracle off by one": ("knots", lambda r: (r[0], r[1] + 1)),
    "tl: generator doubled": ("tl", lambda r: ([r[0][0].scale(2)] + r[0][1:], r[1], r[2])),
    "tl: program verdict failed": ("tl", lambda r: (r[0], "e1^2 != delta*e1", r[2])),
    "algebra: rank-nullity broken": (
        "algebra", lambda r: (r[0], dataclasses.replace(r[1], z2=r[1].z2 + 1), *r[2:])),
    "algebra: d2d1 verdict false": ("algebra", lambda r: ([False] * len(r[0]), *r[1:])),
    "algebra: deformed pair not a switchback pair": (
        "algebra", lambda r: (*r[:4], [_scale_pairing(p, 2) for p in r[4]], *r[5:])),
    "algebra: d2 matrix perturbed": (
        "algebra", lambda r: (r[0], r[1], (r[2][0], _bump(r[2][1]), r[2][2]), *r[3:])),
    "cli: exit code": ("cli", lambda r: (1, r[1])),
    "cli: mismatch reported": ("cli", lambda r: (0, r[1] + "oracle s1 s1: MISMATCH\n")),
    "cli: output missing": ("cli", lambda r: (0, "")),
}


def _bump(rows):
    """The matrix with one more 1 in its first column: d3 . d2 or d2 . d1
    stops vanishing, or a cocycle leaves the kernel."""
    out = [list(row) for row in rows]
    out[0][0] = out[0][0] + 1
    return out


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_wrong_values_are_counted(case):
    name, corrupt = CORRUPTIONS[case]
    wl, rounds = _items(name, SMALL[name])

    class Corrupted:
        def run(self, item):
            return corrupt(wl.run(item))

        def check(self, item, result):
            return wl.check(item, result)

    tally = run.Tally()
    run.run_rounds(Corrupted(), rounds, tally)
    assert tally.attempted > 0
    assert tally.failed == tally.attempted, f"{tally.failed} of {tally.attempted}"


def test_exceptions_are_counted_not_raised():
    wl, rounds = _items("knots", lambda cell: cell[0] == 3)

    class Raising:
        def run(self, item):
            raise RuntimeError("boom")

        def check(self, item, result):
            return None

    tally = run.Tally()
    run.run_rounds(Raising(), rounds, tally)
    assert tally.failed == tally.attempted == 3
    assert tally.reasons[0] == "RuntimeError: boom"


def _tl_item(n: int, ybe: bool):
    wl = workloads.WORKLOADS["tl"]
    rng = workloads.random.Random(3)
    spec = wl.spec(rng, (n, "laurent", ybe, None))
    return wl, wl.build(wl.setup(), spec)


@pytest.mark.parametrize("ybe, composes", [(False, 8), (True, 12)])
def test_traced_compose_count_of_one_tl_check(ybe, composes):
    # At 3 strands: cupcap in tl_generators is 1 compose, delta0 is 1, and
    # tl_first_failure makes 2 (e_i^2) + 2 * 2 (e1e2e1, e2e1e2) = 6; the
    # Yang-Baxter residual adds 2 * 2.  Every compose is reached through a
    # `from .linmap import compose` binding in rmatrix or switchback.
    wl, item = _tl_item(3, ybe)
    tally, _, tracer = run.traced_pass(tracing, wl, [[item]])
    assert tally.failed == 0, tally.reasons
    metrics = tracer.layer_metrics()
    assert metrics["linmap.compose.calls"][0] == composes
    assert tracer.spans["rmatrix.tl_generators"][0] == 1
    assert tracer.spans["rmatrix.tl_first_failure"][0] == 1
    assert metrics["linmap.compose.max_dim"][0] == 8
    # the tracer is gone afterwards
    assert workloads.rmatrix.compose is workloads.linmap.compose
    assert "wrapper" not in workloads.linmap.compose.__code__.co_name
    assert isinstance(vars(workloads.linmap.LinearMap)["identity"], staticmethod)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_time_is_accounted(name):
    wl, rounds = _items(name, SMALL[name])
    runs = [run.traced_pass(tracing, wl, rounds) for _ in range(2)]
    counts = []
    for tally, wall, tracer in runs:
        assert tally.failed == 0, tally.reasons
        metrics = tracer.layer_metrics()
        counts.append(({k: v for k, (v, unit) in metrics.items() if unit != "s"},
                       {k: c for k, (c, _) in tracer.spans.items()}))
        assert all(s >= 0 for _, s in tracer.spans.values())
        assert abs(wall - tracer.attributed_s()) <= run.ACCOUNTING_TOLERANCE * wall
    assert counts[0] == counts[1]


def test_missing_sources_exit_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", Path(run.ROOT, "no-such-dir"))
    with pytest.raises(SystemExit) as exc:
        run.load_program()
    assert exc.value.code != 0
    assert capsys.readouterr().out == ""


def test_timed_metrics_are_rescaled_by_the_host_calibration(monkeypatch):
    wl, rounds = _items("cli", lambda cell: cell[0] is workloads._cmd_infiltrate)
    # a host at half the reference speed: the calibration takes twice as long
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.HOST_REFERENCE_S)
    tally = run.Tally()
    done, wall, latencies = run.run_for(wl, rounds, 0.2, tally)
    assert done >= 1 and tally.failed == 0
    assert latencies == [x / 2 for x in tally.latencies]
    assert 0 < wall < 0.2
