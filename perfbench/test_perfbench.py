"""Tests for the benchmark's own helpers:  python3 -m pytest perfbench"""

import itertools
import types

import pytest

from harness import (MIN_BEYOND, PROBE_EVERY_S, REF_S, Job, SpeedProbe,
                     at_reference_speed, percentile, run_job, tally)
from run import Pass, _call_ms
from spans import Recorder, Span, self_times
from workloads import _json_fields, _parse_refusal


# --- percentile rule ----------------------------------------------------------


@pytest.mark.parametrize("q, enough", [(0.5, 20), (0.9, 100), (0.99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, enough):
    assert percentile(list(range(enough - 1)), q) is None
    values = list(range(enough))[::-1]
    got = percentile(values, q)
    assert got is not None
    assert sum(v > got for v in values) == MIN_BEYOND


def test_percentile_is_nearest_rank():
    assert percentile(list(range(1, 21)), 0.5) == 10
    assert percentile(list(range(1, 101)), 0.9) == 90
    assert percentile([], 0.5) is None


def test_call_latency_reports_its_sample_count():
    runs = [types.SimpleNamespace(wall_s=i / 1000) for i in range(30)]
    samples, p50, p90 = _call_ms([Pass(1.0, 1.0, runs)])
    assert len(samples) == 30
    assert p50 == pytest.approx(14.0)
    assert p90 is None


# --- machine-speed reference --------------------------------------------------


def test_scaling_to_reference_speed():
    # a pass of 2 s while the loop took twice REF_S: 1 s at reference speed
    assert at_reference_speed(2.0, [2 * REF_S]) == pytest.approx(1.0)
    assert at_reference_speed(3.0, [REF_S, 3 * REF_S, 3 * REF_S]) == \
        pytest.approx(1.0)
    assert at_reference_speed(3.0, [2 * REF_S, 4 * REF_S]) == \
        pytest.approx(1.0)


def test_probe_reads_median_and_only_when_due():
    now = [0.0]
    loop_s = iter([0.02, 0.01, 0.03] * 3)

    def loop():
        now[0] += next(loop_s)

    probe = SpeedProbe(clock=lambda: now[0], loop=loop)
    assert probe.read() == pytest.approx(0.06)
    assert probe.readings == [pytest.approx(0.02)]
    now[0] += PROBE_EVERY_S / 2
    assert probe.read_if_due() == 0.0 and len(probe.readings) == 1
    now[0] += PROBE_EVERY_S / 2
    assert probe.read_if_due() > 0 and len(probe.readings) == 2


# --- spans and self time ------------------------------------------------------


def _span(start, end, parent=None):
    return Span("s", start, end, parent, "p0")


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        _span(0, 10),
        _span(1, 4, parent=0),
        _span(3, 6, parent=0),   # overlaps the previous child
        _span(9, 12, parent=0),  # runs past the parent's end: clipped
        _span(2, 3, parent=1),   # grandchild: counts against its parent only
    ]
    assert self_times(spans) == pytest.approx([4, 2, 3, 3, 1])


def test_recorder_nests_spans_through_module_globals():
    ticks = itertools.count()
    rec = Recorder(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("fake")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x, method='a'):\n    return inner(x) * 2\n", mod.__dict__)
    rec.instrument(mod, {"inner": "fake.inner",
                         "outer": lambda a, k: f"fake.outer.{k.get('method', 'a')}"})
    rec.pass_id = "pass0"
    assert mod.outer(1, method="b") == 4
    outer, inner = rec.spans
    assert (outer.name, outer.parent, outer.pass_id) == ("fake.outer.b", None, "pass0")
    assert (inner.name, inner.parent) == ("fake.inner", 0)
    assert outer.start < inner.start < inner.end < outer.end
    assert self_times(rec.spans) == [2.0, 1.0]


def test_recorder_closes_span_when_call_raises():
    rec = Recorder()
    failing = rec.wrap(lambda: 1 / 0, lambda a, k: "boom")
    with pytest.raises(ZeroDivisionError):
        failing()
    assert rec.spans[0].end >= rec.spans[0].start
    assert rec.begin("next") == 1 and rec.spans[1].parent is None


# --- failure counting ---------------------------------------------------------


def _job(call, expect, known=None):
    return Job("j", call, expect, "test", known=known)


def test_wrong_count_fails():
    run = run_job(_job(lambda: (7, {}), 6))
    assert not run.ok and run.value == 7


def test_exception_fails_and_is_recorded():
    def boom():
        raise ValueError("bad model")
    run = run_job(_job(boom, 6))
    assert not run.ok and run.value == "ValueError: bad model"


def test_unexpected_exit_code_fails():
    parse = _json_fields("nu")
    run = run_job(_job(lambda: (parse(2, "", "error: over budget\n")[0], {}),
                       (0, "16")))
    assert not run.ok and run.value == (2, "error: over budget")
    ok = run_job(_job(lambda: (parse(0, '{"nu": "16", "ms": 3}', "")[0], {}),
                      (0, "16")))
    assert ok.ok
    refused = run_job(_job(lambda: (_parse_refusal(0, "{}", "")[0], {}),
                           (1, True)))
    assert not refused.ok


def test_tally_counts_failures_and_known_disagreement():
    passing = run_job(_job(lambda: (6, {}), 6))
    known = run_job(_job(lambda: (5, {}), 6, known=5))
    assert tally([passing, known]) == (2, 1, True)
    moved = run_job(_job(lambda: (4, {}), 6, known=5))
    assert tally([passing, moved]) == (2, 1, False)
    wrong = run_job(_job(lambda: (7, {}), 6))
    assert tally([passing, known, wrong]) == (3, 2, False)
