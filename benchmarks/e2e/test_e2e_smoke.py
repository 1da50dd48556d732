"""Smoke test of the end-to-end benchmark (collected by the tier-1 command).

Every workload runs once at ``--scale smoke`` through the real command path
(a fresh child per workload, traced last pass) and must emit every metric
``BENCHMARK.json`` declares, with its unit and a finite value; and the
tracer's self-time arithmetic is checked on a synthetic span tree whose
clock the test controls, including a generator span.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from benchmarks.e2e import metrics
from benchmarks.e2e.__main__ import reported, run_child
from benchmarks.e2e.tracer import Tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CONTRACT = metrics.load_contract()


def test_metric_names_are_well_formed():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", metrics.workload_names(CONTRACT))
def test_workload_emits_every_metric(workload):
    report = run_child(workload, seed=17, seconds=1.5, trace=1, scale="smoke")
    assert report["correct"], report["problems"]
    assert report["attempted"] >= 1 and report["failed"] == 0
    for trace, family in ((0, "end_to_end"), (1, "per_layer")):
        emitted = reported(CONTRACT, report, trace)
        for declared in CONTRACT[family]:
            entry = emitted[declared["name"]]
            assert entry["unit"] == declared["unit"]
            assert math.isfinite(entry["value"]), declared["name"]
    # A metric that reads 0 cannot carry a relative bound.  At this scale the
    # service window is half a second, so whether a query closes inside it
    # depends on the box: the query timings are only held to be finite.
    window_dependent = {"queries_per_s", "query_p50_ms", "query_p90_ms"}
    assert all(
        value > 0 for name, value in report["untraced"].items() if name not in window_dependent
    )


class FakeClock:
    """A clock the test advances by hand (seconds)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_arithmetic_on_a_synthetic_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def effects():
        clock.now += 1.0           # resume 1: 1 s of its own
        answer = yield "request"   # suspended: the driver's time, not ours
        traced_leaf()              # resume 2: a 2 s child ...
        clock.now += 0.5           # ... plus 0.5 s of its own
        return answer

    traced_leaf = tracer.wrap_call("leaf", leaf)
    traced_effects = tracer.wrap_resumable("generator", effects)

    def root():
        clock.now += 3.0
        generator = traced_effects()
        assert next(generator) == "request"
        clock.now += 10.0          # handling the request: root's own time
        with pytest.raises(StopIteration) as stop:
            generator.send("reply")
        assert stop.value.value == "reply"
        traced_leaf()

    tracer.wrap_call("root", root)()

    assert tracer.calls == {"root": 1, "generator": 1, "leaf": 2}
    assert tracer.self_s["leaf"] == pytest.approx(4.0)
    # Active 1 + 2.5 s, of which the leaf covers 2 s.
    assert tracer.self_s["generator"] == pytest.approx(1.5)
    # 18.5 s wall minus the generator's 3.5 s active and the second leaf.
    assert tracer.self_s["root"] == pytest.approx(13.0)
    assert tracer.attributed_s == pytest.approx(18.5)

    spans = {span[0]: span for span in tracer.spans if span[0] != "leaf"}
    assert spans["root"][3] == -1 and spans["root"][5] == pytest.approx(18.5)
    assert spans["generator"][1:3] == (3.0, 16.5)          # first resume .. last yield
    assert spans["generator"][5] == pytest.approx(3.5)     # active, not end - start
    assert tracer.spans[spans["generator"][3]][0] == "root"
    # The recorded tree alone reproduces the live aggregates: a span's
    # active time minus the active time of its direct children.
    by_name = {name: 0.0 for name in tracer.self_s}
    for name, _start, _end, parent, _qid, active in tracer.spans:
        by_name[name] += active
        if parent >= 0:
            by_name[tracer.spans[parent][0]] -= active
    assert by_name == pytest.approx(dict(tracer.self_s))


def test_unrecorded_leaves_only_feed_the_aggregates(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    hot = tracer.wrap_call("hot", leaf, record=False)
    tracer.wrap_call("root", lambda: (hot(), hot()))()
    assert tracer.calls["hot"] == 2 and tracer.self_s["hot"] == pytest.approx(2.0)
    assert tracer.self_s["root"] == pytest.approx(0.0)
    assert [span[0] for span in tracer.spans] == ["root"]
    path = tmp_path / "trace.jsonl"
    assert tracer.dump(str(path)) == 1
    assert json.loads(path.read_text())["name"] == "root"


def test_a_catch_all_span_is_reported_but_not_attributed():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    layer = tracer.wrap_call("layer", leaf)

    def loop():
        clock.now += 3.0           # glue that names no layer
        layer()

    tracer.wrap_call("loop", loop, catch_all=True)()
    assert tracer.self_s["loop"] == pytest.approx(3.0)
    assert tracer.attributed_s == pytest.approx(1.0)
