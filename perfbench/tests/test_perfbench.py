"""Tests of the benchmark itself: output checks, statistics, wrapper hygiene
and the self-time arithmetic.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _p in (str(ROOT / "src"), str(ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from perfbench import measure, trace  # noqa: E402
from perfbench.workloads import WORKLOADS, LibraryCase  # noqa: E402


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    from repro.data.datasets import load_field

    return load_field("CESM-ATM", "CLDLOW", scale=0.25, seed=7)


class BoundBreaker:
    """A codec stub whose reconstruction is 1.5x the input."""

    name = "BREAKER"

    def compress(self, data, bound) -> bytes:
        buf = io.BytesIO()
        np.save(buf, data)
        return buf.getvalue()

    def decompress(self, blob: bytes) -> np.ndarray:
        return np.load(io.BytesIO(blob)) * np.float32(1.5)


class Exploder(BoundBreaker):
    def compress(self, data, bound) -> bytes:
        raise RuntimeError("boom")


# -- output checks ------------------------------------------------------------


def test_bound_violation_accepts_a_faithful_reconstruction(field):
    recon = field * np.float32(1 + 1e-4)
    assert measure.bound_violation(field, recon, 1e-3) is None


@pytest.mark.parametrize(
    "mutate, why",
    [
        (lambda x: x * np.float32(1.01), "finite points break"),
        (lambda x: np.where(x == 0, np.float32(1e-30), x), "finite points break"),
        (lambda x: x.astype(np.float64), "dtype"),
        (lambda x: x.ravel(), "shape"),
        (lambda x: np.where(x == x.max(), np.float32(np.nan), x), "finite points break"),
    ],
)
def test_bound_violation_flags(field, mutate, why):
    assert field.min() == 0  # clipped zeros are part of the case
    reason = measure.bound_violation(field, mutate(field), 1e-3)
    assert reason is not None and reason.startswith(measure.BOUND_FAILURE) and why in reason


def test_bound_violation_flags_sign_flips():
    x = np.array([-2.0, 3.0], dtype=np.float32)
    assert "finite points break" in measure.bound_violation(x, -x, 0.5)
    assert measure.bound_violation(np.array([-0.0], np.float32), np.array([0.0], np.float32), 0.1) is None


def test_codec_breaking_the_bound_is_counted_failed(field):
    case = LibraryCase("breaker", field, 1e-3, BoundBreaker(), decoder=BoundBreaker())
    res = measure.run_loop([case], passes=2)
    assert res.attempted == 6
    # compress (charged with the stream it made), decompress, and verify of a
    # stream that is not a repro container: every op failed.
    assert res.failed == res.attempted
    kinds = {r.kind: r.failure for r in res.records}
    assert kinds["compress"].startswith(measure.BOUND_FAILURE)
    assert kinds["decompress"].startswith(measure.BOUND_FAILURE)
    # Failed ops keep their latency samples.
    assert len(res.samples("compress")) == 2 and len(res.samples("decompress")) == 2


def test_raising_codec_fails_its_op_and_the_ops_that_depend_on_it(field):
    case = LibraryCase("exploder", field, 1e-3, Exploder())
    res = measure.run_loop([case], passes=1)
    assert [r.failure is not None for r in res.records] == [True, True, True]
    assert "boom" in res.records[0].failure
    assert res.records[1].seconds is None and res.records[1].failure.startswith("skipped")
    assert res.samples("compress") and not res.samples("decompress")


def test_real_codec_round_trips_clean_and_deterministic(field):
    cases = [LibraryCase(f"c{br}", field, br, "SZ_T") for br in (1e-2, 1e-4)]
    res = measure.run_loop(cases, passes=2)
    assert res.failed == 0 and res.attempted == 12
    assert res.ratio() == sum(c.nbytes for c in cases) / sum(map(len, res.streams.values()))


# -- statistics ------------------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [i / 1000 for i in range(1, 31)]  # 1..30 ms
    value, pct, n = measure.tail_ms(samples)
    assert n == 30 and value == pytest.approx(20.0) and pct == pytest.approx(200 / 3)
    assert sum(s * 1e3 > value for s in samples) == measure.TAIL_BEYOND


def test_tail_falls_back_to_the_median_below_eleven_samples():
    assert measure.tail_ms([0.001, 0.002, 0.009]) == (2.0, 50.0, 3)


def test_p50_weighs_every_case_once():
    res = measure.LoopResult()
    for case, ms in (("a", [10, 11, 12]), ("b", [20, 21, 90]), ("c", [30, 31, 32])):
        res.records += [measure.OpRecord("compress", case, v / 1e3, 1) for v in ms]
    assert measure.p50_ms(res, "compress") == pytest.approx(21.0)


# -- wrapper hygiene ------------------------------------------------------------


def _originals(targets):
    return [trace._resolve(t)[2] for t in targets]


def test_every_target_resolves_today():
    missing = [t for t in trace.TIME_TARGETS + trace.MEMORY_TARGETS if trace._resolve(t) is None]
    assert missing == []


def test_missing_target_fails_loudly_and_patches_nothing():
    bogus = trace.TIME_TARGETS[:3] + (trace.Target("x", "repro.core.pwr", "renamed_away"),)
    before = _originals(trace.TIME_TARGETS[:3])
    with pytest.raises(trace.TraceError, match="renamed_away"):
        with trace.Patcher(bogus, trace.SpanRecorder().wrap):
            pass
    assert _originals(trace.TIME_TARGETS[:3]) == before
    trace.assert_clean()


def test_patcher_reaches_every_binding_and_restores_it():
    from repro.core import pwr
    from repro.encoding import codecs, container

    orig_deflate, orig_sign = codecs.deflate, pwr.encode_sign_bitmap
    with trace.Patcher(trace.TIME_TARGETS, trace.SpanRecorder().wrap):
        # The caller's own binding is wrapped, not only the defining module's.
        assert getattr(pwr.encode_sign_bitmap, trace.WRAPPER_FLAG)
        assert getattr(codecs.deflate, trace.WRAPPER_FLAG)
        assert getattr(container.Container.__dict__["from_bytes"].__func__, trace.WRAPPER_FLAG)
        assert trace.installed_wrappers()
    assert codecs.deflate is orig_deflate and pwr.encode_sign_bitmap is orig_sign
    trace.assert_clean()


def test_leftover_wrapper_is_detected():
    from repro.encoding import codecs

    def fake():
        pass

    setattr(fake, trace.WRAPPER_FLAG, True)
    codecs._perfbench_leftover = fake
    try:
        with pytest.raises(trace.TraceError, match="_perfbench_leftover"):
            trace.assert_clean()
    finally:
        del codecs._perfbench_leftover


@pytest.mark.parametrize("codec", ["SZ_T", "ZFP_T"])
def test_traced_streams_match_untraced_and_self_times_add_up(field, codec):
    cases = [LibraryCase("f", field, 1e-3, codec)]
    plain = measure.run_loop(cases, passes=1)
    rec = trace.SpanRecorder()
    with trace.Patcher(trace.TIME_TARGETS, rec.wrap):
        traced = measure.run_loop(cases, passes=1, on_op=rec.op)
    trace.assert_clean()
    assert traced.failed == 0 and traced.streams == plain.streams
    an = trace.analyze(rec)
    assert an.max_residual_s <= 1e-6
    assert an.ops == {"compress": 1, "decompress": 1, "verify": 1}
    assert an.calls["decompress", "encoding.container.parse"] == 2
    layer = "compressors.sz.compress" if codec == "SZ_T" else "compressors.zfp.encode_planes"
    assert an.self_s[layer] > 0
    assert an.self_s["core.pwr.compress"] > 0


def test_analyze_rejects_a_span_outside_its_parent():
    rec = trace.SpanRecorder()
    with rec.op("compress", None):
        idx = rec._open("inner")
        rec._close(idx)
    rec.spans[1].t1 = rec.spans[0].t1 + 1.0
    with pytest.raises(trace.TraceError, match="escapes"):
        trace.analyze(rec)


def test_memory_probe_keeps_the_outer_peak_across_a_nested_reset():
    probe = trace.MemoryProbe()

    def inner(_self, n):
        return np.ones(n)

    def outer(_self, x):
        big = np.ones(x.size * 4)  # the outer peak, set before the inner call
        del big
        return wrapped_inner(None, x.size)

    t_in = trace.Target("compressors.zfp.encode_planes", "m", "f")
    t_out = trace.Target("core.pwr.compress", "m", "g")
    wrapped_inner = probe.wrap(t_in, inner)
    wrapped_outer = probe.wrap(t_out, outer)
    x = np.ones(1 << 16)
    tracemalloc.start()
    try:
        with probe.op("compress", type("Case", (), {"nbytes": x.nbytes})):
            wrapped_outer(None, x)
    finally:
        tracemalloc.stop()
    assert probe.peak_x["core.pwr.compress"] >= 3.9
    assert 0.9 <= probe.peak_x["compressors.zfp.encode_planes"] < 1.5


# -- BENCHMARK.json and the design record ----------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in spec[k]]
    assert len(names) == len(set(names)) and all(_NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and _UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and _UNIT.match(m["unit"])


def test_design_record_maps_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((ROOT / "perfbench" / "design.json").read_text())
    mapped = [m for layer in design["layers"].values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    e2e = {m["name"] for m in spec["end_to_end"]}
    for layer in design["layers"].values():
        assert set(layer["should_move"]) <= e2e
        assert set(layer["most_work"] + layer["little_work"]) <= set(WORKLOADS)
