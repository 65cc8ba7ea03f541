"""Structured event log: install / env activation / span correlation."""

import os

import numpy as np
import pytest

from repro import RelativeBound, get_compressor
from repro.observe import events
from repro.observe.events import (
    emit,
    event_log_enabled,
    install_event_log,
    read_events,
)


@pytest.fixture(autouse=True)
def _no_leftover_log():
    yield
    install_event_log(None)


class TestEventLog:
    def test_install_emit_read(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        install_event_log(path)
        assert event_log_enabled()
        emit("ping", codec="SZ_T", skipped=None)
        emit("pong", n=2)
        install_event_log(None)
        assert not event_log_enabled()
        recs = read_events(path)
        assert [r["event"] for r in recs] == ["ping", "pong"]
        assert [r["seq"] for r in recs] == [1, 2]
        assert recs[0]["codec"] == "SZ_T"
        assert "skipped" not in recs[0]  # None-valued fields are dropped
        assert all(r["pid"] == os.getpid() and r["t"] > 0 for r in recs)

    def test_emit_without_log_is_a_noop(self):
        install_event_log(None)
        emit("nobody-listening", x=1)  # must not raise or write anywhere

    def test_env_var_opens_lazily(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env-events.jsonl")
        monkeypatch.setattr(events, "_LOG", None)
        monkeypatch.setattr(events, "_CHECKED_ENV", False)
        monkeypatch.setenv("REPRO_EVENTS", path)
        assert event_log_enabled()
        emit("from-env")
        install_event_log(None)
        assert [r["event"] for r in read_events(path)] == ["from-env"]

    def test_unwritable_env_path_stays_silent(self, tmp_path, monkeypatch):
        monkeypatch.setattr(events, "_LOG", None)
        monkeypatch.setattr(events, "_CHECKED_ENV", False)
        monkeypatch.setenv("REPRO_EVENTS", str(tmp_path / "no" / "such" / "dir" / "x"))
        assert not event_log_enabled()
        emit("dropped")  # still a no-op, no exception


class TestSpanCorrelation:
    def test_pipeline_event_span_ids_resolve_against_trace_tree(self, tmp_path):
        """Every span_id in the event log joins the captured trace tree."""
        from repro.observe.tracer import enable_tracing, get_tracer

        data = np.exp(
            np.random.default_rng(0).normal(0, 1, (16, 16, 16))
        ).astype(np.float32)
        path = str(tmp_path / "run-events.jsonl")
        install_event_log(path)
        enable_tracing(True)
        try:
            with get_tracer().capture() as spans:
                comp = get_compressor("SZ_T")
                blob = comp.compress(data, RelativeBound(1e-2))
                comp.decompress(blob)
        finally:
            enable_tracing(False)
            install_event_log(None)

        recs = read_events(path)
        names = [r["event"] for r in recs]
        assert "compress" in names and "decompress" in names
        known_ids = {sid for sp in spans for sid in sp.iter_ids()}
        stamped = [r for r in recs if "span_id" in r]
        assert stamped, "pipeline events must carry span ids while tracing is on"
        for rec in stamped:
            assert rec["span_id"] in known_ids

    def test_events_flow_without_tracing(self, tmp_path):
        """With tracing off, events are still logged -- just without span ids."""
        data = np.linspace(1.0, 2.0, 4096).astype(np.float32)
        path = str(tmp_path / "untraced.jsonl")
        install_event_log(path)
        get_compressor("SZ_T").compress(data, RelativeBound(1e-2))
        install_event_log(None)
        recs = read_events(path)
        assert any(r["event"] == "compress" for r in recs)
        assert all("span_id" not in r for r in recs)

    def test_chunk_retry_event(self, tmp_path, monkeypatch):
        """A crashing worker chunk emits a chunk-retry event."""
        from repro.core import chunked as chunked_mod
        from repro.core.chunked import ChunkedCompressor

        data = np.exp(
            np.random.default_rng(1).normal(0, 1, (16, 16, 16))
        ).astype(np.float32)
        comp = ChunkedCompressor("SZ_T", chunk_bytes=8192, executor="thread", workers=2)
        calls = {"n": 0}
        orig = chunked_mod._compress_chunk

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("simulated worker crash")
            return orig(*args, **kwargs)

        monkeypatch.setattr(chunked_mod, "_compress_chunk", flaky)
        path = str(tmp_path / "retry.jsonl")
        install_event_log(path)
        blob = comp.compress(data, RelativeBound(1e-2))
        install_event_log(None)
        retries = [r for r in read_events(path) if r["event"] == "chunk-retry"]
        assert len(retries) == 1
        assert retries[0]["codec"] == "CHUNKED"
        np.testing.assert_allclose(
            comp.decompress(blob), data, rtol=1e-2
        )


class TestCompressSpans:
    def test_one_compress_span_and_event_per_codec_level(self, tmp_path):
        """SAFE over SZ_T over SZ_ABS: every level opens exactly one
        ``compress`` span -- whether entered through ``compress`` or
        ``compress_verified`` -- and emits one ``compress`` event."""
        from repro.observe.tracer import enable_tracing, get_tracer
        from repro.safeguards import SafeguardedCompressor

        data = np.exp(np.random.default_rng(0).normal(0, 1, 4096)).astype(np.float32)
        path = str(tmp_path / "levels.jsonl")
        install_event_log(path)
        enable_tracing(True)
        try:
            with get_tracer().capture() as spans:
                SafeguardedCompressor("SZ_T", ["rel:1e-3"]).compress(
                    data, RelativeBound(1e-3)
                )
        finally:
            enable_tracing(False)
            install_event_log(None)

        levels = []

        def visit(sp):
            if sp.name == "compress":
                levels.append(sp.attrs["codec"])
            for child in sp.children:
                visit(child)

        for sp in spans:
            visit(sp)
        assert levels == ["SAFE", "SZ_T", "SZ_ABS"]
        events = [r["codec"] for r in read_events(path) if r["event"] == "compress"]
        assert sorted(events) == sorted(levels)
