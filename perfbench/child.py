"""Processes the benchmark starts, one job each.

    python3 perfbench/child.py probe
    python3 perfbench/child.py gen WORKLOAD SEED WORKDIR
    python3 perfbench/child.py setup WORKLOAD WORKDIR
    python3 perfbench/child.py workload WORKLOAD WORKDIR --trace 0|1 --seconds S

Each prints one JSON object as the last line of its standard output.
``probe`` times ``import repro.cli`` in a bare interpreter; ``setup``
times import, compressor construction and one warm-up op in a fresh one;
``workload`` is the single process that runs the workload's closed loop,
so its ``ru_maxrss`` is the workload's peak memory.
"""

import sys
import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import


def _probe() -> None:
    before = len(sys.modules)
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401

    seconds = time.perf_counter() - t0
    after = set(sys.modules)
    import json

    print(json.dumps({
        "import_s": seconds,
        "modules": len(after) - before,
        "scipy": int("scipy" in after),
    }))


if __name__ == "__main__" and sys.argv[1:2] == ["probe"]:
    _probe()
    sys.exit(0)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
for _p in (str(_ROOT / "src"), str(_ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from perfbench import measure, trace  # noqa: E402
from perfbench.workloads import CHUNK_WORKERS, WORKLOADS, generate_inputs  # noqa: E402


def _program_settings() -> None:
    """Tracer off, quality digests on, as every measured process runs.

    The tracer is on by default and its span buffer grows with every op;
    it is switched off through the public API, since no ``REPRO_*``
    variable may be set.  CLI subprocesses keep the program's default.
    """
    from repro.observe import enable_tracing
    from repro.observe.quality import quality_enabled

    enable_tracing(False)
    if not quality_enabled():
        raise RuntimeError("quality digests are off; the benchmark measures them on")


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # Linux reports KiB


def _setup(wl, workdir: Path) -> dict:
    import repro  # noqa: F401

    _program_settings()

    # cli-small's warm-up op is its compress command run in this interpreter.
    case = wl.cases(workdir, "trace" if wl.kind == "cli" else "timed")[0]
    state: dict = {}
    failure = case.check("compress", case.run("compress", state), state)
    seconds = time.perf_counter() - _T0
    if failure:
        raise RuntimeError(f"warm-up op failed: {failure}")
    return {"setup_s": seconds}


def _end_to_end(res: measure.LoopResult) -> tuple[dict, dict]:
    """End-to-end metrics of a loop, and the tail percentiles used."""
    metrics, tails = {}, {}
    for name, kinds in (("compress", ("compress",)), ("decompress", ("decompress",)),
                        ("inspect", ("verify", "stats"))):
        value, pct, n = measure.tail_ms(res.samples(*kinds))
        metrics[f"{name}_p50_ms"] = measure.p50_ms(res, *kinds)
        metrics[f"{name}_tail_ms"] = value
        tails[f"{name}_tail_ms"] = {"percentile": pct, "samples": n}
    metrics["compress_MBps"] = measure.throughput_mbps(res, "compress")
    metrics["decompress_MBps"] = measure.throughput_mbps(res, "decompress")
    metrics["ratio"] = res.ratio()
    return metrics, tails


def _timed(wl, workdir: Path, seconds: float) -> dict:
    _program_settings()
    cases = wl.cases(workdir, "timed")
    # One untimed round trip lets lazy set-up finish; a CLI op starts a
    # fresh interpreter every time, so cli-small has nothing to warm.
    warm = measure.run_loop(cases[:1], passes=1) if wl.kind != "cli" else measure.LoopResult()
    trace.assert_clean()
    res = measure.run_loop(cases, seconds=seconds)
    trace.assert_clean()
    metrics, tails = _end_to_end(res)
    own, children = _maxrss_mb(resource.RUSAGE_SELF), _maxrss_mb(resource.RUSAGE_CHILDREN)
    # cli-small's ops run in the CLI processes; this one only waits on them.
    metrics["peak_rss_MB"] = children if wl.kind == "cli" else own
    notes = {"passes": res.passes, "tails": tails, "failures": warm.failures() + res.failures()}
    if wl.kind == "chunked":
        notes["worker_peak_rss_MB"] = children
    return {
        "attempted": warm.attempted + res.attempted,
        "failed": warm.failed + res.failed,
        "metrics": metrics,
        "notes": notes,
    }


def _op_walls(res: measure.LoopResult) -> float:
    return sum(r.seconds for r in res.records if r.seconds is not None)


def _traced(wl, workdir: Path) -> dict:
    _program_settings()
    cases = wl.cases(workdir, "trace")
    # A whole untimed pass first: the untraced pass that sets the overhead
    # base must not pay first-touch costs the traced pass then skips.
    loops = [measure.run_loop(cases, passes=1)]
    trace.assert_clean()
    par = None
    if wl.has_parallel:
        par = measure.run_loop(wl.cases(workdir, "parallel"), passes=3)
        loops.append(par)
    worker_rss = _maxrss_mb(resource.RUSAGE_CHILDREN) if par is not None else 0.0
    base = measure.run_loop(cases, passes=1)
    trace.assert_clean()
    rec = trace.SpanRecorder()
    with trace.Patcher(trace.TIME_TARGETS, rec.wrap):
        traced = measure.run_loop(cases, passes=1, on_op=rec.op)
    trace.assert_clean()
    probe = trace.MemoryProbe()
    tracemalloc.start()
    try:
        with trace.Patcher(trace.MEMORY_TARGETS, probe.wrap):
            mem = measure.run_loop(cases, passes=1, on_op=probe.op)
    finally:
        tracemalloc.stop()
    trace.assert_clean()
    loops += [base, traced, mem]
    for other in loops:
        if other.streams != base.streams:
            raise trace.TraceError("streams differ between traced and untraced runs")
    metrics = _layer_metrics(trace.analyze(rec), rec.counts, probe.peak_x, par, traced)
    metrics["trace.overhead_frac"] = _op_walls(traced) / _op_walls(base) - 1.0
    metrics["core.chunked.worker_peak_rss_MB"] = worker_rss
    return {
        "attempted": sum(r.attempted for r in loops),
        "failed": sum(r.failed for r in loops),
        "metrics": metrics,
        "notes": {"failures": [f for r in loops for f in r.failures()]},
    }


def _layer_metrics(an: trace.Analysis, counts, peak_x: dict, par, traced) -> dict:
    def self_ms(*spans: str) -> float:
        return 1e3 * sum(an.self_s.get(s, 0.0) for s in spans)

    def incl_ms(kind: str, span: str) -> float:
        return 1e3 * an.incl_s.get((kind, span), 0.0)

    def per_op(kind: str, span: str) -> float:
        n = an.ops.get(kind, 0)
        return an.calls.get((kind, span), 0) / n if n else 0.0

    stream_bytes = sum(len(traced.streams[r.case]) for r in traced.records
                       if r.case in traced.streams)
    deflate_in = counts["deflate.in"]
    m = {
        "cli.compress_ms": incl_ms("compress", "cli.main"),
        "cli.decompress_ms": incl_ms("decompress", "cli.main"),
        "cli.verify_ms": incl_ms("verify", "cli.main"),
        "cli.stats_ms": incl_ms("stats", "cli.main"),
        "cli.compress_decode_calls": per_op("compress", "api.decompress"),
        "core.pwr.compress_self_ms": self_ms("core.pwr.compress"),
        "core.pwr.decompress_self_ms": self_ms("core.pwr.decompress"),
        "core.pwr.compress_peak_x": peak_x.get("core.pwr.compress", 0.0),
        "core.pwr.decompress_peak_x": peak_x.get("core.pwr.decompress", 0.0),
        "core.transform.forward_ms": self_ms("core.transform.forward"),
        "core.transform.inverse_ms": self_ms("core.transform.inverse"),
        "encoding.sign_bitmap_ms": self_ms("encoding.sign_bitmap"),
        "compressors.sz.quantize_ms": self_ms("compressors.sz.quantize"),
        "compressors.sz.reconstruct_ms": self_ms("compressors.sz.reconstruct"),
        "compressors.sz.self_ms": self_ms("compressors.sz.compress", "compressors.sz.decompress"),
        "encoding.huffman.encode_ms": self_ms("encoding.huffman.encode"),
        "encoding.huffman.decode_ms": self_ms("encoding.huffman.decode"),
        "encoding.deflate_ms": self_ms("encoding.deflate"),
        "encoding.inflate_ms": self_ms("encoding.inflate"),
        "encoding.deflate_saved_frac":
            (deflate_in - counts["deflate.out"]) / deflate_in if deflate_in else 0.0,
        "encoding.container.serialize_ms": self_ms("encoding.container.serialize"),
        "encoding.container.parse_ms": self_ms("encoding.container.parse"),
        "encoding.container.parses_per_op": per_op("decompress", "encoding.container.parse"),
        "encoding.crc_ms": self_ms("encoding.crc"),
        "encoding.crc.bytes_per_stream_byte": counts["crc.bytes"] / stream_bytes,
        "safeguards.patch_channel_ms": self_ms("safeguards.patch_channel"),
        "safeguards.passes_per_op": per_op("compress", "safeguards.patch_channel"),
        "safeguards.patched_points": float(counts["patched"]),
        "observe.quality.digest_ms": self_ms("observe.quality.digest"),
        "compressors.zfp.encode_planes_ms": self_ms("compressors.zfp.encode_planes"),
        "compressors.zfp.decode_planes_ms": self_ms("compressors.zfp.decode_planes"),
        "compressors.zfp.transform_ms": self_ms("compressors.zfp.transform"),
        "compressors.zfp.decode_per_compress": per_op("compress", "compressors.zfp.decode_planes"),
        "compressors.zfp.encode_planes_peak_x": peak_x.get("compressors.zfp.encode_planes", 0.0),
        "integrity.verify_stream_ms": self_ms("integrity.verify_stream"),
        "report.build_report_ms": self_ms("report.build_report"),
        "core.chunked.compress_ms": self_ms("core.chunked.compress"),
        "core.chunked.decompress_ms": self_ms("core.chunked.decompress"),
        "core.chunked.chunks": per_op("compress", "core.chunked.chunk"),
    }
    chunk_ms = incl_ms("compress", "core.chunked.chunk")
    decode_chunk_ms = incl_ms("decompress", "core.chunked.chunk_decode")
    m["core.chunked.chunk_ms_sum"] = chunk_ms
    m["core.chunked.overhead_ms"] = incl_ms("compress", "core.chunked.compress") - chunk_ms
    m["core.chunked.parallel_eff"] = m["core.chunked.decode_parallel_eff"] = 0.0
    m["core.chunked.straggler_ratio"] = 0.0
    if par is not None and an.chunk_s:
        from repro import get_compressor

        decode_workers = min(get_compressor("CHUNKED").workers, len(an.chunk_s))
        wall_c = statistics.median(par.samples("compress"))
        wall_d = statistics.median(par.samples("decompress"))
        m["core.chunked.parallel_eff"] = chunk_ms / (CHUNK_WORKERS * 1e3 * wall_c)
        m["core.chunked.decode_parallel_eff"] = decode_chunk_ms / (decode_workers * 1e3 * wall_d)
        m["core.chunked.straggler_ratio"] = max(an.chunk_s) / statistics.median(an.chunk_s)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    sub = parser.add_subparsers(dest="job", required=True)
    gen = sub.add_parser("gen")
    gen.add_argument("workload", choices=sorted(WORKLOADS))
    gen.add_argument("seed", type=int)
    gen.add_argument("workdir", type=Path)
    setup = sub.add_parser("setup")
    setup.add_argument("workload", choices=sorted(WORKLOADS))
    setup.add_argument("workdir", type=Path)
    run = sub.add_parser("workload")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("workdir", type=Path)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    if args.job == "gen":
        generate_inputs(wl, args.seed, args.workdir)
        out = {"inputs": len(wl.inputs)}
    elif args.job == "setup":
        out = _setup(wl, args.workdir)
    elif args.trace:
        out = _traced(wl, args.workdir)
    else:
        out = _timed(wl, args.workdir, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
