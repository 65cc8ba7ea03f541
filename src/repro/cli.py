"""File-level command line tool: ``repro-compress``.

Mirrors the ergonomics of the SZ/ZFP command-line utilities::

    repro-compress compress field.f32 field.rpz --shape 512,512,512 \
        --rel-bound 1e-3 --compressor SZ_T
    repro-compress compress field.f32 field.rpz --shape 512,512,512 \
        --precision 16 --compressor ZFP_P \
        --safeguard rel:1e-3 --safeguard sign --safeguard monotone:axis=0
    repro-compress decompress field.rpz field.out.f32
    repro-compress info field.rpz
    repro-compress stats field.rpz --top 10
    repro-compress profile --profile-out prof.speedscope.json \
        compress field.f32 field.rpz --shape 512,512,512 --rel-bound 1e-3
    repro-compress perf report --out perf_report.md
    repro-compress verify field.rpz
    repro-compress repair damaged.rpz repaired.rpz --json report.json
    repro-compress faults bit-flip field.rpz damaged.rpz --seed 3

``compress``, ``decompress`` and ``stats`` accept ``--trace`` (print the
pipeline span tree, stage times as percentages of the root) and
``--trace-json PATH`` (write the same spans as JSON for machines); see
``docs/observability.md``.

Raw binaries need ``--shape`` (and ``--dtype`` when not float32); ``.npy``
inputs are self-describing.  ``compress`` verifies and reports the achieved
ratio and maximum point-wise relative error.

``compress``/``decompress`` accept ``--journal DIR`` (crash-safe
write-ahead journaling; an interrupted job is finished by
``repro-compress resume DIR``), ``--policy SPEC`` (declarative resilience
policy, e.g. ``retries=3;chunk-timeout=2;ladder=SZ_T>GZIP``) and
``--ladder A>B`` (graceful-degradation codec chain); see
``docs/resilience.md``.

Expected failures never produce a traceback: every command prints a
one-line ``error:`` diagnostic to stderr and exits with a meaningful
status.  Exit 2 means bad data or environment (corrupt stream, missing
file, I/O error -- and argparse's own usage errors); exit 1 means the
request itself cannot be satisfied (invalid spec or bound, exhausted
codec ladder, unresumable journal).  Anything else exiting nonzero is a
crash and keeps its traceback.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import (
    AbsoluteBound,
    PrecisionBound,
    RelativeBound,
    StreamError,
    available_compressors,
    compress,
    decompress,
)
from repro.compressors.base import UnsupportedBound
from repro.data.io import load_array, save_array
from repro.metrics import bounded_fraction
from repro.resilience.policy import ResilienceError

__all__ = ["main"]


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(d) for d in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}; expected e.g. 512,512,512")
    if not dims or any(d <= 0 for d in dims):
        raise argparse.ArgumentTypeError(f"shape dimensions must be positive: {text!r}")
    return dims


def _parse_size(text: str) -> int:
    """Byte count with optional K/M/G suffix (binary units): '8M' -> 8 MiB."""
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:].upper(), 1)
    digits = text[:-1] if scale != 1 else text
    try:
        value = int(digits) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size {text!r}; expected e.g. 4M, 512K, 1048576")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"size must be positive: {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _parse_fill(text: str) -> str | float:
    """Fill policy: a named mode or a literal float."""
    if text in ("nan", "zero", "nearest"):
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad fill {text!r}; expected nan, zero, nearest, or a number"
        )


def _parse_keep(text: str) -> int | float:
    """Truncation point: plain int = byte count, value with '.' = fraction."""
    try:
        return float(text) if "." in text else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad keep {text!r}; expected a byte count (1024) or fraction (0.5)"
        )


def _parse_safeguard_spec(text: str) -> str:
    """Validate a ``--safeguard`` spec early; the string itself is kept."""
    from repro.safeguards import parse_safeguard

    try:
        parse_safeguard(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _parse_policy_spec(text: str) -> str:
    """Validate a ``--policy`` spec early; the string itself is kept."""
    from repro.resilience import parse_policy

    try:
        parse_policy(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _parse_ladder(text: str) -> list[str]:
    """``A>B>C`` fallback chain; every rung must be a registered codec."""
    rungs = [r.strip() for r in text.split(">") if r.strip()]
    if not rungs:
        raise argparse.ArgumentTypeError(f"bad ladder {text!r}; expected e.g. SZ_T>GZIP")
    known = set(available_compressors())
    for rung in rungs:
        if rung not in known:
            raise argparse.ArgumentTypeError(
                f"unknown ladder rung {rung!r}; choose from {sorted(known)}"
            )
    return rungs


def _bound_from(args) -> AbsoluteBound | RelativeBound | PrecisionBound:
    chosen = [
        b for b in (
            ("rel", args.rel_bound), ("abs", args.abs_bound), ("prec", args.precision)
        ) if b[1] is not None
    ]
    if len(chosen) != 1:
        raise SystemExit("specify exactly one of --rel-bound / --abs-bound / --precision")
    kind, value = chosen[0]
    if kind == "rel":
        return RelativeBound(value)
    if kind == "abs":
        return AbsoluteBound(value)
    return PrecisionBound(value)


def _read_blob(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# -- commands ----------------------------------------------------------------


def _journaled_compress(args, bound) -> int:
    from repro.resilience import run_compress_job

    result = run_compress_job(
        args.input,
        args.output,
        bound,
        journal_dir=args.journal,
        shape=args.shape,
        dtype=args.dtype,
        compressor=args.compressor,
        safeguards=list(args.safeguard) if args.safeguard else None,
        ladder=args.ladder,
        policy=args.policy,
        chunk_bytes=args.chunk_size,
        workers=args.workers,
        parity=args.parity,
        group_size=args.group_size if args.parity is not None else None,
        chunk_timeout=args.chunk_timeout,
    )
    print(f"{args.input}: {result.summary()}")
    return 0


def _cmd_compress(args) -> int:
    bound = _bound_from(args)
    if args.journal is not None:
        return _journaled_compress(args, bound)
    data = load_array(args.input, args.shape, np.dtype(args.dtype))
    compressor: object = args.compressor
    label = args.compressor
    if args.safeguard:
        from repro.safeguards import SafeguardedCompressor

        compressor = SafeguardedCompressor(args.compressor, args.safeguard)
        label = f"SAFE({args.compressor}; {'; '.join(args.safeguard)})"
    if args.ladder:
        from repro.resilience import DegradationLadder

        compressor = DegradationLadder.with_fallbacks(compressor, args.ladder)
        label = ">".join([label, *compressor.rung_names[1:]])
    chunked_opts = (
        args.chunk_size, args.workers, args.parity, args.chunk_timeout, args.policy,
    )
    if any(v is not None for v in chunked_opts):
        from repro.core.chunked import ChunkedCompressor

        kwargs = {}
        if args.chunk_size is not None:
            kwargs["chunk_bytes"] = args.chunk_size
        if args.workers is not None:
            kwargs["workers"] = args.workers
        if args.parity is not None:
            kwargs["parity"] = args.parity
            kwargs["group_size"] = args.group_size
        if args.chunk_timeout is not None:
            kwargs["timeout"] = args.chunk_timeout
        if args.policy is not None:
            kwargs["policy"] = args.policy
        chunked = ChunkedCompressor(compressor, **kwargs)
        blob = compress(data, bound, compressor=chunked)
        label = (
            f"{label} ({chunked.last_chunk_count} chunks x "
            f"{chunked.workers} workers"
            + (f", k={chunked.parity} parity" if chunked.parity else "")
            + ")"
        )
        if chunked.last_resilience is not None and not chunked.last_resilience.quiet:
            print(f"resilience: {chunked.last_resilience.summary()}", file=sys.stderr)
    else:
        blob = compress(data, bound, compressor=compressor)
    with open(args.output, "wb") as fh:
        fh.write(blob)
    line = (
        f"{args.input}: {data.nbytes} -> {len(blob)} bytes "
        f"({data.nbytes / len(blob):.2f}x) with {label}"
    )
    rel_value = bound.value if isinstance(bound, RelativeBound) else None
    if rel_value is None and args.safeguard:
        # A declared rel:BR safeguard guarantees the bound even when the
        # inner codec was driven by an absolute/precision bound.
        rel_value = getattr(compressor, "declared_rel_bound", None)
    if rel_value is not None:
        stats = bounded_fraction(data, decompress(blob), rel_value)
        line += f", bounded {stats.bounded_label()}, max rel err {stats.max_rel:.3e}"
    print(line)
    if args.report:
        from repro.report import quality_report

        print(quality_report(data, blob).format())
    return 0


def _cmd_decompress(args) -> int:
    if args.journal is not None:
        if args.tolerate_corruption:
            print("error: --journal and --tolerate-corruption are mutually "
                  "exclusive (resume needs deterministic chunk output)",
                  file=sys.stderr)
            return 2
        from repro.resilience import run_decompress_job

        result = run_decompress_job(args.input, args.output, journal_dir=args.journal)
        print(f"{args.output}: {result.summary()}")
        return 0
    blob = _read_blob(args.input)
    if args.tolerate_corruption:
        from repro.core.chunked import recover_array

        recon, report = recover_array(blob, args.fill)
        if recon is None:
            print(f"error: {args.input}: unrecoverable: {report.failures[0].error}",
                  file=sys.stderr)
            return 2
        if report is not None:
            print(f"{args.input}: {report.summary()}", file=sys.stderr)
    else:
        recon = decompress(blob)
    save_array(args.output, recon)
    print(f"{args.output}: {recon.shape} {recon.dtype}")
    return 0


def _cmd_resume(args) -> int:
    from repro.resilience import resume_job

    result = resume_job(args.journal)
    print(result.summary())
    return 0


def _cmd_info(args) -> int:
    from repro.observe.quality import byte_tree, section_kind_map
    from repro.stream import parse_stream

    blob = _read_blob(args.input)
    model = parse_stream(blob)
    model.raise_defects()
    print(f"codec:  {model.codec}")
    if model.shape is not None:
        print(f"shape:  {model.shape}")
    if model.dtype is not None:
        print(f"dtype:  {model.dtype.name}")
    print(f"bytes:  {len(blob)}")
    print(f"format: v{model.version}" + (" (checksummed)" if model.checksummed else ""))
    if model.inner_codec is not None:
        print(f"inner:  {model.inner_codec}")
    if model.safeguards is not None:
        print(f"safeguards: {'; '.join(model.safeguards) or '(none)'}")
        print(f"patched: {model.patched} point(s)")
    if model.n_chunks is not None:
        print(f"chunks: {model.n_chunks}")
    if model.ladder is not None:
        print(f"ladder: {model.ladder}")
    if model.codec_mix is not None:
        parts = ", ".join(f"{n}x {c}" for c, n in sorted(model.codec_mix.items()))
        print(f"codec mix: {parts}"
              + (f" ({model.degraded} chunk(s) fell back)" if model.degraded else ""))
    if model.parity is not None:
        print(
            f"parity: k={model.parity.k} per group of {model.parity.group_size} "
            f"({model.parity.nbytes} parity bytes)"
        )
    for name, f in (model.fields or {}).items():
        print(f"field {name}: {f.codec} {f.shape} {getattr(f.dtype, 'name', '?')}, {f.nbytes} B")
    tree = byte_tree(model)
    kinds = section_kind_map(tree)
    for key, sec in model.sections.items():
        line = f"  section {key:12s} {sec.nbytes:10d} B"
        if key in kinds:
            line += f"  [{kinds[key]}]"
        print(line)
    totals = tree.kind_totals()
    overhead = totals.get("framing", 0) + totals.get("checksum", 0)
    print(f"container overhead: {overhead} B framing+CRC "
          f"({100.0 * overhead / len(blob):.2f}%)")
    return 0


def _cmd_stats(args) -> int:
    from repro.report import build_report

    blob = _read_blob(args.input)
    if args.top:
        # Hot-spot table wants the decode's span tree: force tracing on
        # for this command and capture into a private sink.
        from repro.observe import get_tracer, render_top_spans

        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = True
        try:
            with tracer.capture() as captured:
                report = build_report(blob)
        finally:
            tracer.enabled = was_enabled
        print(report.format())
        print()
        print(render_top_spans(captured, n=args.top))
    else:
        print(build_report(blob).format())
    return 0


def _cmd_profile(args) -> int:
    rest = list(args.cmd)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("error: profile: missing command to run, e.g. "
              "repro-compress profile compress in.npy out.rpz --rel-bound 1e-3",
              file=sys.stderr)
        return 2
    if rest[0] == "profile":
        print("error: profile: cannot nest profile commands", file=sys.stderr)
        return 2
    from repro.observe import (
        enable_tracing,
        get_tracer,
        install_profiler,
        uninstall_profiler,
    )

    # Samples are attributed to the innermost open span, so tracing must
    # be on for the duration even when the wrapped command didn't ask.
    enable_tracing(True)
    get_tracer().clear()
    try:
        install_profiler(hz=args.hz, memory=args.memory)
    except ValueError as exc:
        print(f"error: profile: {exc}", file=sys.stderr)
        return 2
    try:
        try:
            code = main(rest)
        except SystemExit as exc:  # nested argparse error: still report
            code = exc.code if isinstance(exc.code, int) else 2
    finally:
        profile = uninstall_profiler()
    fmt = args.format or ("speedscope" if args.profile_out else "table")
    if fmt == "speedscope":
        text = profile.speedscope_json(name=" ".join(rest), indent=2) + "\n"
    elif fmt == "collapsed":
        text = profile.collapsed()
    else:
        text = profile.table() + "\n"
    if args.profile_out:
        with open(args.profile_out, "w") as fh:
            fh.write(text)
        print(
            f"profile: {profile.n_samples} samples over "
            f"{profile.duration_s:.3f}s at {profile.hz:g} Hz -> "
            f"{args.profile_out} ({fmt})",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(text)
    return code


def _cmd_perf(args) -> int:
    from repro.observe.ledger import (
        LedgerError,
        read_ledger,
        render_trend_report,
        resolve_ledger_path,
    )

    path = args.ledger or resolve_ledger_path()
    if not path:
        print("error: perf: ledger disabled (REPRO_LEDGER=off) and no --ledger",
              file=sys.stderr)
        return 2
    try:
        entries = read_ledger(path)
    except LedgerError as exc:
        print(f"error: perf: {exc}", file=sys.stderr)
        return 2
    report = render_trend_report(entries, last_n=args.last)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"perf: wrote {args.out} ({len(entries)} ledger entries)")
    else:
        sys.stdout.write(report)
    return 0


def _cmd_audit(args) -> int:
    from repro.report import audit_report

    blob = _read_blob(args.input)
    original = None
    if args.original is not None:
        original = load_array(args.original, args.shape, np.dtype(args.dtype))
    try:
        report = audit_report(blob, original, check_theorem3=not args.no_theorem3)
    except ValueError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, default=str)
    print(f"{args.input}:")
    print(report.format())
    return 0 if report.ok else 2


def _cmd_explain(args) -> int:
    from repro.observe.quality import explain_stream

    blob = _read_blob(args.input)
    original = None
    if args.original is not None:
        original = load_array(args.original, args.shape, np.dtype(args.dtype))
    report = explain_stream(blob, original, mad_k=args.mad_k)
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, default=str)
    text = report.format(max_depth=args.depth)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"explain: wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 2


def _cmd_verify(args) -> int:
    from repro.integrity import verify_stream

    report = verify_stream(_read_blob(args.input))
    print(f"{args.input}: {report.summary()}")
    for note in report.notes:
        print(f"  note: {note}")
    return 0 if report.ok else 2


def _cmd_repair(args) -> int:
    from repro.integrity import repair_stream

    blob = _read_blob(args.input)
    fixed, report = repair_stream(blob)
    with open(args.output, "wb") as fh:
        fh.write(fixed)
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
    print(f"{args.input}: {report.summary()}")
    return 0 if report.ok else 2


def _cmd_faults(args) -> int:
    from repro.testing import faults

    blob = _read_blob(args.input)
    if args.mode == "bit-flip":
        out = faults.flip_random_bits(blob, n=args.count, seed=args.seed)
    elif args.mode == "truncate":
        out = faults.truncate(blob, args.keep)
    elif args.mode == "drop-section":
        out = faults.drop_section(blob, args.key)
    elif args.mode == "corrupt-section":
        out = faults.corrupt_section(blob, args.key, n_bits=args.count, seed=args.seed)
    elif args.mode == "corrupt-safeguards":
        out = faults.corrupt_safeguards(blob, n_bits=args.count, seed=args.seed)
    else:  # corrupt-chunk
        out = faults.corrupt_chunk(blob, args.index, n_bits=args.count, seed=args.seed)
    with open(args.output, "wb") as fh:
        fh.write(out)
    print(f"{args.output}: {args.mode} applied, {len(blob)} -> {len(out)} bytes")
    return 0


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-compress",
        description="Error-bounded lossy compression of binary/npy fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compress", help="compress a field file")
    comp.add_argument("input")
    comp.add_argument("output")
    comp.add_argument("--shape", type=_parse_shape, default=None,
                      help="comma-separated dims for raw binary input")
    comp.add_argument("--dtype", choices=["float32", "float64"], default="float32")
    comp.add_argument("--compressor", choices=available_compressors(), default="SZ_T")
    comp.add_argument("--rel-bound", type=float, default=None,
                      help="point-wise relative error bound")
    comp.add_argument("--abs-bound", type=float, default=None,
                      help="absolute error bound")
    comp.add_argument("--precision", type=int, default=None,
                      help="bit precision (FPZIP / ZFP_P)")
    comp.add_argument("--safeguard", action="append", type=_parse_safeguard_spec,
                      default=None, metavar="SPEC",
                      help="wrap the compressor so a point-wise property is "
                           "guaranteed bit-exactly (repeatable): abs:EB, "
                           "rel:BR, ulp:K, sign, zero, nonfinite, "
                           "monotone:axis=N, range or range:LO,HI")
    comp.add_argument("--report", action="store_true",
                      help="print a full quality report after compressing")
    comp.add_argument("--chunk-size", type=_parse_size, default=None, metavar="SIZE",
                      help="split into chunks of SIZE bytes (K/M/G suffix allowed) "
                           "and compress them in parallel")
    comp.add_argument("--workers", type=_positive_int, default=None, metavar="N",
                      help="parallel chunk workers (default: all available CPUs; "
                           "implies --chunk-size 4M when set alone)")
    comp.add_argument("--parity", type=_positive_int, default=None, metavar="K",
                      help="store K Reed-Solomon parity blocks per chunk group "
                           "(writes a v3 stream; implies chunking)")
    comp.add_argument("--group-size", type=_positive_int, default=8, metavar="M",
                      help="data chunks per parity group (default 8)")
    comp.add_argument("--chunk-timeout", type=float, default=None, metavar="SEC",
                      help="per-chunk watchdog deadline: hung workers are "
                           "cancelled and retried (implies chunking)")
    comp.add_argument("--policy", type=_parse_policy_spec, default=None,
                      metavar="SPEC",
                      help="resilience policy spec, e.g. 'retries=3;backoff=0.1;"
                           "chunk-timeout=2;job-timeout=60;memory=512M;"
                           "breaker=0.5/10;ladder=SZ_T>GZIP' (implies chunking; "
                           "see docs/resilience.md)")
    comp.add_argument("--ladder", type=_parse_ladder, default=None, metavar="A>B",
                      help="graceful-degradation fallback chain tried in order "
                           "when the compressor fails, hangs or breaks the "
                           "bound, e.g. SZ_T>GZIP")
    comp.add_argument("--journal", default=None, metavar="DIR",
                      help="write-ahead journal directory: the job can be "
                           "killed at any point and finished with "
                           "'repro-compress resume DIR', producing the same "
                           "bytes as an uninterrupted run")

    dec = sub.add_parser("decompress", help="reconstruct a compressed stream")
    dec.add_argument("input")
    dec.add_argument("output")
    dec.add_argument("--tolerate-corruption", action="store_true",
                     help="repair parity-covered chunks and recover intact "
                          "chunks of a damaged stream (report goes to stderr)")
    dec.add_argument("--fill", type=_parse_fill, default="nan", metavar="MODE",
                     help="fill for unrecoverable spans with "
                          "--tolerate-corruption: nan, zero, nearest, or a "
                          "number (default nan)")
    dec.add_argument("--journal", default=None, metavar="DIR",
                     help="write-ahead journal directory enabling crash-safe "
                          "resume via 'repro-compress resume DIR'")

    res = sub.add_parser(
        "resume",
        help="finish an interrupted journaled compress/decompress job: "
             "re-does only chunks the journal has no valid record for and "
             "commits the identical output an uninterrupted run produces",
    )
    res.add_argument("journal", help="journal directory of the interrupted job")

    info = sub.add_parser("info", help="describe a compressed stream")
    info.add_argument("input")

    stats = sub.add_parser(
        "stats",
        help="decode a stream once and report chunk count, per-section "
             "sizes and decode-side telemetry (CRC verification time)",
    )
    stats.add_argument("input")
    stats.add_argument("--top", type=_positive_int, default=None, metavar="N",
                       help="also print the N slowest pipeline spans by "
                            "self-time (wall and CPU), from the decode's "
                            "trace tree")

    prof = sub.add_parser(
        "profile",
        help="run another repro-compress command under the sampling "
             "profiler and emit a span-attributed profile "
             "(speedscope flamegraph JSON, collapsed stacks, or a table)",
    )
    prof.add_argument("--hz", type=float, default=97.0,
                      help="sampling rate in Hz (default 97; prime so it "
                           "cannot phase-lock with periodic work)")
    prof.add_argument("--memory", action="store_true",
                      help="also run tracemalloc and record per-span "
                           "allocation high-water marks")
    prof.add_argument("--profile-out", default=None, metavar="PATH",
                      help="write the profile here (default: stdout)")
    prof.add_argument("--format", choices=["speedscope", "collapsed", "table"],
                      default=None,
                      help="output format (default: speedscope with "
                           "--profile-out, table otherwise)")
    prof.add_argument("cmd", nargs=argparse.REMAINDER, metavar="command",
                      help="the repro-compress command to profile, e.g. "
                           "compress in.npy out.rpz --rel-bound 1e-3")

    perf = sub.add_parser(
        "perf",
        help="performance-ledger tooling (see docs/observability.md)",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_report = perf_sub.add_parser(
        "report",
        help="render the markdown trend report from the benchmark ledger",
    )
    perf_report.add_argument("--ledger", default=None, metavar="PATH",
                             help="ledger path (default: $REPRO_LEDGER or "
                                  "./results/ledger.jsonl)")
    perf_report.add_argument("--last", type=_positive_int, default=10,
                             help="trend window: newest N runs per bench "
                                  "(default 10)")
    perf_report.add_argument("--out", default=None, metavar="PATH",
                             help="write the markdown here instead of stdout")

    audit = sub.add_parser(
        "audit",
        help="audit a stream's error-bound conformance: per-chunk max "
             "relative error vs the recorded bound, Lemma 2's b_a' check, "
             "Theorem 3's cross-base index deviation (exit 0 = conformant, "
             "2 = violated)",
    )
    audit.add_argument("input")
    audit.add_argument("--original", default=None, metavar="PATH",
                       help="original field file; enables the point-wise "
                            "error audit and the Theorem 3 check")
    audit.add_argument("--shape", type=_parse_shape, default=None,
                       help="comma-separated dims for a raw binary --original")
    audit.add_argument("--dtype", choices=["float32", "float64"], default="float32")
    audit.add_argument("--json", default=None, metavar="PATH",
                       help="additionally write the full audit report as JSON")
    audit.add_argument("--no-theorem3", action="store_true",
                       help="skip the cross-base quantization-index check")

    for traceable in (comp, dec, stats):
        traceable.add_argument("--trace", action="store_true",
                               help="print the pipeline span tree afterwards")
        traceable.add_argument("--trace-json", default=None, metavar="PATH",
                               help="write the span tree as JSON to PATH")
    for exportable in (comp, dec, stats, audit):
        exportable.add_argument(
            "--metrics-out", choices=["openmetrics", "jsonl"], default=None,
            help="after the command, export the metrics this run moved "
                 "(registry diff) in the chosen format")
        exportable.add_argument(
            "--metrics-path", default=None, metavar="PATH",
            help="write --metrics-out output to PATH instead of stdout")

    expl = sub.add_parser(
        "explain",
        help="byte-attribution and quality report for a stream: who owns "
             "each byte (framing, CRCs, entropy table vs payload, outliers, "
             "safeguard patches, parity), per-chunk anomaly flags, and -- "
             "with --original -- the point-wise error distribution "
             "(exit 0 = intact, 2 = damaged)",
    )
    expl.add_argument("input")
    expl.add_argument("--original", default=None, metavar="PATH",
                      help="original field file; enables the point-wise "
                           "error-quality section of the report")
    expl.add_argument("--shape", type=_parse_shape, default=None,
                      help="comma-separated dims for a raw binary --original")
    expl.add_argument("--dtype", choices=["float32", "float64"], default="float32")
    expl.add_argument("--json", default=None, metavar="PATH",
                      help="additionally write the full explain report as JSON")
    expl.add_argument("--out", default=None, metavar="PATH",
                      help="write the markdown report to PATH instead of stdout")
    expl.add_argument("--mad-k", type=float, default=5.0,
                      help="anomaly threshold: flag chunks deviating more than "
                           "K median-absolute-deviations from the stream "
                           "median (default 5.0)")
    expl.add_argument("--depth", type=_positive_int, default=3,
                      help="attribution-tree depth in the markdown (default 3)")

    ver = sub.add_parser(
        "verify",
        help="check checksums and structure without decompressing "
             "(exit 0 = intact, 2 = damaged)",
    )
    ver.add_argument("input")

    rep = sub.add_parser(
        "repair",
        help="rebuild damaged chunks of a parity-bearing (v3) stream from "
             "Reed-Solomon parity (exit 0 = fully repaired, 2 = losses remain)",
    )
    rep.add_argument("input")
    rep.add_argument("output")
    rep.add_argument("--json", default=None, metavar="PATH",
                     help="write the per-chunk RepairReport as JSON")

    flt = sub.add_parser(
        "faults",
        help="inject a deterministic fault into a stream (testing/repro)",
    )
    flt.add_argument("mode", choices=[
        "bit-flip", "truncate", "drop-section", "corrupt-section", "corrupt-chunk",
        "corrupt-safeguards",
    ])
    flt.add_argument("input")
    flt.add_argument("output")
    flt.add_argument("--seed", type=int, default=0,
                     help="RNG seed for the random-bit modes (default 0)")
    flt.add_argument("--count", type=_positive_int, default=1, metavar="N",
                     help="number of bits to flip (default 1)")
    flt.add_argument("--keep", type=_parse_keep, default=0.5,
                     help="truncate: bytes to keep (int) or fraction (float, "
                          "default 0.5)")
    flt.add_argument("--key", default="payload",
                     help="section name for drop-section / corrupt-section "
                          "(default 'payload')")
    flt.add_argument("--index", type=int, default=0,
                     help="chunk index for corrupt-chunk (default 0)")

    args = parser.parse_args(argv)
    handler = {
        "compress": _cmd_compress,
        "decompress": _cmd_decompress,
        "resume": _cmd_resume,
        "info": _cmd_info,
        "stats": _cmd_stats,
        "audit": _cmd_audit,
        "explain": _cmd_explain,
        "verify": _cmd_verify,
        "repair": _cmd_repair,
        "faults": _cmd_faults,
        "profile": _cmd_profile,
        "perf": _cmd_perf,
    }[args.command]
    tracing = bool(getattr(args, "trace", False) or getattr(args, "trace_json", None))
    if tracing:
        from repro.observe import enable_tracing, get_tracer

        enable_tracing(True)
        get_tracer().clear()
    metrics_fmt = getattr(args, "metrics_out", None)
    if metrics_fmt:
        from repro.observe import metrics as _registry

        metrics_before = _registry().snapshot()
    try:
        return handler(args)
    except StreamError as exc:
        print(f"error: {getattr(args, 'input', '?')}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResilienceError, UnsupportedBound, ValueError) as exc:
        # Expected "the request cannot be satisfied" failures: bad specs,
        # unsupported bounds, exhausted ladders, unresumable journals.
        # One line, exit 1 -- distinct from bad data/environment (2).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracing:
            tracer = get_tracer()
            if args.trace_json:
                with open(args.trace_json, "w") as fh:
                    fh.write(tracer.to_json())
            if args.trace:
                rendered = tracer.render()
                if rendered:
                    print(rendered)
        if metrics_fmt:
            from repro.observe import metrics_to_jsonl, to_openmetrics

            delta = _registry().diff(metrics_before)
            text = (
                to_openmetrics(delta)
                if metrics_fmt == "openmetrics"
                else metrics_to_jsonl(delta)
            )
            if args.metrics_path:
                with open(args.metrics_path, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)


def _entry() -> int:  # pragma: no cover - thin wrapper for console_scripts
    try:
        return main()
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away; exit quietly like
        # well-behaved unix tools.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_entry())
