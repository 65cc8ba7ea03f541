"""The four workloads: their inputs, derived from the seed, and their cases.

A *case* is one input array under one point-wise relative bound.  A pass
runs each case's steps in order -- compress, decompress, then the
read-only inspect steps -- and every step is one op.  The program sees
only the generated arrays (and, for the CLI, files holding them).

Each workload has up to three case sets:

* ``timed``    -- the program as users run it; the end-to-end metrics.
* ``trace``    -- the same ops, single-threaded and in this process, so the
  wrappers of :mod:`perfbench.trace` see every layer (chunked-2w runs
  ``workers=1``; cli-small calls ``repro.cli.main`` in-process).
* ``parallel`` -- chunked-2w only: the 2-worker ops the traced run times
  untraced, for the parallel-efficiency metrics.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.measure import bound_violation

#: Library-workload fields, all at default scale.  CLDLOW comes first: it
#: is the smallest, and the warm-up op uses the first case.
FIELDS = (
    ("CESM-ATM", "CLDLOW"),  # 2-D, 0.5 MiB, clipped exact zeros
    ("HACC", "velocity_x"),  # 1-D, 2 MiB, signed
    ("NYX", "dark_matter_density"),  # 3-D, 1 MiB, log-normal
    ("Hurricane", "CLOUDf48"),  # 3-D, 2 MiB, ~84% exact zeros
    ("Hurricane", "Uf48"),  # 3-D, 2 MiB, signed
)
FIELD_BOUNDS = (1e-2, 1e-4)

CHUNK_BYTES = 1 << 20
CHUNK_WORKERS = 2

#: Seconds one CLI subprocess may take before the op counts as failed.
CLI_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "library" | "cli" | "chunked"
    inputs: tuple[tuple[str, str, float], ...]  # (app, field, scale)
    bounds: tuple[float, ...]
    codec: str | None = None

    def labels(self) -> list[str]:
        """One label per input; realizations of the same field are numbered."""
        return [f"{name}.{i}" for i, (_, name, _) in enumerate(self.inputs)]

    def input_files(self, workdir: Path) -> list[Path]:
        return [workdir / f"{label}.npy" for label in self.labels()]

    def cases(self, workdir: Path, mode: str) -> list:
        """The cases of one pass; ``mode`` is "timed", "trace" or "parallel"."""
        files = self.input_files(workdir)
        arrays = [np.load(p) for p in files]
        labels = self.labels()
        if self.kind == "library":
            return [
                LibraryCase(f"{label}@{br:g}", x, br, self.codec)
                for label, x in zip(labels, arrays)
                for br in self.bounds
            ]
        if self.kind == "cli":
            (br,) = self.bounds
            return [CliCase(f"{label}@{br:g}", x, br, src, workdir, inprocess=mode == "trace")
                    for label, x, src in zip(labels, arrays, files)]
        if self.kind == "chunked":
            from repro.core import ChunkedCompressor, make_sz_t

            (x,), (br,) = arrays, self.bounds
            workers = 1 if mode == "trace" else CHUNK_WORKERS
            codec = ChunkedCompressor(
                make_sz_t(), workers=workers, executor="process", chunk_bytes=CHUNK_BYTES
            )
            # Traced decode runs serially so every chunk stays in this thread;
            # the timed decode is the program's generic dispatch.
            decoder = ChunkedCompressor(executor="thread", workers=1) if mode == "trace" else None
            return [LibraryCase(f"{labels[0]}@{br:g}", x, br, codec, decoder)]
        raise ValueError(f"unknown workload kind {self.kind!r}")

    @property
    def has_parallel(self) -> bool:
        return self.kind == "chunked"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sz_t-fields", "library", tuple((a, f, 1.0) for a, f in FIELDS),
                 FIELD_BOUNDS, codec="SZ_T"),
        Workload("zfp_t-fields", "library", tuple((a, f, 1.0) for a, f in FIELDS),
                 FIELD_BOUNDS, codec="ZFP_T"),
        # Three realizations of the 0.5 MiB field: one alone swings the
        # ratio by +-12% from seed to seed.
        Workload("cli-small", "cli", (("CESM-ATM", "CLDLOW", 1.0),) * 3, (1e-3,)),
        # 128^3 float32 = 8 MiB: above the 4 MiB per-core L2, inside the
        # 105 MiB shared L3 (no input here reaches 4x the LLC).
        Workload("chunked-2w", "chunked", (("NYX", "dark_matter_density", 2.0),), (1e-3,)),
    )
}


def field_seed(seed: int, app: str, label: str, scale: float) -> int:
    """Per-input generator seed, derived from the workload seed."""
    return zlib.crc32(f"{seed}/{app}/{label}/{scale:g}".encode())


def generate_inputs(workload: Workload, seed: int, workdir: Path) -> None:
    """Write every input array of ``workload`` as ``.npy`` under ``workdir``."""
    from repro.data.datasets import load_field

    for (app, name, scale), label, path in zip(
        workload.inputs, workload.labels(), workload.input_files(workdir)
    ):
        x = load_field(app, name, scale=scale, seed=field_seed(seed, app, label, scale))
        np.save(path, x)


@dataclass
class LibraryCase:
    """``repro.compress`` then ``repro.decompress`` and ``repro.verify_stream``."""

    label: str
    data: np.ndarray
    br: float
    codec: object  # registry name or Compressor instance
    decoder: object = None  # Compressor to decode with; None: repro.decompress
    steps = ("compress", "decompress", "verify")

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def run(self, kind: str, state: dict):
        import repro

        if kind == "compress":
            return repro.compress(self.data, repro.RelativeBound(self.br), self.codec)
        if kind == "decompress":
            if self.decoder is not None:
                return self.decoder.decompress(state["blob"])
            return repro.decompress(state["blob"])
        return repro.verify_stream(state["blob"])

    def check(self, kind: str, out, state: dict) -> str | None:
        if kind == "compress":
            if not isinstance(out, bytes) or not out:
                return "compress returned no stream"
            state["blob"] = out
            return None
        if kind == "decompress":
            return bound_violation(self.data, out, self.br)
        return None if out.ok else f"verify: {out.summary()}"


@dataclass
class CliCase:
    """``repro-compress compress``, ``decompress``, ``verify`` and ``stats``
    on one file, each a fresh ``python -m repro.cli`` process (or, in the
    traced run, ``repro.cli.main`` called in this process)."""

    label: str
    data: np.ndarray
    br: float
    source: Path
    workdir: Path
    inprocess: bool = False
    steps = ("compress", "decompress", "verify", "stats")

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def stream_path(self) -> Path:
        return self.workdir / f"{self.label}.rpz"

    @property
    def recon_path(self) -> Path:
        return self.workdir / f"{self.label}.recon.npy"

    def argv(self, kind: str) -> list[str]:
        stream = str(self.stream_path)
        return {
            "compress": ["compress", str(self.source), stream, "--rel-bound", repr(self.br)],
            "decompress": ["decompress", stream, str(self.recon_path)],
            "verify": ["verify", stream],
            "stats": ["stats", stream],
        }[kind]

    def run(self, kind: str, state: dict) -> tuple[int, str]:
        if self.inprocess:
            import repro.cli

            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                return repro.cli.main(self.argv(kind)), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *self.argv(kind)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stderr

    def check(self, kind: str, out: tuple[int, str], state: dict) -> str | None:
        rc, err = out
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        if kind == "compress":
            state["blob"] = self.stream_path.read_bytes()
            return None
        if kind == "decompress":
            return bound_violation(self.data, np.load(self.recon_path), self.br)
        return None
