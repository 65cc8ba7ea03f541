"""``SafeguardedCompressor`` — guaranteed point-wise properties over any codec.

Wraps any registered compressor as an untrusted blackbox: compress, decode
the codec's own output, evaluate every declared :class:`Safeguard`
vectorized, and store bit-exact patches for each violating point in the
stream (container format v4, codec ``SAFE``).  Decoding applies the patches
after the inner decode, so the declared properties hold no matter what the
wrapped codec did.

Overhead for a compliant codec is one vectorized mask pass per safeguard on
the reconstruction the verify pass materializes anyway, plus an empty patch
section — see ``docs/safeguards.md`` for the model.
"""
from __future__ import annotations

import numpy as np

from repro.compressors.base import (
    Compressor,
    ErrorBound,
    get_compressor,
)
from repro.encoding.container import ContainerError, peek_codec
from repro.observe.events import emit as _emit_event
from repro.observe.metrics import metrics
from repro.observe.tracer import span

from .engine import compute_patch_channel, put_patch_sections, apply_patch_sections
from .kinds import (
    NonFiniteSafeguard,
    RelErrorSafeguard,
    Safeguard,
    parse_safeguard,
    parse_safeguards,
)

__all__ = ["SafeguardedCompressor"]

#: Container format version for safeguard-bearing streams (see docs/formats.md).
SAFEGUARD_VERSION = 4


def _as_safeguard(sg: "Safeguard | str") -> Safeguard:
    return parse_safeguard(sg) if isinstance(sg, str) else sg


class SafeguardedCompressor(Compressor):
    """Adapter enforcing declared safeguards over an inner codec.

    ``inner`` may be a :class:`Compressor` instance, a registry name, or
    ``None`` for a decode-only instance (the registry entry used by
    ``repro.decompress`` dispatch).  ``safeguards`` accepts
    :class:`Safeguard` objects or spec strings like ``"rel:1e-3"``.
    """

    name = "SAFE"
    #: Non-finite inputs are sanitized for the inner codec when necessary and
    #: restored bit-exactly through the patch channel.
    allows_nonfinite = True

    def __init__(self, inner=None, safeguards=()) -> None:
        self._inner = inner
        self.safeguards: tuple[Safeguard, ...] = tuple(
            _as_safeguard(sg) for sg in safeguards
        )

    @property
    def inner(self) -> Compressor | None:
        if isinstance(self._inner, str):
            self._inner = get_compressor(self._inner)
        return self._inner

    @property
    def supported_bounds(self) -> tuple[type, ...]:
        inner = self.inner
        return inner.supported_bounds if inner is not None else ()

    @property
    def declared_rel_bound(self) -> float | None:
        """Value of the declared relative-error safeguard, if any."""
        for sg in self.safeguards:
            if isinstance(sg, RelErrorSafeguard):
                return sg.value
        return None

    # -- encode ------------------------------------------------------------

    def compress(self, data: np.ndarray, bound: ErrorBound) -> bytes:
        return self._compress_impl(data, bound)[0]

    def compress_verified(self, data: np.ndarray, bound: ErrorBound):
        return self._compress_impl(data, bound)

    def _compress_impl(self, data: np.ndarray, bound: ErrorBound) -> tuple[bytes, np.ndarray]:
        inner = self.inner
        if inner is None:
            raise ValueError(
                "SafeguardedCompressor needs an inner codec to compress "
                "(the bare registry instance is decode-only)"
            )
        inner._check_bound(bound)
        data = np.asarray(data)
        if data.size == 0:
            return self._compress_empty(data), data.copy()
        data = self._check_input(data, allow_nonfinite=True)

        stack = tuple(sg.resolve(data) for sg in self.safeguards)
        sanitized = data
        finite = np.isfinite(data)
        if not finite.all():
            nonfinite = ~finite
            if not any(isinstance(sg, NonFiniteSafeguard) for sg in stack):
                stack += (NonFiniteSafeguard(),)
            if not getattr(inner, "allows_nonfinite", False):
                sanitized = np.where(nonfinite, 0.0, data).astype(data.dtype, copy=False)

        inner_blob, recon = inner.compress_verified(sanitized, bound)
        with span("safeguard-verify", codec=inner.name, n=int(data.size)):
            channel = compute_patch_channel(stack, data, recon)
        self._record(data, recon, stack, channel, inner.name)

        box = self._new_container(self.name, data)
        box.put_str("safeguards", ";".join(sg.spec() for sg in stack))
        box.put_str("inner_codec", inner.name)
        box.put("inner", inner_blob)
        put_patch_sections(box, channel.patch_idx, channel.patch_val)
        blob = box.to_bytes(version=SAFEGUARD_VERSION)

        if channel.size:
            final = np.ascontiguousarray(recon.astype(data.dtype, copy=True))
            final.ravel()[channel.patch_idx.astype(np.int64)] = channel.patch_val
        else:
            final = np.ascontiguousarray(recon.astype(data.dtype, copy=False))
        return blob, final

    def _compress_empty(self, data: np.ndarray) -> bytes:
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"expected float32/float64 data, got {data.dtype}")
        if data.ndim not in (1, 2, 3):
            raise ValueError(f"expected 1-D/2-D/3-D data, got ndim={data.ndim}")
        box = self._new_container(self.name, data)
        stack = tuple(sg.resolve(data) for sg in self.safeguards)
        box.put_str("safeguards", ";".join(sg.spec() for sg in stack))
        box.put_str("inner_codec", self.inner.name)
        box.put("inner", b"")
        put_patch_sections(
            box, np.empty(0, dtype=np.uint64), np.empty(0, dtype=data.dtype)
        )
        return box.to_bytes(version=SAFEGUARD_VERSION)

    def _record(self, data, recon, stack, channel, inner_name) -> None:
        reg = metrics()
        reg.counter("safeguard.points").inc(data.size)
        reg.counter("safeguard.patched").inc(channel.size)
        by_kind: dict[str, int] = {}
        spec_to_kind = {sg.spec(): sg.kind for sg in stack}
        for spec_, count in channel.counts.items():
            kind = spec_to_kind.get(spec_, spec_)
            by_kind[kind] = by_kind.get(kind, 0) + count
            reg.counter(f"safeguard.patched.{kind}").inc(count)
        if self.declared_rel_bound is not None:
            reg.histogram("safeguard.max_rel").observe(
                self._max_rel(data, recon, channel)
            )
        if channel.size:
            _emit_event(
                "safeguard-patch",
                codec=self.name,
                inner=inner_name,
                n=int(data.size),
                patched=channel.size,
                by_kind=by_kind,
            )

    @staticmethod
    def _max_rel(data: np.ndarray, recon: np.ndarray, channel) -> float:
        """Post-patch max point-wise relative error (``safeguard.max_rel``).

        Patched points carry no residual; exact zeros and non-finite
        originals are excluded, matching the audit convention.  On the
        compliant float32 hot path a float32 screen finds the argmax
        neighbourhood and only those points are re-measured in float64,
        which keeps this telemetry off the overhead budget's back.
        """
        x = np.ascontiguousarray(data).ravel()
        xd = np.ascontiguousarray(recon.astype(data.dtype, copy=False)).ravel()
        if data.dtype == np.float32 and channel.size == 0 and x.size > 4096:
            with np.errstate(invalid="ignore", over="ignore", under="ignore"):
                absx = np.abs(x)
                nz = absx > 0
                ratio = np.divide(
                    np.abs(xd - x), absx, out=np.zeros_like(absx), where=nz
                )
                m32 = float(ratio.max(initial=0.0))
                if np.isfinite(m32):
                    # Keep everything float32 rounding could have demoted
                    # from the true argmax; subnormal |x| gets no such
                    # guarantee, so it is always re-measured.
                    cand = nz & (
                        (ratio >= np.float32(m32 * (1.0 - 2e-6)))
                        | (absx < np.float32(1.2e-38))
                    )
                    idx = np.flatnonzero(cand)
                    if idx.size == 0:
                        return 0.0
                    if idx.size <= x.size // 8:
                        xs = x[idx].astype(np.float64)
                        err = np.abs(xd[idx].astype(np.float64) - xs)
                        nzs = np.isfinite(xs) & (xs != 0)
                        rel = np.divide(
                            err, np.abs(xs), out=np.zeros_like(err), where=nzs
                        )
                        return float(rel.max(initial=0.0))
                # NaN/Inf ratios (non-finite input) or a pathological
                # candidate blowup (e.g. all errors zero): the screen saved
                # nothing, measure exactly below.
        with np.errstate(invalid="ignore"):
            x64 = x.astype(np.float64, copy=False)
            err = np.abs(xd.astype(np.float64, copy=False) - x64)
            if channel.size:
                err[channel.patch_idx.astype(np.int64)] = 0.0
            absx = np.abs(x64)
            nz = np.isfinite(x64) & (absx != 0)
            rel = np.divide(err, absx, out=np.zeros_like(err), where=nz)
            return float(rel.max(initial=0.0))

    # -- decode ------------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        box, shape, dtype = self._open_container(blob, self.name)
        # Patch application never needs the declared specs -- the channel is
        # self-contained -- but a stream that lost or mangled its property
        # declaration was written by a buggy writer and must fail loud, not
        # decode into an array whose guarantees nobody can state.
        if "safeguards" not in box:
            raise ContainerError(
                f"corrupt {self.name} stream: missing safeguards declaration"
            )
        try:
            parse_safeguards(box.get_str("safeguards"))
        except ValueError as exc:
            raise ContainerError(f"corrupt {self.name} stream: {exc}") from None
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if n == 0:
            return np.zeros(shape, dtype=dtype)
        inner_blob = box.get("inner")
        inner_codec = box.get_str("inner_codec")
        codec = peek_codec(inner_blob)
        if codec != inner_codec:
            raise ContainerError(
                f"corrupt {self.name} stream: inner stream claims codec "
                f"{codec!r}, header says {inner_codec!r}"
            )
        recon = get_compressor(codec).decompress_trusted(inner_blob)
        if tuple(recon.shape) != tuple(shape) or recon.dtype != dtype:
            raise ContainerError(
                f"corrupt {self.name} stream: inner reconstruction geometry "
                f"{recon.shape}/{recon.dtype} does not match header "
                f"{tuple(shape)}/{dtype}"
            )
        flat = np.ascontiguousarray(recon).ravel()
        with span("patch-apply", codec=self.name):
            apply_patch_sections(flat, box, dtype, self.name)
        return flat.reshape(shape)

