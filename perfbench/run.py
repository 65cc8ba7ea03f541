"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric, from a separate traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat the figures for people, with tail percentiles, sample counts and
``failed_frac``.  ``perfbench/design.json`` records the design.

Processes: one to generate the inputs from the seed, one that runs the
workload's closed loop (single client; chunked-2w adds 2 pool workers,
cli-small one CLI process at a time), then ``SETUP_REPEATS`` fresh
interpreters timing set-up (``--trace 0``) or one import probe
(``--trace 1``).  Every one is waited for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
WORKDIR = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0


class ChildError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    # The program runs as shipped: no REPRO_* knob reaches it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def _child(*args: str, env: dict[str, str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """``(result, notes)`` of one benchmark run."""
    env = _child_env()
    workdir = WORKDIR / f"{workload}.{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        _child("gen", workload, str(seed), str(workdir), env=env)
        out = _child("workload", workload, str(workdir), "--trace", str(trace),
                     "--seconds", str(seconds), env=env)
        metrics = out["metrics"]
        if trace:
            probe = _child("probe", env=env)
            metrics["cli.import_ms"] = 1e3 * probe["import_s"]
            metrics["cli.modules_loaded"] = float(probe["modules"])
            metrics["cli.scipy_loaded"] = float(probe["scipy"])
        else:
            setups = [_child("setup", workload, str(workdir), env=env)["setup_s"]
                      for _ in range(SETUP_REPEATS)]
            metrics["setup_s"] = statistics.median(setups)
            out["notes"]["setup_s_samples"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    units = _declared(trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: extra {sorted(set(metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(metrics))}"
        )
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, out["notes"]


def _print_human(workload: str, seed: int, result: dict, notes: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {workload} seed={seed} attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4g} frac")
    tails = notes.get("tails", {})
    for name, m in result["metrics"].items():
        line = f"#   {name:40s} {m['value']:14.6g} {m['unit']}"
        if name in tails:
            line += f"  (p{tails[name]['percentile']:.1f} of {tails[name]['samples']} samples)"
        print(line)
    for key in ("passes", "worker_peak_rss_MB", "setup_s_samples"):
        if key in notes:
            print(f"#   note {key}: {notes[key]}")
    for failure in notes.get("failures", []):
        print(f"#   failure: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    try:
        result, notes = run(args.workload, args.seed, args.seconds, args.trace)
    except (ChildError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_human(args.workload, args.seed, result, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
