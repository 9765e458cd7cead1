"""spexlab benchmark: real CLI invocations, one fresh interpreter per command.

    python3 perfbench/run.py --workload census-n8 --seed 0 --seconds 30 --trace 0

Workloads, their commands and their output checks are in ``workloads.py``.
With ``--trace 0`` the workload's commands run untraced, pass after pass,
while another pass fits in ``--seconds``; the end-to-end metrics are medians
over the passes (``setup_s`` over several cold starts). With ``--trace 1`` one
untraced and one traced pass run; the traced pass wraps the layers' public
functions from outside the package (``tracer.py``) and gives the per-layer
metrics. Metric names and units come from ``BENCHMARK.json``.

Stdout: a human-readable report of every metric with its unit (median, p90
and sample count) and the run's provenance, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter

import numpy
from child import MARKER
from tracer import LAYERS
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_STARTS = 9  # cold `import spexlab` starts per run; setup_s is their median
RUN_DEADLINE_S = 170  # every command of a run must have ended by then


@dataclass
class PassResult:
    seconds: dict = field(default_factory=dict)  # per-command metric -> summed seconds
    elapsed: float = 0.0  # parent-side time of the command processes, checks excluded
    peak_rss_kib: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)  # command key -> (seconds, trace report)


def child_env(nproc: int) -> dict:
    # No PYTHON* settings from the caller (such as PYTHONDONTWRITEBYTECODE): children
    # run as an installed CLI does, with bytecode caches. No SPEXLAB_JOBS: the CLI
    # would otherwise parallelise search.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "SPEXLAB_JOBS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def cold_start(env: dict) -> float:
    # Capture the output so that the wait ends at the pipe's EOF: without pipes,
    # waiting with a timeout polls in sleeps of up to 50 ms, a quarter of set-up.
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import spexlab"], env=env, check=True,
                   capture_output=True, timeout=60)
    return perf_counter() - t0


def run_command(argv, stdin, trace: bool, env: dict, deadline: float):
    """Run one CLI command in a fresh child; return (stdout, meta, error)."""
    cmd = [sys.executable, str(HERE / "child.py"), "1" if trace else "0", *argv]
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        return "", None, "timeout"
    last = proc.stderr.rstrip("\n").rpartition("\n")[2]
    meta = json.loads(last[len(MARKER):]) if last.startswith(MARKER) else None
    if proc.returncode != 0:
        return proc.stdout, meta, f"exit code {proc.returncode}"
    if meta is None or "Traceback" in proc.stderr:
        return proc.stdout, meta, "crashed: " + proc.stderr[-300:]
    return proc.stdout, meta, None


def run_pass(commands, trace: bool, env: dict, deadline: float, validated: dict) -> PassResult:
    """Run every command of a workload once, in order, and check its output.

    The first accepted output of each command is checked in full and kept in
    ``validated``; later passes must reproduce it byte for byte.
    """
    res = PassResult()
    outputs = {}
    for cmd in commands:
        res.attempted += 1
        res.seconds.setdefault(cmd.metric, 0.0)
        try:
            stdin = cmd.stdin(outputs) if cmd.stdin else None
        except KeyError as exc:
            res.failures.append(f"{cmd.key}: input from failed command {exc}")
            continue
        t0 = perf_counter()
        out, meta, error = run_command(cmd.argv, stdin, trace, env, deadline)
        res.elapsed += perf_counter() - t0
        if meta is not None:
            res.seconds[cmd.metric] += meta["seconds"]
            res.peak_rss_kib = max(res.peak_rss_kib, meta["peak_rss_kib"])
            if trace:
                res.traces[cmd.key] = (meta["seconds"], meta["trace"])
        if error is None:
            try:
                if cmd.key in validated:
                    if out != validated[cmd.key]:
                        raise CheckFailed("output differs from the checked first pass")
                else:
                    cmd.check(out)
                    validated[cmd.key] = out
            except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"wrong output: {exc!r}"
        if error is None:
            outputs[cmd.key] = out
        else:
            res.failures.append(f"{cmd.key}: {error}")
    return res


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        return (git / head[5:]).read_text().strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def layer_metrics(traced: PassResult) -> tuple[dict, list[str]]:
    """Per-layer metrics summed over the traced commands, plus report lines."""
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    lines = ["per-command layer split (share of traced command time; self time coverage):"]
    coverage = []
    for key, (seconds, rep) in traced.traces.items():
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for name, (calls, self_s) in rep["spans"].items():
            agg = spans.setdefault(name, [0, 0.0])
            agg[0] += calls
            agg[1] += self_s
            by_layer[name.split(".")[0]] += self_s
        for name, value in rep["counts"].items():
            counts[name] = counts.get(name, 0) + value
        covered = sum(by_layer.values()) / seconds
        coverage.append(covered)
        split = "  ".join(f"{layer} {t / seconds:6.1%}" for layer, t in by_layer.items())
        lines.append(f"  {key:10s} {seconds:9.3f} s  {split}  coverage {covered:6.1%}")
    metrics = {}
    for name, (calls, self_s) in spans.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            s for name, (_, s) in spans.items() if name.split(".")[0] == layer)
    metrics.update(counts)
    classes = counts.get("search.classes", 0)
    canon_calls = spans.get("search.canonical_form", [0])[0]
    metrics["search.canonical_per_class"] = canon_calls / classes if classes else 0.0
    metrics["trace.coverage"] = min(coverage) if coverage else 0.0
    return metrics, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "spexlab" / "cli.py").is_file():
        print(f"error: no spexlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    deadline = monotonic() + RUN_DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    commands = WORKLOADS[args.workload](args.seed)

    cold_start(env)  # untimed: writes the bytecode caches a user has after the first call
    setups = [cold_start(env) for _ in range(SETUP_STARTS)]

    validated: dict = {}
    passes: list[PassResult] = []
    traced = None
    if args.trace:
        passes.append(run_pass(commands, False, env, deadline, validated))
        traced = run_pass(commands, True, env, deadline, validated)
    else:
        measured = 0.0
        while True:
            passes.append(run_pass(commands, False, env, deadline, validated))
            measured += passes[-1].elapsed
            mean = measured / len(passes)
            if measured + mean > args.seconds or monotonic() + 1.5 * mean > deadline:
                break
    all_passes = passes + ([traced] if traced else [])
    attempted = sum(p.attempted for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]

    per_cmd = {metric: [p.seconds[metric] for p in passes] for metric in passes[0].seconds}
    samples = {
        "wall_s": [sum(p.seconds.values()) for p in passes],
        "setup_s": setups,
        "peak_rss_mib": [p.peak_rss_kib / 1024 for p in passes],
        "cmd_max_s": [max(p.seconds.values()) for p in passes],
        **per_cmd,
        "fail_frac": [len(failures) / attempted],
    }

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "nproc": nproc,
        "thread_cap": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": git_sha(),
    }
    print("provenance " + json.dumps(provenance))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({k: "s" for k in samples if k.startswith("cmd.")}, fail_frac="1")
    print(f"{'metric':40s} {'unit':6s} {'median':>14s} {'p90':>14s} {'n':>3s}")
    for name, vals in samples.items():
        print(f"{name:40s} {units[name]:6s} {statistics.median(vals):14.6f} "
              f"{percentile(vals, 0.9):14.6f} {len(vals):3d}")
    for f in failures:
        print(f"FAILED {f}")

    if traced is None:
        values = {m["name"]: statistics.median(samples[m["name"]]) for m in spec["end_to_end"]}
        wanted = spec["end_to_end"]
    else:
        values, lines = layer_metrics(traced)
        values["trace.overhead_s"] = sum(traced.seconds.values()) - sum(passes[0].seconds.values())
        print("\n".join(lines))
        for m in spec["per_layer"]:
            print(f"{m['name']:40s} {m['unit']:6s} {values.get(m['name'], 0):14.6f}")
        wanted = spec["per_layer"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
