"""latticeforge benchmark: one closed-loop client, one workload per process.

Usage, from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

A run imports the package from ``src/``, sets the workload up several times
(import, input generation and, for ``decompose``, cover certification) and
reports the median as ``setup_s``.  It then repeats passes over the
workload's requests, one request after another, until ``--seconds`` have
passed; every output is checked against ground truth.  Before each pass the
package is imported afresh and the requests are rebuilt, outside the timed
region, so no state the program keeps can carry over from one pass to the
next; a run whose later passes take less than half the time of its first
fails.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics and the tracing overhead.  Every time is reported in
nominal seconds (see ``nominal.py``); the raw times go to the run record.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is nonzero when any
request failed or state carried over.  ``--workload all`` runs each workload
in a fresh process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# Compiled bytecode goes to the benchmark's work directory, never into the sources.
sys.pycache_prefix = str(WORK / "pycache")

import nominal  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per run; `decompose` certifies a 48-cell cover in each one.
SETUP_REPS = {"decompose": 3}
DEFAULT_SETUP_REPS = 11
MAX_PROBLEMS_SHOWN = 5
#: Shortest stretch of requests between two reference runs, and the period
#: of the reference runs inside long requests (see nominal.py).
REFERENCE_EVERY_S = 0.1
SAMPLE_EVERY_S = 0.25
#: A run fails when its later passes take less than this share of its first.
#: Every pass starts from a fresh import, so a faster later pass means state
#: survived that anyway.  Noise alone has made a single pass 35% slower than
#: the rest of its run, so the limit sits well clear of that.
CARRY_OVER_LIMIT = 0.5

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def git_sha():
    """Commit of the checkout; None without git or outside a repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(args) -> dict:
    return {
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_latticeforge():
    """Import the package from src/ afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "latticeforge" or n.startswith("latticeforge.")]:
        del sys.modules[name]
    cli = importlib.import_module("latticeforge.cli")
    return SimpleNamespace(
        cli=cli,
        geometry=sys.modules["latticeforge.geometry"],
        unimodular=sys.modules["latticeforge.unimodular"],
    )


def set_up(name, seed):
    """Set the workload up SETUP_REPS times; return (its request builder, raw and nominal set-up times).

    Each set-up also builds the requests once, so work moved into building
    them shows in ``setup_s``.
    """
    WORK.mkdir(exist_ok=True)
    raw, scaled = [], []
    with nominal.Sampler(SAMPLE_EVERY_S) as sampler:
        for _ in range(SETUP_REPS.get(name, DEFAULT_SETUP_REPS)):
            gc.collect()
            before = sampler.sample()
            paused = sampler.paused
            start = time.perf_counter()
            lf = import_latticeforge()
            build = workloads.SETUP[name](lf, seed, WORK)
            build(lf)
            raw.append(time.perf_counter() - start - (sampler.paused - paused))
            scaled.append(raw[-1] * nominal.scale([before, *sampler.take(), sampler.sample()]))
    return build, raw, scaled


@dataclass
class Pass:
    """One pass over the requests: raw latencies, their scale to nominal seconds, failures."""

    latencies: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    failed: int = 0
    problems: list = field(default_factory=list)
    layers: dict | None = None  # per-layer metrics of a traced pass

    @property
    def nominal(self):
        return [lat * f for lat, f in zip(self.latencies, self.scales)]

    @property
    def wall(self):
        return sum(self.nominal)

    @property
    def scale(self):
        """Time-weighted scale of the whole pass."""
        return self.wall / sum(self.latencies)


def run_pass(requests, trace=None) -> Pass:
    """One pass over the requests, scaled to nominal seconds segment by segment.

    A segment is a run of requests lasting at least REFERENCE_EVERY_S; its
    scale comes from reference runs at both ends and from those the sampler
    took in between.  Sampler time is not counted in any latency.
    """
    gc.collect()
    p = Pass()
    with nominal.Sampler(SAMPLE_EVERY_S) as sampler:
        samples = [sampler.sample()]
        segment_start, segment_len = time.perf_counter(), 0
        for i, req in enumerate(requests):
            paused = sampler.paused
            start = time.perf_counter()
            try:
                out = req.run()
                error = None
            except Exception:
                out, error = None, traceback.format_exc(limit=4)
            p.latencies.append(time.perf_counter() - start - (sampler.paused - paused))
            if error is not None:
                found = [f"raised\n{error}"]
            else:
                try:
                    found = req.check(out)
                except Exception as exc:
                    found = [f"oracle could not read the output: {exc!r}"]
            if found:
                p.failed += 1
                p.problems.extend(f"{req.label}: {x}" for x in found)
            elif trace is not None and isinstance(out, workloads.CliResult):
                trace.counts["cli.report_bytes"] += out.report_bytes()
            segment_len += 1
            if i == len(requests) - 1 or time.perf_counter() - segment_start >= REFERENCE_EVERY_S:
                after = sampler.sample()
                p.scales.extend([nominal.scale(samples + sampler.take() + [after])] * segment_len)
                samples, segment_start, segment_len = [after], time.perf_counter(), 0
    return p


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(build, seconds, trace):
    """Passes until `seconds` have passed; with a tracer, untraced and traced passes alternate.

    Every pass runs against a fresh import of the package and freshly built
    requests.  Returns the untraced passes, the traced passes and the spans
    of the first traced pass.
    """
    untraced, traced, first_spans = [], [], None
    deadline = time.perf_counter() + seconds
    while not untraced or (trace is not None and not traced) or time.perf_counter() < deadline:
        requests = build(import_latticeforge())
        if trace is not None and len(traced) < len(untraced):
            with trace.installed():
                p = run_pass(requests, trace)
            spans, counts = trace.take_pass()
            p.layers = tracer.layer_metrics(spans, trace.names, counts)
            traced.append(p)
            first_spans = first_spans or spans
        else:
            untraced.append(run_pass(requests))
    return untraced, traced, first_spans


def carried_over(untraced):
    """A problem when the passes after the first beat it by more than CARRY_OVER_LIMIT allows, else None."""
    if len(untraced) < 2:
        return None
    first, later = untraced[0].wall, statistics.median(p.wall for p in untraced[1:])
    if later < first * CARRY_OVER_LIMIT:
        return (f"passes after the first took {later:.4f} s against {first:.4f} s for the first: "
                f"state carried over between passes")
    return None


def end_to_end(untraced, setup_scaled) -> dict:
    """Pass time and set-up as medians; query percentiles over each request's median latency.

    All times are nominal seconds.  Taking each request's median over the
    passes first keeps a percentile from jumping between requests of very
    different size (the CLI workloads mix commands of 1 to 6 s).
    """
    per_request_ms = [statistics.median(lat) * 1e3 for lat in zip(*(p.nominal for p in untraced))]
    return {
        "wall_s": statistics.median(p.wall for p in untraced),
        "setup_s": statistics.median(setup_scaled),
        "query_p50_ms": quantile(per_request_ms, 50),
        "query_p90_ms": quantile(per_request_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced, traced):
    """Per-layer metrics: counts of the first traced pass, medians of nominal times over traced passes."""
    first = traced[0].layers
    repeat_ok = all(p.layers[k] == first[k] for p in traced for k in first if not k.endswith("_s"))
    metrics = {
        k: statistics.median(p.layers[k] * p.scale for p in traced) if k.endswith("_s") else first[k]
        for k in first
    }
    # Each traced pass directly follows an untraced one; pairing them cancels slow drifts in machine speed.
    metrics["trace.overhead_s"] = statistics.median(t.wall - u.wall for t, u in zip(traced, untraced))
    return metrics, repeat_ok


def run_one(args) -> int:
    record = run_record(args)
    build, setup_raw, setup_scaled = set_up(args.workload, args.seed)
    trace = tracer.Tracer() if args.trace else None
    untraced, traced, first_spans = measure(build, args.seconds, trace)

    passes = untraced + traced
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [x for p in passes for x in p.problems]
    carry = carried_over(untraced)
    if carry is not None:
        problems.insert(0, carry)
    correct = failed == 0 and carry is None
    for x in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {x}", file=sys.stderr)

    if trace is None:
        metrics = end_to_end(untraced, setup_scaled)
        units = dict(END_TO_END)
    else:
        metrics, repeat_ok = per_layer(untraced, traced)
        if not repeat_ok:
            print("warning: per-layer counts differ between traced passes", file=sys.stderr)
        units = dict(tracer.PER_LAYER)
        metrics = {name: metrics[name] for name in units}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        tracer.write_spans(stem.with_suffix(".spans.jsonl.gz"), first_spans, trace.names)
    record.update(
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        requests_per_pass=len(untraced[0].latencies),
        setup_raw_s=setup_raw,
        setup_nominal_s=setup_scaled,
        pass_raw_s=[sum(p.latencies) for p in untraced],
        pass_nominal_s=[p.wall for p in untraced],
        traced_pass_raw_s=[sum(p.latencies) for p in traced],
        traced_pass_nominal_s=[p.wall for p in traced],
        metrics=metrics,
        problems=problems[:MAX_PROBLEMS_SHOWN],
    )
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"run {json.dumps({k: record[k] for k in ('python', 'git_sha', 'nproc', 'loadavg', 'started_utc')})}")
    print(f"workload {args.workload}: seed {args.seed}, {len(untraced)} untraced and {len(traced)} traced "
          f"passes of {record['requests_per_pass']} requests, {failed}/{attempted} failed (fail_frac {failed / attempted})")
    print(f"  raw pass times {[round(x, 4) for x in record['pass_raw_s']]} s, "
          f"raw set-up median {statistics.median(setup_raw)} s")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after another; a combined result line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        except subprocess.TimeoutExpired:
            print(f"workload {name} did not finish within 900 s", file=sys.stderr)
            combined["correct"] = False
            code = max(code, 1)
            continue
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, child.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no result (exit code {child.returncode})", file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latticeforge" / "__init__.py").is_file():
        print(f"error: no latticeforge sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
