"""Self-checks of the benchmark itself.

1. Per-layer counts repeat exactly across two traced runs of one seed, each
   in a fresh process.
2. The oracles reject planted wrong answers: a dropped witness (bruteforce),
   a swapped decomposition part (decompose), a non-unimodular cell
   (certify) and a wrong certificate row (probe).

Usage, from the repository root (takes a few minutes):

    python3 bench/selfcheck.py --seed 7

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys

import run
import workloads


def traced_counts(name, seed):
    argv = [sys.executable, run.__file__, "--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    child = subprocess.run(argv, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    metrics = json.loads(child.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"}


def check_counts_repeat(name, seed):
    first, second = traced_counts(name, seed), traced_counts(name, seed)
    differing = sorted(k for k in first if first[k] != second[k])
    return not differing, f"{name}: per-layer counts repeat across two traced runs" + (
        f" (differ: {differing})" if differing else "")


def rejects(request, out, plant, what):
    """The oracle accepts the real output and rejects the planted one."""
    accepted = not request.check(out)
    rejected = bool(request.check(plant(out)))
    return accepted and rejected, f"{what}: real answer accepted {accepted}, planted answer rejected {rejected}"


def with_report(out, edit):
    report = out.report()
    edit(report["result"])
    return workloads.CliResult(out.code, json.dumps(report))


def drop_witness(result):
    failing = next(r for r in result["reports"] if r["witnesses"])
    failing["witnesses"].pop()


def probe_row_one_not_found(result):
    result["per_ell"][0]["certificate"] = "not-found"


def non_unimodular_cell(result):
    # conv{0, e1+e2, e1+e3, e2+e3, e4} lies in the 4-cube and has |det| = 2.
    result["cover"]["cells"][0] = [[0, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]


def planted_checks(seed):
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    lf = run.import_latticeforge()
    results = []

    needle = workloads.bruteforce(lf, seed, run.WORK)(lf)[0]
    results.append(rejects(needle, needle.run(), lambda o: with_report(o, drop_witness),
                           "bruteforce: witness dropped"))

    probe = workloads.probe(lf, seed, run.WORK)(lf)[0]
    results.append(rejects(probe, probe.run(), lambda o: with_report(o, probe_row_one_not_found),
                           "probe: ell=1 certificate changed"))

    cube4 = workloads.certify(lf, seed, run.WORK)(lf)[0]
    results.append(rejects(cube4, cube4.run(), lambda o: with_report(o, non_unimodular_cell),
                           "certify: non-unimodular cell"))

    query = next(r for r in workloads.decompose(lf, seed, run.WORK)(lf) if r.label.endswith("/4"))
    d = query.run()
    stranger = next(v for v in d.cell.vertices if v != d.parts[0])
    results.append(rejects(query, d, lambda o: dataclasses.replace(o, parts=(stranger, *o.parts[1:])),
                           "decompose: part swapped"))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Self-checks of the latticeforge benchmark.")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    results = planted_checks(args.seed)
    results += [check_counts_repeat(name, args.seed) for name in workloads.NAMES]
    for ok, message in results:
        print(f"{'PASS' if ok else 'FAIL'} {message}")
    return 0 if all(ok for ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
