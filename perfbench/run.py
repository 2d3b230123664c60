"""pdlab benchmark: run one workload, check every op, print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--smoke] [--write-refs]

Run from the root of a checkout that holds ``src/pdlab``.  Each pass of the
workload's ops runs in a fresh child interpreter (perfbench/child.py),
one child at a time; passes repeat while another fits in S seconds, and every
metric is the median over the run's passes.  A few probe children that
only import ``pdlab.cli`` add samples to the set-up time.

``--trace 0`` reports the end-to-end metrics: wall_s, setup_s,
peak_rss_mb and cpu_s.  ``--trace 1`` follows each untraced pass with a
timing pass and a memory pass whose children wrap pdlab's layers
(perfbench/spans.py), checks that tracing leaves every report
byte-identical, and reports the per-layer metrics plus the tracing
overhead; on pd-mc it also runs the ops at one thread for the scaling
efficiency and checks those reports are byte-identical too.

The last stdout line is one JSON object {"correct", "attempted",
"failed", "metrics"}; the lines above it give the error rate, the
machine facts and the per-op failures.

``--smoke`` runs the same ops, checks and wrappers at tiny sizes.
``--write-refs`` runs one pass and stores the deterministic ops' payloads
as the references later runs must reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"
OUT = HERE / "out"
DEADLINE_S = 170.0  # the whole run, children included
PROBES = 3


def machine_facts(child_versions: dict | None) -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (1 << 20),
        "llc": None,
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("cache size"):
                    facts["llc"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts.update(child_versions or {})
    return facts


class Runner:
    """Spawns one child per pass, sequentially, within the run's deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def spawn(self, kind: str, ops: list) -> dict | None:
        """Run one child; its result dict with "setup_s" added, or None."""
        self.count += 1
        tag = f"{self.count:03d}-{kind}"
        out_dir = self.work / tag
        out_dir.mkdir()
        plan, result = out_dir / "plan.json", out_dir / "result.json"
        plan.write_text(json.dumps({"kind": kind, "ops": ops, "out_dir": str(out_dir)}))
        cmd = [sys.executable, str(HERE / "child.py"), str(plan), str(result)]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            print(f"{tag}: child killed at the run deadline", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or not result.is_file():
            tail = err.decode(errors="replace")[-2000:]
            print(f"{tag}: child exited {proc.returncode}\n{tail}", file=sys.stderr)
            return None
        res = json.loads(result.read_text())
        res["setup_s"] = res["t_ready"] - t_spawn
        res["dir"] = out_dir
        src = (ROOT / "src" / "pdlab").resolve()
        if Path(res["pdlab_file"]).resolve().parent != src:
            print(f"{tag}: imported pdlab from {res['pdlab_file']}, not {src}", file=sys.stderr)
            return None
        return res


def check_pass(ops, res, refs, twin=None) -> list[str]:
    """Failure lines for one pass; ``twin`` is a pass whose reports must match byte for byte."""
    if res is None:
        return [f"{op['id']}: pass did not complete" for op in ops]
    fails = []
    outcome = {o["id"]: o for o in res["ops"]}
    for op in ops:
        o = outcome[op["id"]]
        if o["error"] or o["rc"] != 0:
            fails.append(f"{op['id']}: exit {o['rc']} {o['error'] or ''}".strip())
            continue
        text = (res["dir"] / f"{op['id']}.json").read_text()
        reason = checks.check_report(op, text, refs)
        if reason is None and twin is not None:
            if text != (twin["dir"] / f"{op['id']}.json").read_text():
                reason = f"report differs from the same op in {twin['dir'].name}"
        if reason:
            fails.append(f"{op['id']}: {reason}")
    return fails


def med(values) -> float:
    return float(statistics.median(values))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one pass of each kind")
    p.add_argument("--write-refs", action="store_true", help="store reference payloads")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.monotonic()
    # a terminated run unwinds, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "pdlab" / "cli.py").is_file():
        print(f"no pdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    mode = "smoke" if args.smoke else "full"
    ops = workloads.ops(args.workload, args.seed, mode)
    ref_path = REFS / mode / f"{args.workload}.json"
    refs = None
    if not args.write_refs:
        if not ref_path.is_file():
            print(f"missing reference payloads {ref_path}", file=sys.stderr)
            return 2
        refs = json.loads(ref_path.read_text())

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, t0 + DEADLINE_S)

    probes = [runner.spawn("probe", []) for _ in range(1 if args.smoke else PROBES)]
    # (label, child kind, ops); every pass after the first must reproduce its reports
    cycle = [("plain", "plain", ops)]
    if args.trace and not args.write_refs:
        cycle += [("traced", "traced", ops), ("memory", "memory", ops)]
        if args.workload == "pd-mc":
            cycle.append(("single", "plain", workloads.ops(args.workload, args.seed, mode, threads=1)))
    passes = {label: [] for label, _, _ in cycle}
    fails, attempted = [], 0

    def run_cycle() -> bool:
        nonlocal attempted
        first = None
        for label, kind, cycle_ops in cycle:
            res = runner.spawn(kind, cycle_ops)
            attempted += len(cycle_ops)
            fails.extend(check_pass(cycle_ops, res, refs, first))
            if res is None:
                return False
            first = first or res
            passes[label].append(res)
        return True

    # start another cycle only while it fits in the run's seconds
    longest = 0.0
    while True:
        c0 = time.monotonic()
        if not run_cycle() or args.smoke or args.write_refs:
            break
        longest = max(longest, time.monotonic() - c0)
        if time.monotonic() - t0 + longest > args.seconds:
            break

    if not all(passes.values()):
        print("a pass kind never completed; no metrics", file=sys.stderr)
        return 1
    plain = passes["plain"]
    children = [r for r in probes if r is not None] + [r for runs in passes.values() for r in runs]
    e2e = {
        "wall_s": (med(r["wall_s"] for r in plain), "s"),
        "setup_s": (med(r["setup_s"] for r in children), "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in plain), "MiB"),
        "cpu_s": (med(r["cpu_s"] for r in plain), "s"),
    }
    counts = ", ".join(f"{len(runs)} {label}" for label, runs in passes.items())
    print(f"workload {args.workload}  seed {args.seed}  mode {mode}  passes: {counts}, {len(probes)} probes")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<12} {value:12.4f} {unit}")
    print(f"  {'error_rate':<12} {len(fails) / attempted:12.4f} ratio  "
          f"({len(fails)} failed / {attempted} attempted)")
    print("machine " + json.dumps(machine_facts(plain[0].get("versions"))))
    for line in fails:
        print(f"FAILED {line}")

    if args.write_refs:
        if fails:
            print("checks failed; references not written", file=sys.stderr)
            return 1
        ref_path.parent.mkdir(parents=True, exist_ok=True)
        payloads = {
            op["id"]: checks.normalized(json.loads((plain[0]["dir"] / f"{op['id']}.json").read_text()))
            for op in ops if op["det"]
        }
        ref_path.write_text(json.dumps(payloads, sort_keys=True, indent=1) + "\n")
        print(f"wrote {ref_path}")

    if args.trace:
        units = spans.metric_units()
        layers = {
            m: med(r["layers"][m] for r in passes["memory" if m.endswith(".peak_mb") else "traced"])
            for m in units if m not in spans.RUN_METRICS
        }
        wall_traced = med(r["wall_s"] for r in passes["traced"])
        layers["trace.wall_s"] = wall_traced
        layers["trace.overhead"] = wall_traced / e2e["wall_s"][0] - 1.0
        single = passes.get("single")
        layers["pdprocess.scaling_eff"] = (
            med(r["wall_s"] for r in single) / (2.0 * e2e["wall_s"][0]) if single else 0.0
        )
        print(f"  traced wall_s {wall_traced:.4f} s, overhead {layers['trace.overhead']:+.2%} "
              f"against the untraced median")
        for name in units:
            print(f"  {name:<52} {layers[name]:14.6g} {units[name][0]}")
        metrics = {m: {"value": layers[m], "unit": units[m][0]} for m in units}
    else:
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in e2e.items()}

    result = {"correct": not fails, "attempted": attempted, "failed": len(fails), "metrics": metrics}
    (work / "summary.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
