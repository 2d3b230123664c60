"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/child.py PLAN.json RESULT.json

Imports pdlab.cli (the end of set-up), then runs the plan's ops in order,
writing one report file per op into the plan's directory, and writes
RESULT.json with the set-up end time, the wall time from the first op's
start to the last op's end, this process's CPU time and peak RSS, the
outcome of each op and, for a "traced" or "memory" pass, the per-layer
metrics.  A "probe" plan only measures set-up.
"""

import time
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import pdlab.cli  # noqa: E402

T_READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_ks(op: dict, out: str) -> int:
    """KS distance of the leading spectrum entries from the Dickman cdf."""
    from pdlab import sequences, stats

    spec = sequences.SequenceSpec.from_dict(op["spec"])
    sample = stats.build_sample_set(spec, op["x"])
    ks = stats.ks_distance(sample.top[:, 0], stats.dickman_reference_cdf())
    payload = {
        "experiment": "ks",
        "spec": spec.to_dict(),
        "x": op["x"],
        "estimate": ks,
        "extras": {"n_members": sample.n},
    }
    with open(out, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def run_ops(ops: list, out_dir: str) -> list:
    results = []
    with open(os.devnull, "w") as sink:
        for op in ops:
            out = os.path.join(out_dir, f"{op['id']}.json")
            t0 = time.monotonic()
            rc, error = None, None
            try:
                if op.get("library") == "ks":
                    rc = run_ks(op, out)
                else:
                    with contextlib.redirect_stdout(sink):
                        rc = pdlab.cli.main(op["argv"] + ["--out", out])
            except (Exception, SystemExit):
                error = traceback.format_exc(limit=3)
            results.append({"id": op["id"], "rc": rc, "error": error, "s": time.monotonic() - t0})
    return results


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    result = {"t_ready": T_READY, "pdlab_file": pdlab.cli.__file__}
    if plan["kind"] != "probe":
        tracer = None
        if plan["kind"] in ("traced", "memory"):
            import spans

            tracer = spans.Tracer(memory=plan["kind"] == "memory")
            tracer.install()
        t0 = time.monotonic()
        result["ops"] = run_ops(plan["ops"], plan["out_dir"])
        result["wall_s"] = time.monotonic() - t0
        ru = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = ru.ru_utime + ru.ru_stime
        result["peak_rss_mb"] = ru.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        if tracer is not None:
            result["layers"] = tracer.metrics()
            with open(os.path.join(plan["out_dir"], "spans.json"), "w") as fh:
                json.dump(tracer.spans, fh)
        import numpy
        import scipy

        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
