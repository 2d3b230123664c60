"""The benchmark's workloads: fixed lists of pdlab experiment ops.

Each op is a dict:

* ``id``: unique within the workload, names the op's report file;
* ``argv``: the ``pdlab.cli.main`` arguments (``--out`` is added per pass),
  or ``library`` for an op that calls the library directly;
* ``det``: True when the report payload does not depend on the seed, so it
  must equal the stored reference (seed field aside);
* ``members``: the independent member count to check ``n_members`` against;
* ``oracle``: the exact limit a Monte Carlo estimate must meet within
  5 standard errors.

Sizes come in two modes: ``full`` is the measured benchmark, ``smoke``
runs the same ops, checks and trace wrappers at tiny sizes in seconds.
"""

from __future__ import annotations

import hashlib
import json

WORKLOADS = ("dense-spectra", "sparse-families", "pd-mc")

SIZES = {
    "full": {
        "dense_x": 4_000_000,
        "sp_x": 10_000_000,
        "poly_x": 10_000_000_000,
        "growth_x": 100_000,
        "pd_n": 4_000_000,
        "u_max": 100,
    },
    "smoke": {
        "dense_x": 20_000,
        "sp_x": 100_000,
        "poly_x": 1_000_000,
        "growth_x": 2_000,
        "pd_n": 20_000,
        "u_max": 30,
    },
}

# pd-mc runs threaded; the traced run repeats it at one thread for scaling
PD_THREADS = 2

SHIFTED_PRIMES = {"kind": "shifted_primes", "shift": 1}
X2P1 = {"kind": "poly", "coeffs": [1, 0, 1]}

# box functions whose summed upper ends are <= 1, so the PD correlation is
# the exact product of log(b/a) over the intervals
PD_BOXES = (
    [[0.1, 0.5]],
    [[0.1, 0.3], [0.3, 0.6]],
    [[0.1, 0.2], [0.2, 0.3], [0.3, 0.4]],
)


def op_seed(workload: str, seed: int, index: int) -> int:
    """A 63-bit op seed derived from the workload seed and the op's position."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _spectra(cmd, spec, x, *flags):
    spec_arg = spec if isinstance(spec, str) else json.dumps(spec)
    return [cmd, "--spec", spec_arg, "--x", str(x), *flags]


def _dense(sz):
    x = sz["dense_x"]
    uniform = {"members": ["uniform", x], "det": True}
    return [
        {"id": "tail-uniform", "argv": _spectra("tail", "uniform", x, "--eps", "0.1"), **uniform},
        {"id": "cdf-uniform", "argv": _spectra("cdf", "uniform", x, "--c", "[0.5,0.3]"), **uniform},
        {
            "id": "corr-uniform",
            "argv": _spectra("corr", "uniform", x, "--boxes", "[[0.1,0.3],[0.3,0.6]]"),
            **uniform,
        },
        {
            "id": "repeated-uniform",
            "argv": _spectra("repeated", "uniform", x, "--alpha", "0.1", "--c", "0.4"),
            **uniform,
        },
        {"id": "sieve-uniform", "argv": _spectra("sieve", "uniform", x, "--eps", "0.1"), **uniform},
        {
            "id": "cdf-thue-morse",
            "argv": _spectra("cdf", "thue_morse", x, "--c", "[0.5]"),
            "members": ["thue_morse", x],
            "det": True,
        },
        # KS against the Dickman cdf is the headline comparison; no
        # subcommand exposes it, so it goes through the library
        {"id": "ks-uniform", "library": "ks", "spec": {"kind": "uniform"}, "x": x, **uniform},
    ]


def _sparse(sz):
    x, px = sz["sp_x"], sz["poly_x"]
    sp = {"members": ["shifted_primes_1", x], "det": True}
    return [
        {"id": "tail-shifted-primes", "argv": _spectra("tail", SHIFTED_PRIMES, x, "--eps", "0.1"), **sp},
        {"id": "lod-shifted-primes", "argv": _spectra("lod", SHIFTED_PRIMES, x, "--c", "0.4"), "det": True},
        {"id": "sieve-shifted-primes", "argv": _spectra("sieve", SHIFTED_PRIMES, x, "--eps", "0.1"), **sp},
        {
            "id": "cdf-x2p1",
            "argv": _spectra("cdf", X2P1, px, "--c", "[0.5]"),
            "members": ["x2p1", px],
            "det": True,
        },
        {"id": "lod-x2p1", "argv": _spectra("lod", X2P1, px, "--c", "0.3"), "det": True},
        {
            "id": "growth-x2p1",
            "argv": ["growth", "--g", json.dumps({"kind": "root_density", "coeffs": [1, 0, 1]}),
                     "--x", str(sz["growth_x"])],
            "det": True,
        },
    ]


def _pd(sz, threads):
    n = ["--n-samples", str(sz["pd_n"]), "--threads", str(threads)]
    ops = [{"id": "pd", "argv": ["pd", *n], "det": False, "oracle": ["pd"]}]
    for boxes in PD_BOXES:
        ops.append({
            "id": f"corr-pd-k{len(boxes)}",
            "argv": ["corr", "--boxes", json.dumps(boxes), *n],
            "det": False,
            "oracle": ["corr", boxes],
        })
    ops.append({
        "id": "cdf-pd",
        "argv": ["cdf", "--c", "[0.5,0.3]", *n],
        "det": False,
        "oracle": ["cdf", [0.5, 0.3]],
    })
    ops.append({
        "id": "rho",
        "argv": ["rho", "--u-max", str(sz["u_max"]), "--threads", str(threads)],
        "det": True,
        "oracle": ["rho"],
    })
    return ops


def ops(workload: str, seed: int, mode: str, threads: int = PD_THREADS) -> list[dict]:
    """The workload's ops at the mode's sizes, each CLI op seeded from ``seed``."""
    sz = SIZES[mode]
    if workload == "dense-spectra":
        out = _dense(sz)
    elif workload == "sparse-families":
        out = _sparse(sz)
    elif workload == "pd-mc":
        out = _pd(sz, threads)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, op in enumerate(out):
        if "argv" in op:
            op["argv"] = op["argv"] + ["--seed", str(op_seed(workload, seed, i))]
    return out
