"""Correctness checks on the benchmark's op reports.

The oracles here are written independently of pdlab: the Dickman function
by its delay equation with scipy quadrature, the Poisson-Dirichlet
correlations by the product formula, the joint cdf by a Janossy integral,
and member counts by direct counting.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

# Golomb-Dickman constant: E[L1] for the Poisson-Dirichlet(1) process
GOLOMB_DICKMAN = 0.62432998854355087099293638310083724417964262018
MC_SIGMAS = 5.0
MASS_IDENTITY_TOL = 1e-12
RHO_TOL = 1e-10


@lru_cache(maxsize=None)
def rho(u: float) -> float:
    """Dickman rho from rho(u) = rho(k) - integral_k^u rho(t-1)/t dt, u in (k, k+1]."""
    if u <= 1.0:
        return 1.0
    if u <= 2.0:
        return 1.0 - math.log(u)
    from scipy.integrate import quad

    k = math.ceil(u) - 1
    tail, _ = quad(lambda t: rho(t - 1.0) / t, k, u, epsabs=1e-14, epsrel=1e-13)
    return rho(float(k)) - tail


def pd_corr(boxes) -> float:
    """k-point correlation of PD(1) over a box whose summed upper ends are <= 1.

    The correlation density is 1/(x_1...x_k) on the simplex, so inside it
    the integral factors into a product of log(b/a).
    """
    if sum(b for _, b in boxes) > 1.0:
        raise ValueError("product formula needs the box inside the simplex")
    return math.prod(math.log(b / a) for a, b in boxes)


def pd_joint_cdf(c) -> float:
    """P(L1 <= c1, L2 <= c2) for PD(1), c1 > c2.

    Either no part exceeds c2 (probability rho(1/c2)), or exactly one part
    t lies in (c2, c1] and the rest, a PD(1) scaled by 1 - t, stays <= c2
    (Janossy density rho((1-t)/c2)/t).
    """
    if len(c) == 1:
        return rho(1.0 / c[0])
    c1, c2 = c
    if not c1 > c2:
        raise ValueError("expected c1 > c2")
    from scipy.integrate import quad

    one, _ = quad(lambda t: rho((1.0 - t) / c2) / t, c2, c1, epsabs=1e-14, epsrel=1e-13)
    return rho(1.0 / c2) + one


def thue_morse_count(x: int) -> int:
    """Number of 1 <= n <= x with an even number of binary ones."""
    n, ones, even = x + 1, 0, 0
    for i in reversed(range(n.bit_length())):
        if n >> i & 1:
            # numbers sharing the prefix above bit i, with a 0 at bit i
            even += (1 << (i - 1)) if i else int(ones % 2 == 0)
            ones += 1
    return even - 1  # drop n = 0


def prime_count(n: int) -> int:
    if n < 2:
        return 0
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return sieve.count(1)


@lru_cache(maxsize=None)
def expected_members(kind: str, x: int) -> int:
    if kind == "uniform":
        return x
    if kind == "thue_morse":
        return thue_morse_count(x)
    if kind == "shifted_primes_1":
        return prime_count(x + 1)  # p - 1 <= x over primes p >= 2
    if kind == "x2p1":
        return math.isqrt(x - 1)  # n**2 + 1 <= x over n >= 1
    raise ValueError(f"no member count for {kind!r}")


def normalized(report: dict) -> dict:
    """The payload without the seed, which deterministic ops only record."""
    out = dict(report)
    if isinstance(out.get("config"), dict):
        out["config"] = {k: v for k, v in out["config"].items() if k != "seed"}
    return out


def _within(est, se, oracle, what) -> str | None:
    if est is None or se is None or not abs(est - oracle) <= MC_SIGMAS * se:
        return f"{what}: estimate {est} not within {MC_SIGMAS} x {se} of {oracle}"
    return None


def _check_oracle(oracle, rep) -> str | None:
    kind = oracle[0]
    est, se = rep.get("estimate"), rep.get("std_error")
    if kind == "pd":
        dev = rep["extras"].get("mass_identity_max_deviation")
        if dev is None or not dev <= MASS_IDENTITY_TOL:
            return f"pd: mass identity deviation {dev} > {MASS_IDENTITY_TOL}"
        return _within(est, se, GOLOMB_DICKMAN, "pd")
    if kind == "corr":
        return _within(est, se, pd_corr(oracle[1]), "corr")
    if kind == "cdf":
        return _within(est, se, pd_joint_cdf(oracle[1]), "cdf")
    if kind == "rho":
        want = 1.0 - math.log(2.0)
        if est is None or not abs(est - want) <= RHO_TOL:
            return f"rho: rho(2) = {est}, want {want}"
        return None
    raise ValueError(f"unknown oracle {kind!r}")


def check_report(op: dict, text: str, refs: dict | None) -> str | None:
    """None when the op's report is correct, else the reason it is not.

    ``refs`` maps op ids to normalized reference payloads; None skips the
    reference comparison (used only while writing references).  The
    comparison is exact, so references hold for the numpy build they were
    written with; after a numpy upgrade, rewrite them with
    ``run.py --write-refs`` and review the diff.
    """
    try:
        rep = json.loads(text)
    except ValueError:
        return "report is not valid JSON"
    if op.get("members"):
        want = expected_members(*op["members"])
        got = rep.get("extras", {}).get("n_members")
        if got != want:
            return f"n_members {got} != independent count {want}"
    if op.get("oracle"):
        reason = _check_oracle(op["oracle"], rep)
        if reason:
            return reason
    if op["det"] and refs is not None:
        if op["id"] not in refs:
            return "no stored reference payload"
        if normalized(rep) != refs[op["id"]]:
            return "payload differs from the stored reference"
    return None
