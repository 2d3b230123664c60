"""Command-line orchestration: experiment configs, subcommands, output.

Each subcommand runs one experiment from a flat JSON config (optionally
loaded with --config) with CLI flags overriding config fields one-to-one.
A human-readable table goes to stdout; --out writes the machine report
(JSON, or CSV for sweeps).  The file payload excludes wall time, so for
a fixed seed and config it is byte-identical regardless of --threads.

Exit codes: 0 success, 2 validation error, 3 resource budget exceeded
(a budget check, or an allocation that failed), 4 internal assertion
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from pdlab import arith, dickman, pdprocess, sequences, stats
from pdlab.boxes import BoxFunction, box_correlation_exact, box_correlation_quadrature
from pdlab.errors import ResourceBudgetError, ValidationError, integral
from pdlab.report import Estimate, ExperimentReport, joint_cdf_thresholds, write_csv
from pdlab.sequences import SequenceSpec

DEFAULT_N_SAMPLES = 10**6


# ---------------------------------------------------------------------------
# config plumbing


_REQUIRED = object()


def _field(config: dict, name: str, kind=None, default=_REQUIRED):
    """config[name] read as ``kind`` (int, float, str, or None for the raw
    value).

    An absent or null field takes ``default``, and without one it is a
    ValidationError, as is a value that is not of its kind; a boolean is
    neither an int nor a float.
    """
    val = config.get(name)
    if val is None:
        if default is _REQUIRED:
            raise ValidationError(f"missing required config field {name!r}")
        return default
    if kind is int:
        return integral(val, f"field {name!r}")
    if kind is float:
        if not isinstance(val, bool):
            try:
                return float(val)
            except (TypeError, ValueError):
                pass
        raise ValidationError(f"field {name!r} must be a number, got {val!r}")
    if kind is str and not isinstance(val, str):
        raise ValidationError(f"field {name!r} must be a string, got {val!r}")
    return val


def _parse_spec(config: dict) -> SequenceSpec:
    raw = _field(config, "spec")
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict):
        raise ValidationError(f"field 'spec' must be an object or kind string, got {raw!r}")
    return SequenceSpec.from_dict(raw)


def _parse_boxes(config: dict) -> BoxFunction:
    raw = _field(config, "boxes")
    if isinstance(raw, dict):
        return BoxFunction.from_dict(raw)
    if isinstance(raw, list):
        # shorthand: a single box as a list of [a, b] interval pairs
        try:
            ivals = [(float(a), float(b)) for a, b in raw]
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed 'boxes' field: {raw!r}") from exc
        from pdlab.boxes import box

        return box(*ivals)
    raise ValidationError(f"field 'boxes' must be an object or interval list, got {raw!r}")


def _parse_g(config: dict) -> arith.GFunctionSpec:
    if "g" in config and config["g"] is not None:
        raw = config["g"]
        if isinstance(raw, str):
            raw = {"kind": raw}
        if not isinstance(raw, dict):
            raise ValidationError(f"field 'g' must be an object or kind string, got {raw!r}")
        try:
            coeffs = tuple(integral(c, "'g' coeff") for c in raw.get("coeffs", ()))
        except TypeError as exc:
            raise ValidationError(f"malformed 'g' coeffs: {raw.get('coeffs')!r}") from exc
        return arith.GFunctionSpec(kind=raw.get("kind"), coeffs=coeffs)
    if "spec" in config and config["spec"] is not None:
        return _parse_spec(config).g_function()
    raise ValidationError("missing required config field 'g' (or 'spec' to derive it)")


def _seed(config: dict) -> int:
    s = _field(config, "seed", int, 0)
    if not 0 <= s < 1 << 64:
        raise ValidationError(f"field 'seed' must fit in 64 bits, got {s}")
    return s


def _threads(config: dict) -> int:
    t = _field(config, "threads", int, 1)
    if t < 1:
        raise ValidationError(f"field 'threads' must be >= 1, got {t}")
    return t


def _member_report(
    experiment: str, spec: SequenceSpec, x: int, est: Estimate, extras: dict, **fields
) -> ExperimentReport:
    """The report of an estimate over the est.n members of the sequence up
    to x; every member up to x is enumerated, so the estimate is
    exhaustive."""
    return ExperimentReport(
        experiment=experiment,
        spec=spec.to_dict(),
        x=x,
        estimate=est.value,
        std_error=est.std_error,
        exhaustive=True,
        extras={**extras, "n_members": est.n},
        **fields,
    )


def _mc_report(
    experiment: str, seed: int, est: Estimate, extras: dict, **fields
) -> ExperimentReport:
    """The report of a Monte Carlo estimate over est.n PD samples from seed."""
    return ExperimentReport(
        experiment=experiment,
        seed=seed,
        estimate=est.value,
        std_error=est.std_error,
        exhaustive=False,
        extras={**extras, "n_samples": est.n},
        **fields,
    )


# ---------------------------------------------------------------------------
# experiment runners


def run_rho(config: dict) -> ExperimentReport:
    u_max = _field(config, "u_max", int, dickman.DEFAULT_U_MAX)
    table = dickman.RhoTable(u_max=u_max)
    table_out = _field(config, "table_out", str, None)
    if table_out:
        try:
            table.dump_csv(table_out, step=_field(config, "step", float, 0.01))
        except OSError as exc:
            raise ValidationError(f"cannot write table: {exc}") from exc
    est = table.rho(2.0)
    return ExperimentReport(
        experiment="rho-table",
        estimate=est,
        oracle_value=1.0 - math.log(2.0),
        exhaustive=True,
        extras={
            "u_max": u_max,
            "rho_1": table.rho(1.0),
            "rho_2": est,
            "rho_u_max": table.rho(float(u_max)),
        },
    )


def run_pd(config: dict) -> ExperimentReport:
    n = _field(config, "n_samples", int, DEFAULT_N_SAMPLES)
    seed = _seed(config)
    mean_l1, dev = pdprocess.l1_mass_mc(n, seed, _threads(config))
    oracle = dickman.default_table().mean_l1()
    return _mc_report(
        "pd-sample", seed, mean_l1, {"mass_identity_max_deviation": dev}, oracle_value=oracle
    )


def _corr_oracle(eta: BoxFunction) -> float:
    if len(eta.boxes) == 1 and eta.boxes[0].weight == 1.0:
        try:
            return box_correlation_exact(eta.boxes[0].intervals())
        except ValidationError:
            pass
    return box_correlation_quadrature(eta)


def run_corr(config: dict) -> ExperimentReport:
    eta = _parse_boxes(config)
    oracle = _corr_oracle(eta)
    if config.get("spec") is not None:
        spec, x = _parse_spec(config), _field(config, "x", int)
        est = stats.empirical_corr(spec, x, eta)
        return _member_report("seq-corr", spec, x, est, {"k": eta.k}, oracle_value=oracle)
    n = _field(config, "n_samples", int, DEFAULT_N_SAMPLES)
    seed = _seed(config)
    est = pdprocess.corr_mc(eta, n, seed, threads=_threads(config))
    return _mc_report("pd-corr", seed, est, {"k": eta.k}, oracle_value=oracle)


def run_cdf(config: dict) -> ExperimentReport:
    c = joint_cdf_thresholds(_field(config, "c"))
    oracle = None
    if len(c) == 1 and 1.0 / c[0] <= dickman.default_table().u_max:
        oracle = dickman.cdf_l1(c[0])
    if config.get("spec") is not None:
        spec, x = _parse_spec(config), _field(config, "x", int)
        est = stats.empirical_joint_cdf(spec, x, c)
        return _member_report("joint-cdf", spec, x, est, {"c": c}, oracle_value=oracle)
    n = _field(config, "n_samples", int, DEFAULT_N_SAMPLES)
    seed = _seed(config)
    est = pdprocess.joint_cdf_mc(c, n, seed, threads=_threads(config))
    return _mc_report("joint-cdf", seed, est, {"c": c}, oracle_value=oracle)


def run_tail(config: dict) -> ExperimentReport:
    spec = _parse_spec(config)
    x = _field(config, "x", int)
    eps = _field(config, "eps", float)
    guard = _field(config, "guard_band", float, None)
    est = stats.tail_frequency(spec, x, eps)
    oracle = None
    if 1.0 / (1.0 - eps) <= dickman.default_table().u_max:
        oracle = 1.0 - dickman.cdf_l1(1.0 - eps)
    warnings = []
    if guard is not None and oracle is not None and est.value > guard * oracle:
        warnings.append(
            f"estimate {est.value:.6f} exceeds guard band {guard} x oracle {oracle:.6f}"
        )
    return _member_report(
        "tail", spec, x, est, {"eps": eps}, oracle_value=oracle, guard_band=guard, warnings=warnings
    )


def run_lod(config: dict) -> ExperimentReport:
    spec = _parse_spec(config)
    x = _field(config, "x", int)
    c = _field(config, "c", float)
    err, max_r = stats.lod_error_sum(spec, x, c)
    extras = {"c": c, "max_abs_r": max_r}
    oracle = None
    if spec.kind == "uniform":
        oracle = x ** (c - 1.0)  # closed bound, every |r_d| < 1
        assert err <= oracle, "uniform level-of-distribution bound violated"
    return ExperimentReport(
        experiment="lod",
        spec=spec.to_dict(),
        x=x,
        estimate=err,
        oracle_value=oracle,
        exhaustive=True,
        extras=extras,
    )


def run_repeated(config: dict) -> ExperimentReport:
    spec = _parse_spec(config)
    x = _field(config, "x", int)
    alpha = _field(config, "alpha", float)
    c = _field(config, "c", float)
    est = stats.repeated_factor_frequency(spec, x, alpha, c)
    return _member_report("repeated", spec, x, est, {"alpha": alpha, "c": c})


def run_sieve(config: dict) -> ExperimentReport:
    spec = _parse_spec(config)
    x = _field(config, "x", int)
    eps = _field(config, "eps", float)
    z0 = _field(config, "z0", float, 2.0)
    delta0 = _field(config, "delta0", float, None)
    res = stats.sieve_survivor_experiment(spec, x, eps, z0=z0, delta0=delta0)
    return ExperimentReport(
        experiment="sieve-survivors",
        spec=spec.to_dict(),
        x=x,
        estimate=res.ratio,
        oracle_value=1.0,
        exhaustive=True,
        extras={
            "survivors": res.survivors,
            "n_members": res.n_total,
            "v_product": res.v_product,
            "n_window_primes": res.n_window_primes,
            "window_lo": res.window[0],
            "window_hi": res.window[1],
        },
    )


def run_mertens(config: dict) -> ExperimentReport:
    g = _parse_g(config)
    x = _field(config, "x", int)
    dev = arith.mertens_deviation(g, x)
    return ExperimentReport(
        experiment="mertens",
        x=x,
        estimate=dev,
        oracle_value=0.0,
        exhaustive=True,
        extras={"g_kind": g.kind},
    )


def run_growth(config: dict) -> ExperimentReport:
    g = _parse_g(config)
    x = _field(config, "x", int)
    sum_g, sum_h = arith.partial_sums_gh(g, x)
    extras = {"g_kind": g.kind, "sum_g": sum_g}
    if sum_h is not None:
        extras["sum_h"] = sum_h
    return ExperimentReport(
        experiment="growth",
        x=x,
        estimate=sum_g,
        exhaustive=True,
        extras=extras,
    )


RUNNERS = {
    "rho": run_rho,
    "pd": run_pd,
    "corr": run_corr,
    "cdf": run_cdf,
    "tail": run_tail,
    "lod": run_lod,
    "repeated": run_repeated,
    "sieve": run_sieve,
    "mertens": run_mertens,
    "growth": run_growth,
}


def run(experiment: str, config: dict) -> ExperimentReport:
    """Run a single experiment; the report embeds the config it ran from."""
    if experiment not in RUNNERS:
        raise ValidationError(f"unknown experiment {experiment!r}")
    # every subcommand takes --seed and --threads, so every one checks them
    _seed(config)
    _threads(config)
    t0 = time.perf_counter()
    report = RUNNERS[experiment](config)
    report.wall_time = time.perf_counter() - t0
    # threads is scheduling, not experiment identity: estimates never depend
    # on it, and dropping it keeps report payloads identical across --threads
    report.config = {k: v for k, v in config.items() if k != "threads"}
    return report


def sweep(experiment: str, config: dict, axis: str, values) -> list[ExperimentReport]:
    """Run the experiment once per value of config[axis]."""
    if not isinstance(values, list) or not values:
        raise ValidationError("sweep needs a nonempty 'values' list")
    if not axis:
        raise ValidationError("sweep needs an 'axis' field name")
    reports = []
    for v in values:
        cfg = dict(config)
        cfg[axis] = v
        reports.append(run(experiment, cfg))
    return reports


# ---------------------------------------------------------------------------
# argument parsing

def _json_or_str(text: str):
    """JSON if it parses, else the raw string (lets --spec uniform work)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


# flag name -> (dest config field, parser) for per-experiment options
_FLAGS = {
    "--x": ("x", int),
    "--eps": ("eps", float),
    "--alpha": ("alpha", float),
    "--c": ("c", json.loads),
    "--z0": ("z0", float),
    "--delta0": ("delta0", float),
    "--n-samples": ("n_samples", int),
    "--u-max": ("u_max", int),
    "--table-out": ("table_out", str),
    "--step": ("step", float),
    "--spec": ("spec", _json_or_str),
    "--boxes": ("boxes", json.loads),
    "--g": ("g", _json_or_str),
    "--guard-band": ("guard_band", float),
    "--experiment": ("experiment", str),
    "--axis": ("axis", str),
    "--values": ("values", json.loads),
}

_SUBCOMMAND_FLAGS = {
    "rho": ["--u-max", "--table-out", "--step"],
    "pd": ["--n-samples"],
    "corr": ["--boxes", "--spec", "--x", "--n-samples"],
    "cdf": ["--c", "--spec", "--x", "--n-samples"],
    "tail": ["--spec", "--x", "--eps", "--guard-band"],
    "lod": ["--spec", "--x", "--c"],
    "repeated": ["--spec", "--x", "--alpha", "--c"],
    "sieve": ["--spec", "--x", "--eps", "--z0", "--delta0"],
    "mertens": ["--g", "--spec", "--x"],
    "growth": ["--g", "--spec", "--x"],
    "sweep": list(_FLAGS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdlab",
        description="Prime-factor spectra of arithmetic sequences vs the "
        "Poisson-Dirichlet limit: seeded, reproducible experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(RUNNERS) + ["sweep"]:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="flat JSON config file")
        p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", type=str, default=None, help="report file path")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        for flag in _SUBCOMMAND_FLAGS[name]:
            field, typ = _FLAGS[flag]
            p.add_argument(flag, dest=f"cfg_{field}", type=typ, default=None)
    return parser


def _load_config(args) -> dict:
    config: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        config.update(loaded)
    for key, val in vars(args).items():
        if key.startswith("cfg_") and val is not None:
            config[key[4:]] = val
    if args.seed is not None:
        config["seed"] = args.seed
    if args.threads is not None:
        config["threads"] = args.threads
    return config


def _emit(reports: list[ExperimentReport], out: str | None, fmt: str | None) -> None:
    for rep in reports:
        print(rep.human_table())
        print(f"wall_time    {rep.wall_time:.3f} s")
        print()
    if out is None:
        return
    if fmt is None:
        fmt = "csv" if out.endswith(".csv") or len(reports) > 1 else "json"
    try:
        if fmt == "csv":
            write_csv(reports, out)
        else:
            with open(out, "w") as fh:
                fh.write(reports[0].to_json())
                fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"cannot write report: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "sweep":
            if args.format == "json":
                raise ValidationError("sweep writes one CSV row per run; --format json is not available")
            experiment = _field(config, "experiment", str)
            axis = _field(config, "axis", str, None)
            del config["experiment"]
            config.pop("axis", None)
            reports = sweep(experiment, config, axis, config.pop("values", None))
        else:
            reports = [run(args.command, config)]
        _emit(reports, args.out, args.format)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (ResourceBudgetError, MemoryError) as exc:
        print(f"resource budget exceeded: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
