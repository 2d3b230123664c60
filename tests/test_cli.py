"""CLI: subcommands, config/flag overrides, exit codes, report payloads."""

import json
import math
import subprocess
import sys
import time

import pytest

from pdlab import cli, sequences, stats


def run_cli(*argv):
    return cli.main(list(argv))


def test_rho_subcommand_writes_table(tmp_path, capsys):
    table_csv = tmp_path / "rho.csv"
    out = tmp_path / "rho.json"
    code = run_cli(
        "rho", "--u-max", "5", "--table-out", str(table_csv), "--out", str(out)
    )
    assert code == 0
    import csv

    rows = {float(r["u"]): float(r["rho"]) for r in csv.DictReader(open(table_csv))}
    assert rows[1.0] == 1.0
    assert rows[2.0] == pytest.approx(1.0 - math.log(2.0), abs=1e-10)
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "rho-table"
    assert "wall_time" not in payload


def test_tail_example_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"spec": {"kind": "uniform"}, "x": 100000, "eps": 0.1, "seed": 42})
    )
    out = tmp_path / "report.json"
    assert run_cli("tail", "--config", str(cfg), "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "tail"
    assert payload["oracle_value"] == pytest.approx(math.log(10 / 9), abs=1e-10)
    assert 0.0 < payload["estimate"] < 1.0
    # report embeds its config: re-running from it reproduces the estimate
    rerun = cli.run("tail", payload["config"])
    assert rerun.estimate == payload["estimate"]


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": "uniform", "x": 1000, "eps": 0.1}))
    out = tmp_path / "rep.json"
    assert run_cli("tail", "--config", str(cfg), "--eps", "0.2", "--out", str(out)) == 0
    assert json.loads(out.read_text())["config"]["eps"] == 0.2


def test_missing_x_exits_2(capsys):
    assert run_cli("tail", "--spec", "uniform", "--eps", "0.1") == 2
    err = capsys.readouterr().err
    assert "x" in err


def test_resource_budget_exits_3(tmp_path, capsys):
    assert run_cli("rho", "--u-max", "500") == 3
    # a rho grid of 2e301 rows is refused by its row count, before any
    # array or file
    csv = tmp_path / "rho.csv"
    assert run_cli("rho", "--table-out", str(csv), "--step", "1e-300") == 3
    assert "rows" in capsys.readouterr().err
    assert not csv.exists()


@pytest.mark.parametrize(
    "exc, shown",
    [
        (MemoryError("Unable to allocate 8.00 GiB for an array"), "Unable to allocate"),
        (MemoryError(), "MemoryError"),
    ],
)
def test_failed_allocation_exits_3(exc, shown, monkeypatch, capsys):
    def exhausted(config):
        raise exc

    monkeypatch.setitem(cli.RUNNERS, "tail", exhausted)
    assert run_cli("tail", "--spec", "uniform", "--x", "100", "--eps", "0.1") == 3
    assert f"resource budget exceeded: {shown}" in capsys.readouterr().err


def test_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pdlab.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


NO_MEMBERS = json.dumps({"kind": "shifted_primes", "shift": -10**6})


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["sieve", "--spec", NO_MEMBERS, "--x", "100", "--eps", "0.1"], "no members"),
        (["lod", "--spec", NO_MEMBERS, "--x", "100", "--c", "0.5"], "no members"),
        (["lod", "--spec", '{"kind": "poly", "coeffs": [1, 0, 1]}', "--x", "1", "--c", "0.5"],
         "no members"),
        (["sieve", "--spec", '{"kind": "shifted_primes", "shift": 1}', "--x", "1000",
          "--eps", "0.1", "--z0", "1"], "g(2) = 1"),
        (["sieve", "--spec", '{"kind": "poly", "coeffs": [2, 1, 1]}', "--x", "1000",
          "--eps", "0.1", "--z0", "1"], "g(2) = 1"),
    ],
    ids=["sieve-empty", "lod-empty", "lod-poly-empty", "sieve-v0-shifted", "sieve-v0-poly"],
)
def test_empty_set_or_zero_v_exits_2(argv, shown, capsys):
    assert run_cli(*argv) == 2
    assert shown in capsys.readouterr().err


def test_unknown_spec_kind_exits_2():
    assert run_cli("tail", "--spec", '{"kind":"martian"}', "--x", "100", "--eps", "0.1") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["tail", "--spec", '{"kind":"shifted_primes","shift":"abc"}', "--x", "100", "--eps", "0.1"],
        ["tail", "--spec", '{"kind":"poly","coeffs":["a",1]}', "--x", "100", "--eps", "0.1"],
        ["tail", "--spec", '{"kind":"poly","coeffs":5}', "--x", "100", "--eps", "0.1"],
        ["growth", "--g", '{"kind":"root_density","coeffs":["a"]}', "--x", "100"],
        ["growth", "--g", '{"kind":"root_density","coeffs":7}', "--x", "100"],
        ["corr", "--boxes", '{"boxes":[{"lower":["a"],"upper":[0.5]}]}', "--n-samples", "10"],
        # integer fields are rejected, not truncated, when not integral
        ["tail", "--spec", '{"kind":"shifted_primes","shift":1.9}', "--x", "100", "--eps", "0.1"],
        ["tail", "--spec", '{"kind":"poly","coeffs":[1.5,0,1]}', "--x", "100", "--eps", "0.1"],
        ["growth", "--g", '{"kind":"root_density","coeffs":[1.5,0,1]}', "--x", "100"],
        ["sweep", "--experiment", "tail", "--spec", "uniform", "--eps", "0.1",
         "--axis", "x", "--values", "[1000.7]"],
        ["sweep", "--experiment", "tail", "--spec", "uniform", "--eps", "0.1",
         "--axis", "x", "--values", "[true]"],
        # a threshold outside (0, 1] among more than TOP_K of them
        ["cdf", "--c", "[0.9,0.5,0.3,0]", "--spec", "uniform", "--x", "1000"],
        # thresholds outside (0, 1], caught before any oracle divides by them
        ["cdf", "--c", "[0]", "--n-samples", "10"],
        ["cdf", "--c", "0", "--spec", "uniform", "--x", "100"],
        # the rho table step must lie in (0, u_max]
        ["rho", "--table-out", "{tmp}/rho.csv", "--step", "0"],
        ["rho", "--table-out", "{tmp}/rho.csv", "--step", "-1"],
        # write errors: the directory does not exist
        ["rho", "--table-out", "{tmp}/missing/rho.csv"],
        ["rho", "--out", "{tmp}/missing/rho.json"],
        ["sweep", "--experiment", "rho", "--axis", "u_max", "--values", "[5]",
         "--out", "{tmp}/missing/rho.csv"],
        # the sieve window: eps in (0, 1) and delta0 at most 1, refused
        # before x**delta0 is taken
        ["sieve", "--spec", "uniform", "--x", "1000", "--eps", "nan"],
        ["sieve", "--spec", "uniform", "--x", "1000", "--eps", "-1"],
        ["sieve", "--spec", "uniform", "--x", "1000", "--eps", "0.1", "--delta0", "nan"],
        ["sieve", "--spec", "uniform", "--x", "1000", "--eps", "0.1", "--delta0", "inf"],
        ["sieve", "--spec", "uniform", "--x", "1000", "--eps", "0.1", "--delta0", "1e300"],
        # every subcommand checks --seed and --threads, read or not
        ["tail", "--spec", "uniform", "--x", "100", "--eps", "0.1", "--threads", "0"],
        ["tail", "--spec", "uniform", "--x", "100", "--eps", "0.1", "--seed", "-5"],
        ["lod", "--spec", "uniform", "--x", "100", "--c", "0.5",
         "--seed", "18446744073709551616"],
    ],
)
def test_malformed_config_field_exits_2(argv, tmp_path, capsys):
    assert run_cli(*[a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config",
    [
        # a file name must be a string: 1 and true are not file descriptors
        ("rho", {"table_out": 1}),
        ("rho", {"table_out": True}),
        # a boolean is not a number
        ("rho", {"table_out": "{tmp}/rho.csv", "step": True}),
        # the experiment and the axis are names
        ("sweep", {"experiment": ["rho"], "axis": "u_max", "values": [5]}),
        ("sweep", {"experiment": "rho", "axis": ["u_max"], "values": [5]}),
        ("sweep", {"experiment": "rho", "axis": 5, "values": [5]}),
        # a boolean is not a thread count, for any subcommand
        ("rho", {"table_out": "{tmp}/rho.csv", "threads": True}),
    ],
    ids=["table_out-int", "table_out-bool", "step-bool", "experiment-list", "axis-list", "axis-int",
         "threads-bool"],
)
def test_malformed_config_file_field_exits_2(command, config, tmp_path, capsys):
    config = {k: v.replace("{tmp}", str(tmp_path)) if isinstance(v, str) else v
              for k, v in config.items()}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(command, "--config", str(cfg)) == 2
    assert "validation error" in capsys.readouterr().err
    assert not (tmp_path / "rho.csv").exists()


def test_integral_float_fields_accepted(tmp_path):
    reports = []
    for spec, x in (({"kind": "poly", "coeffs": [1, 0, 1]}, 10**6),
                    ({"kind": "poly", "coeffs": [1.0, 0, 1e0]}, 1e6)):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spec": spec, "x": x, "eps": 0.1}))
        out = tmp_path / "rep.json"
        assert run_cli("tail", "--config", str(cfg), "--out", str(out)) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[1]["x"] == 10**6 and reports[1]["spec"]["coeffs"] == [1, 0, 1]
    assert reports[1]["estimate"] == reports[0]["estimate"]


@pytest.mark.parametrize(
    "argv",
    [
        # sqrt F(N) = 1e9 exceeds the prime table budget
        ["cdf", "--c", "[0.5]"],
        # the largest modulus x**c = 1e9 exceeds the spf sieve budget
        ["lod", "--c", "0.5"],
        # N = 1e9 arguments exceed the dense enumeration cap
        ["repeated", "--alpha", "0.1", "--c", "0.2"],
    ],
)
def test_oversized_polynomial_run_exits_3_before_enumerating(argv, capsys):
    spec = '{"kind":"poly","coeffs":[1,0,1]}'
    t0 = time.perf_counter()
    assert run_cli(*argv, "--spec", spec, "--x", "1000000000000000000") == 3
    assert time.perf_counter() - t0 < 5.0
    assert "resource budget exceeded" in capsys.readouterr().err


def test_oversized_polynomial_corr_exits_3_before_enumerating(monkeypatch, capsys):
    # 100X^2 + 1 to 1e18 has 1e8 arguments, under the enumeration cap, but
    # the root of its largest value, 1e9, exceeds the prime table budget:
    # the primes are sized before any argument is enumerated
    def forbidden(*args, **kwargs):
        raise AssertionError("enumerated the arguments")

    monkeypatch.setattr(sequences, "poly_arguments", forbidden)
    spec = '{"kind":"poly","coeffs":[1,0,100]}'
    boxes = "[[0.1,0.3],[0.3,0.6]]"
    assert run_cli("corr", "--boxes", boxes, "--spec", spec, "--x", "1000000000000000000") == 3
    assert "resource budget exceeded" in capsys.readouterr().err


def test_huge_constant_coefficient_exits_3_at_once(capsys):
    # X^3 + 10**18 + 3 is irreducible, decided with no factoring of c0; its
    # values to 2e18 need primes to sqrt F(N) = 1.4e9, past the prime table
    # budget, so the run stops before enumerating
    spec = '{"kind":"poly","coeffs":[1000000000000000003,0,0,1]}'
    t0 = time.perf_counter()
    assert run_cli("tail", "--spec", spec, "--x", "2000000000000000000", "--eps", "0.1") == 3
    assert time.perf_counter() - t0 < 5.0
    assert "resource budget exceeded" in capsys.readouterr().err
    # X^3 - (10**20 + 7)**3 has the root 10**20 + 7: reducible, whatever c0's size
    spec = json.dumps({"kind": "poly", "coeffs": [-(10**20 + 7) ** 3, 0, 0, 1]})
    assert run_cli("tail", "--spec", spec, "--x", "100", "--eps", "0.1") == 2
    assert "rational root" in capsys.readouterr().err


def test_far_turning_point_exits_3_before_enumerating(capsys):
    # X^2 - 3e9 X + 1 decreases up to n = 1.5e9
    spec = '{"kind":"poly","coeffs":[1,-3000000000,1]}'
    t0 = time.perf_counter()
    assert run_cli("lod", "--spec", spec, "--x", "1000000", "--c", "0.5") == 3
    assert time.perf_counter() - t0 < 5.0
    assert "resource budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("k", [4, 6, 40])
def test_oversized_box_quadrature_exits_3_at_once(k, capsys):
    # tiny lower ends whose upper ends sum past 1 leave the product formula
    # for the quadrature, whose work grows as (sub-panels x 12)^(k-1)
    boxes = json.dumps([[0.001 * (i + 1), 0.5] for i in range(k)])
    t0 = time.perf_counter()
    assert run_cli("corr", "--boxes", boxes, "--n-samples", "10") == 3
    assert time.perf_counter() - t0 < 0.5
    assert "box quadrature" in capsys.readouterr().err


def test_growth_on_a_ramified_quadratic(capsys):
    # X^2 + 1009 has a double root mod 1009 and no root mod 1009^2
    g = '{"kind":"root_density","coeffs":[1009,0,1]}'
    assert run_cli("growth", "--g", g, "--x", "2000000") == 0
    assert "sum_h" in capsys.readouterr().out


def test_poly_x_beyond_int64_exits_2(capsys):
    # rejected before enumeration, not by an OverflowError after it
    spec = '{"kind":"poly","coeffs":[-2,0,0,1]}'
    assert run_cli("cdf", "--spec", spec, "--x", "10000000000000000000", "--c", "[0.5]") == 2
    assert "int64" in capsys.readouterr().err


def test_uniform_lod_x_beyond_int64_exits_2(capsys):
    # N_d(x) = x // d is taken over int64 moduli; 2**63 - 1 still runs
    assert run_cli("lod", "--spec", "uniform", "--x", "10000000000000000000", "--c", "0.1") == 2
    assert "int64" in capsys.readouterr().err
    assert run_cli("lod", "--spec", "uniform", "--x", "9223372036854775807", "--c", "0.1") == 0


HUGE = str(10**400)  # a JSON integer past the float range


@pytest.mark.parametrize(
    "argv, msg",
    [
        (["tail", "--spec", "uniform", "--x", "1000", "--eps", "0.1", "--guard-band", "nan"],
         "finite"),
        (["corr", "--boxes", '{"boxes":[{"lower":[0.1],"upper":[0.3],"weight":NaN}]}',
          "--n-samples", "100"], "finite"),
        (["corr", "--boxes", '{"boxes":[{"lower":[0.1],"upper":[0.3],"weight":1e400}]}',
          "--n-samples", "100"], "finite"),
        (["corr", "--boxes", "[[0.1,1e400]]", "--n-samples", "100"], "finite"),
        (["corr", "--boxes", '{"boxes":[{"lower":[0.1],"upper":[0.3],"weight":%s}]}' % HUGE,
          "--n-samples", "100"], "malformed"),
        (["corr", "--boxes", "[[0.1,%s]]" % HUGE, "--n-samples", "100"], "malformed"),
    ],
    ids=["guard_band-nan", "weight-nan", "weight-inf", "upper-inf", "weight-huge-int",
         "upper-huge-int"],
)
def test_non_finite_numbers_exit_2_and_write_nothing(argv, msg, tmp_path, capsys):
    # NaN and Infinity are not JSON, so no report may carry them
    out = tmp_path / "r.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


def test_corr_pd_monte_carlo(capsys):
    assert (
        run_cli(
            "corr", "--boxes", "[[0.25,0.5]]", "--n-samples", "200000", "--seed", "7"
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "pd-corr" in out


def test_cdf_sequence_path(tmp_path):
    out = tmp_path / "cdf.json"
    assert (
        run_cli("cdf", "--c", "[0.5]", "--spec", "uniform", "--x", "100000", "--out", str(out))
        == 0
    )
    payload = json.loads(out.read_text())
    assert payload["oracle_value"] == pytest.approx(1.0 - math.log(2.0), abs=1e-10)
    assert payload["exhaustive"] is True


def test_reports_byte_identical_across_threads(tmp_path):
    for args in (
        ["cdf", "--c", "[0.5]", "--n-samples", "200000", "--seed", "11"],
        ["pd", "--n-samples", "100000", "--seed", "11"],
        ["corr", "--boxes", "[[0.1,0.3],[0.3,0.6]]", "--n-samples", "100000", "--seed", "11"],
    ):
        payloads = set()
        for threads in ("1", "2", "8"):
            out = tmp_path / f"{args[0]}-{threads}.json"
            assert run_cli(*args, "--threads", threads, "--out", str(out)) == 0
            payloads.add(out.read_bytes())
        assert len(payloads) == 1, args[0]


@pytest.mark.parametrize(
    "config, command, field",
    [
        ({"spec": "uniform", "x": 1000, "eps": 0.1, "guard_band": "wide"}, "tail", "guard_band"),
        ({"spec": "uniform", "x": 1000, "eps": 0.1, "delta0": "x"}, "sieve", "delta0"),
    ],
)
def test_non_numeric_optional_field_exits_2(config, command, field, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(command, "--config", str(cfg)) == 2
    assert f"field {field!r} must be a number" in capsys.readouterr().err


def test_sweep_refuses_json_before_running(tmp_path, capsys):
    out = tmp_path / "s.json"
    argv = ["sweep", "--experiment", "rho", "--axis", "u_max", "--values", "[5, 6]"]
    assert run_cli(*argv, "--format", "json", "--out", str(out)) == 2
    std = capsys.readouterr()
    assert "--format json" in std.err and std.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "path", [["--spec", "uniform", "--x", "1000000"], ["--n-samples", "1000000"]]
)
def test_thirteen_point_correlation_exits_3_at_once(path, monkeypatch, capsys):
    # a staircase of 13 overlapping intervals whose lower ends sum past 1
    # lies outside the simplex, so the quadrature oracle is quick, and then
    # the tuple sums would take more than 2**17 recurrence terms
    from pdlab import pdprocess, stats

    def forbidden(*args, **kwargs):
        raise AssertionError("ran past the recurrence budget")

    for module, name in ((stats, "_spectrum_blocks"), (pdprocess, "_stick_rounds")):
        monkeypatch.setattr(module, name, forbidden)
    stairs = json.dumps([[0.1 + 0.01 * i, 0.3 + 0.01 * i] for i in range(13)])
    t0 = time.perf_counter()
    assert run_cli("corr", "--boxes", stairs, *path) == 3
    assert time.perf_counter() - t0 < 5.0
    assert "recurrence terms" in capsys.readouterr().err
    # 13 disjoint intervals take one step each and run, here at 1000
    # members or samples
    monkeypatch.undo()
    disjoint = json.dumps([[0.005 * i + 0.001, 0.005 * i + 0.004] for i in range(13)])
    small = [a.replace("1000000", "1000") for a in path]
    assert run_cli("corr", "--boxes", disjoint, *small) == 0


def test_sweep_writes_combined_csv(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "lod",
                "spec": {"kind": "shifted_primes", "shift": 1},
                "c": 0.4,
                "axis": "x",
                "values": [10000, 100000],
            }
        )
    )
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
    import csv

    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 2
    assert float(rows[0]["estimate"]) > float(rows[1]["estimate"])  # lod improves


def test_sweep_empty_values_exits_2(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"experiment": "lod", "axis": "x", "values": []}))
    assert run_cli("sweep", "--config", str(cfg)) == 2


@pytest.mark.parametrize("values", ["0.1", '{"0.1": 1}'])
def test_sweep_non_list_values_exits_2(values, capsys):
    argv = ["sweep", "--experiment", "tail", "--axis", "eps", "--values", values,
            "--spec", "uniform", "--x", "100"]
    assert run_cli(*argv) == 2
    assert "nonempty 'values' list" in capsys.readouterr().err


def test_sweep_tail_eps_grid(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "tail",
                "spec": "uniform",
                "x": 100000,
                "axis": "eps",
                "values": [0.05, 0.1, 0.2],
            }
        )
    )
    out = tmp_path / "tails.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
    import csv

    rows = list(csv.DictReader(open(out)))
    for row, eps in zip(rows, (0.05, 0.1, 0.2)):
        assert float(row["oracle_value"]) == pytest.approx(math.log(1 / (1 - eps)), abs=1e-10)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pdlab.cli", "mertens", "--spec", "uniform", "--x", "10000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "mertens" in proc.stdout


def test_growth_subcommand(capsys):
    assert (
        run_cli("growth", "--g", '{"kind":"root_density","coeffs":[1,0,1]}', "--x", "1000")
        == 0
    )
    out = capsys.readouterr().out
    assert "sum_h" in out


def test_pd_subcommand_mass_identity(tmp_path):
    out = tmp_path / "pd.json"
    assert run_cli("pd", "--n-samples", "100000", "--seed", "5", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["extras"]["mass_identity_max_deviation"] <= 1e-12
    # mean L1 against the Golomb-Dickman constant
    assert payload["estimate"] == pytest.approx(0.62433, abs=0.01)
    assert abs(payload["oracle_value"] - 0.62432998854355087099) <= 1e-14


def test_sieve_subcommand(tmp_path):
    out = tmp_path / "sieve.json"
    assert (
        run_cli("sieve", "--spec", "uniform", "--x", "100000", "--eps", "0.05", "--out", str(out))
        == 0
    )
    payload = json.loads(out.read_text())
    assert payload["estimate"] == pytest.approx(1.0, abs=0.15)


@pytest.mark.parametrize(
    "argv, bound_mib",
    [
        # u (int64, 7.6 MiB), the P+ table written over the spf sieve
        # (int32, 3.8 MiB) and the per-member tuple sums `per` (float64,
        # 7.6 MiB), plus one block of 2**16 members: its spectrum arrays,
        # its entries and the tuple sums' counts, some 6 MiB (25 MiB
        # measured); `moments` then holds u, per and one deviation array
        (["corr", "--boxes", "[[0.1,0.3],[0.3,0.6]]"], 40),
        # u and the P+ table, plus one block of 2**16 members: its
        # spectrum arrays and its top column, some 3 MiB (14.4 MiB measured)
        (["tail", "--eps", "0.1"], 20),
        # u and the P+ table, plus one block with two top columns (17.1 MiB
        # measured)
        (["cdf", "--c", "[0.5,0.3]"], 22),
    ],
    ids=["corr", "tail", "cdf"],
)
def test_member_ops_hold_one_block_beyond_their_arrays(argv, bound_mib, tmp_path):
    import tracemalloc

    tracemalloc.start()
    try:
        out = str(tmp_path / "r.json")
        rc = run_cli(*argv, "--spec", "uniform", "--x", "1000000", "--out", out)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < bound_mib, f"{argv[0]} peaked at {peak:.1f} MiB"


def test_sample_set_and_ks_hold_one_column():
    # u (int64, 7.6 MiB), the P+ table (int32, 3.8 MiB) and the leading
    # column (float64, 7.6 MiB), plus one block of 2**16 members (22.0 MiB
    # measured; three columns and the whole-set u held 40.5 MiB); KS then
    # holds the column and its sorted copy
    import tracemalloc

    tracemalloc.start()
    try:
        sample = stats.build_sample_set(sequences.uniform_integers(), 10**6)
        ks = stats.ks_distance(sample.top[:, 0], stats.dickman_reference_cdf())
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert sample.top.shape == (10**6, 1) and sample.n == 10**6
    assert abs(ks - 78499 / 10**6) < 1e-12  # the atom (pi(x) + 1)/x
    assert peak < 26, f"build and KS peaked at {peak:.1f} MiB"
