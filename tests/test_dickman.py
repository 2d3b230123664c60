"""Dickman function: closed form on [1,2], delay relation, refinement."""

import math

import numpy as np
import pytest

from pdlab import dickman
from pdlab.errors import ResourceBudgetError, ValidationError


@pytest.fixture(scope="module")
def table():
    return dickman.default_table()


def test_rho_is_one_on_unit_interval(table):
    for u in (1e-9, 0.3, 0.999999, 1.0):
        assert table.rho(u) == 1.0


def test_closed_form_on_1_2(table):
    # rho(u) = 1 - log u on [1,2], forced by the delay relation
    u = np.linspace(1.0, 2.0, 100)
    err = np.abs(table.rho_vec(u) - (1.0 - np.log(u)))
    assert err.max() <= 1e-10


def test_rho_2_exact_value(table):
    assert table.rho(2.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-12)


def test_delay_relation_integral_form(table):
    # rho(u) = (1/u) * integral of rho over [u-1, u], checked by quadrature
    from scipy.integrate import quad

    for u in (2.5, 3.0, 4.7, 9.2):
        kinks = [k for k in range(2, 11) if u - 1.0 < k < u]  # derivative kinks
        val, _ = quad(lambda t: table.rho(t), u - 1.0, u, points=kinks, limit=100)
        assert table.rho(u) == pytest.approx(val / u, abs=1e-12)


def test_refinement_stability():
    # doubling the collocation order moves nothing at the 1e-11 scale
    coarse = dickman.RhoTable(u_max=12, nodes=24)
    fine = dickman.RhoTable(u_max=12, nodes=48)
    u = np.linspace(1.01, 10.0, 500)
    assert np.max(np.abs(coarse.rho_vec(u) - fine.rho_vec(u))) <= 1e-11


def test_monotone_decreasing_and_positive(table):
    u = np.linspace(1.0, float(table.u_max), 2000)
    vals = table.rho_vec(u)
    assert (vals > 0).all()
    assert (np.diff(vals) <= 0).all()
    assert (vals <= 1).all()


def test_cdf_l1(table):
    assert table.cdf_l1(1.0) == 1.0
    assert table.cdf_l1(0.5) == pytest.approx(1.0 - math.log(2.0), abs=1e-12)
    assert table.cdf_l1(1.0 / 3.0) == pytest.approx(table.rho(3.0), abs=1e-12)


def test_domain_errors(table):
    with pytest.raises(ValidationError):
        table.rho(0.0)
    with pytest.raises(ResourceBudgetError):
        table.rho(table.u_max + 1.0)
    with pytest.raises(ResourceBudgetError):
        table.rho_vec(np.array([2.0, table.u_max + 1.0]))
    with pytest.raises(ValidationError):
        table.rho_vec(np.array([0.0, 2.0]))
    with pytest.raises(ValidationError):
        table.rho(math.nan)
    with pytest.raises(ValidationError):
        table.rho_vec(np.array([2.0, math.nan]))
    with pytest.raises(ValidationError):
        table.cdf_l1(0.0)
    with pytest.raises(ValidationError):
        table.cdf_l1(1.5)
    with pytest.raises(ValidationError):
        dickman.RhoTable(u_max=1)


def test_csv_dump(tmp_path, table):
    import csv

    path = tmp_path / "rho.csv"
    table.dump_csv(path, step=0.5)
    rows = list(csv.DictReader(open(path)))
    # one vectorized pass writes what a call per row gives; the grid is exact
    assert [r["rho"] for r in rows] == [f"{table.rho(float(r['u'])):.12e}" for r in rows]
    rows = {float(r["u"]): float(r["rho"]) for r in rows}
    assert len(rows) == 2 * table.u_max
    assert rows[1.0] == 1.0
    assert rows[2.0] == pytest.approx(1.0 - math.log(2.0), abs=1e-10)


def test_rho_vec_is_the_panel_series_bit_for_bit():
    table = dickman.RhoTable(u_max=12)
    rng = np.random.Generator(np.random.Philox(key=17))
    u = np.concatenate(
        [rng.uniform(0.01, 12.0, 5000), [0.5, 1.0, 2.0, 3.0, 11.0, 12.0, np.nextafter(1.0, 2.0)]]
    )
    rng.shuffle(u)
    table.rho(12.0)  # builds every panel, so the loop below reads built ones
    want = np.ones_like(u)
    for i, v in enumerate(u):
        if v > 1:
            want[i] = table._panels[min(int(v), table.u_max - 1) - 1](v)
    got = table.rho_vec(u)
    assert got.tobytes() == want.tobytes()
    # chunking and shape do not move a bit
    assert table.rho_vec(u[:5005].reshape(-1, 7)).tobytes() == want[:5005].tobytes()
    assert table.rho_vec(u[::-1])[::-1].tobytes() == want.tobytes()


def test_rho_vec_chunks_agree(monkeypatch):
    table = dickman.RhoTable(u_max=6)
    u = np.linspace(0.5, 6.0, 3001)
    want = table.rho_vec(u)
    monkeypatch.setattr(dickman, "RHO_CHUNK", 7)
    assert table.rho_vec(u).tobytes() == want.tobytes()


def test_mean_l1_is_the_golomb_dickman_constant(table):
    assert abs(table.mean_l1() - 0.62432998854355087099293638310083724417964262018) <= 1e-14


def test_panel_build_raises_without_convergence(monkeypatch):
    monkeypatch.setattr(dickman, "MAX_FIXED_POINT_ITERATIONS", 3)
    table = dickman.RhoTable(u_max=4)  # panels are built on first use
    with pytest.raises(AssertionError, match="did not converge"):
        table.rho(3.5)


def test_panels_are_built_on_demand_in_order():
    table = dickman.RhoTable()
    assert not table._panels
    table.rho(2.0)
    assert len(table._panels) == 2
    for u_max in (20, 100):
        # one table queried u by u, one by rho_vec alone, one at u_max first
        stepped, vec, whole = (dickman.RhoTable(u_max=u_max) for _ in range(3))
        u = np.linspace(0.01, u_max, 20 * u_max + 1)
        whole.rho(float(u_max))
        assert len(whole._panels) == u_max - 1
        want = whole.rho_vec(u)
        got = np.array([stepped.rho(float(v)) for v in u])
        assert got.tobytes() == want.tobytes()
        assert vec.rho_vec(u).tobytes() == want.tobytes()
        for t in (stepped, vec):
            assert len(t._panels) == u_max - 1
            for built, ref in zip(t._panels, whole._panels, strict=True):
                assert built.coef.tobytes() == ref.coef.tobytes()
