import math

import numpy as np
import pytest

from nlgeom import anisotropy, cli, kernels


@pytest.fixture(scope="module")
def ball_aniso():
    return anisotropy.Anisotropy(kernels.ball_indicator(2))


def test_sigma_closed_form(ball_aniso):
    # half the |z1| mass of the unit disk: (1/2) * 4/3
    assert ball_aniso.value([1.0, 0.0]) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert ball_aniso.value([0.0, 0.0]) == 0.0


def test_sigma_homogeneous_and_even(ball_aniso):
    p = np.array([0.3, -0.4])
    assert ball_aniso.value(3.5 * p) == pytest.approx(3.5 * ball_aniso.value(p), rel=1e-12)
    assert ball_aniso.value(-p) == ball_aniso.value(p)


def test_sigma_radial_spread(ball_aniso):
    vals = [
        ball_aniso.value([math.cos(a), math.sin(a)])
        for a in np.linspace(0, 2 * math.pi, 32, endpoint=False)
    ]
    assert np.ptp(vals) < 1e-6


def test_sigma_is_coefficient_times_norm(ball_aniso):
    rng = np.random.default_rng(7)
    c = ball_aniso.coef
    for p in rng.standard_normal((1000, 2)) * rng.uniform(0.1, 10.0, (1000, 1)):
        norm = float(np.linalg.norm(p))
        assert ball_aniso.value(p) == c * norm


def test_fractional_sigma_closed_form():
    an = anisotropy.Anisotropy(kernels.fractional(2, 0.5, 1.0))
    # (1/2) * 4 * int_0^1 r^2 r^{-2.5} dr = 2 * 2
    assert an.value([0.0, 1.0]) == pytest.approx(4.0, rel=1e-12)


def test_sigma_rejects_untruncated():
    # the kernel's one truncation check, in its effective radius
    with pytest.raises(kernels.KernelDomainError, match="untruncated"):
        anisotropy.Anisotropy(kernels.fractional(2, 0.5, math.inf))


def test_triangle_inequality(ball_aniso):
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        assert ball_aniso.value(a + b) <= ball_aniso.value(a) + ball_aniso.value(b) + 1e-12



# ---------------------------------------------------------------------------
# cell formula experiment through the CLI (kept small here; the shipped
# halfspace-cell config runs the full-resolution version)


def run_cell(tmp_path, direction="1 0", eps="0.2 0.1", competitors=1, resolution=128,
             seed=0):
    """(report, rows of halfspace_cell.csv) of a small halfspace-cell run."""
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / "halfspace-cell.cfg"
    cfg.write_text(
        f"experiment halfspace-cell\neps {eps}\nseed {seed}\ncompetitors {competitors}\n"
        f"kernel {{\n  family ball\n}}\ngeometry {{\n  direction {direction}\n"
        f"  resolution {resolution}\n}}\n", encoding="utf-8")
    report, out = cli.run(cfg, tmp_path / "out")
    rows = (out / "halfspace_cell.csv").read_text(encoding="utf-8").splitlines()[1:]
    return report, [row.split(",") for row in rows]


@pytest.mark.slow
def test_halfspace_cell_small(tmp_path):
    report, rows = run_cell(tmp_path, competitors=2, resolution=192, seed=3)
    assert report.rows[-1].reference == pytest.approx(2.0 / 3.0, rel=1e-12)
    gap, beats = report.checks
    assert gap.passed and report.rows[-1].rel_gap < 0.05
    # amplitudes shrink with eps, so every competitor converges in L^1
    assert beats.passed and beats.detail == "accepted=2"
    assert len(rows) == 2 * 3


def test_halfspace_cell_rejects_nonvanishing_perturbation(tmp_path, monkeypatch):
    # competitors whose amplitude does not shrink with eps
    monkeypatch.setattr(cli, "COMPETITOR_SHRINK", 0.0)
    report, rows = run_cell(tmp_path, seed=5)
    detail = report.checks[1].detail
    assert detail.startswith("accepted=0 rejected: sin")
    assert "does not vanish" in detail
    assert [row[1] for row in rows] == ["halfspace", "halfspace"]


def test_halfspace_cell_direction_symmetry(tmp_path):
    r1, _ = run_cell(tmp_path / "x", direction="1 0", eps="0.2", resolution=160)
    r2, _ = run_cell(tmp_path / "y", direction="0 1", eps="0.2", resolution=160)
    a, b = r1.rows[0].measured, r2.rows[0].measured
    assert abs(a - b) / a < 1e-2  # lattice symmetry only approximate off-axis
