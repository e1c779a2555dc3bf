import math

import numpy as np
import pytest

from nlgeom import anisotropy, cli, kernels
from nlgeom.anisotropy import AnisotropyDomainError


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
        assert np.array_equal(ball_aniso.gradient(p), c * (p / norm))


def test_fractional_sigma_closed_form():
    an = anisotropy.Anisotropy(kernels.fractional(2, 0.5, 1.0))
    # (1/2) * 4 * int_0^1 r^2 r^{-2.5} dr = 2 * 2
    assert an.value([0.0, 1.0]) == pytest.approx(4.0, rel=1e-12)


def test_sigma_rejects_untruncated():
    with pytest.raises(AnisotropyDomainError):
        anisotropy.Anisotropy(kernels.fractional(2, 0.5, math.inf))


def test_gradient_halfdisk_moment(ball_aniso):
    g = ball_aniso.gradient([1.0, 0.0])
    assert np.allclose(g, [2.0 / 3.0, 0.0], atol=1e-12)


def test_gradient_euler_identity_exact(ball_aniso):
    p = np.array([0.6, 0.8])
    g = ball_aniso.gradient(p)
    assert p @ g == pytest.approx(ball_aniso.value(p), abs=1e-15)


def test_gradient_odd(ball_aniso):
    p = np.array([-1.3, 0.45])
    assert np.allclose(ball_aniso.gradient(-p), -ball_aniso.gradient(p), atol=1e-14)


def test_gradient_matches_finite_difference(ball_aniso):
    p = np.array([0.6, 0.8])
    step = 1e-4
    fd = np.array(
        [
            (ball_aniso.value(p + step * e) - ball_aniso.value(p - step * e)) / (2 * step)
            for e in np.eye(2)
        ]
    )
    g = ball_aniso.gradient(p)
    assert np.abs(fd - g).max() / np.abs(g).max() < 1e-4


def test_gradient_rejects_zero(ball_aniso):
    with pytest.raises(AnisotropyDomainError):
        ball_aniso.gradient([0.0, 0.0])
    with pytest.raises(AnisotropyDomainError):
        ball_aniso.hessian(np.zeros(2))


def test_hessian_structure(ball_aniso):
    H = ball_aniso.hessian([1.0, 0.0])
    assert np.allclose(H, np.array([[0, 0], [0, 2.0 / 3.0]]), atol=1e-10)
    p = np.array([0.37, -1.2])
    Hp = ball_aniso.hessian(p)
    assert np.abs(Hp @ p).max() < 1e-8
    assert np.allclose(Hp, Hp.T)
    evals = np.linalg.eigvalsh(Hp)
    assert evals.min() > -1e-12


def test_hessian_matches_second_differences(ball_aniso):
    q = np.array([1.0, 1.0]) / math.sqrt(2)
    step = 1e-4
    fd = np.empty((2, 2))
    for i, ei in enumerate(np.eye(2)):
        for j, ej in enumerate(np.eye(2)):
            fd[i, j] = (
                ball_aniso.value(q + step * (ei + ej))
                - ball_aniso.value(q + step * (ei - ej))
                - ball_aniso.value(q - step * (ei - ej))
                + ball_aniso.value(q - step * (ei + ej))
            ) / (4 * step**2)
    H = ball_aniso.hessian(q)
    assert np.abs(fd - H).max() / np.abs(H).max() < 1e-3


def test_hessian_trace_is_hyperplane_moment(ball_aniso):
    e = np.array([math.cos(0.3), math.sin(0.3)])
    H = ball_aniso.hessian(e)
    kappa = kernels.hyperplane_second_moment(ball_aniso.kernel)
    assert np.trace(H) == pytest.approx(kappa, rel=1e-10)


def test_triangle_inequality(ball_aniso):
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        assert ball_aniso.value(a + b) <= ball_aniso.value(a) + ball_aniso.value(b) + 1e-12


def test_hessian_continuity_in_direction(ball_aniso):
    e = np.array([1.0, 0.0])
    base = ball_aniso.hessian(e)
    prev = None
    for ang in (0.1, 0.01, 0.001):
        r = np.array([math.cos(ang), math.sin(ang)])
        gap = np.abs(ball_aniso.hessian(r) - base).max()
        if prev is not None:
            assert gap < prev
        prev = gap
    assert prev < 1e-3


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
