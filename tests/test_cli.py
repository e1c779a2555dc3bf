"""Config parsing, rate fitting, artifact determinism, exit codes and the
import budget."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlgeom import DomainError, cli, energy, flow, kernels
from nlgeom.fields import FieldDomainError
from nlgeom.flow import FlowDomainError
from nlgeom.kernels import KernelDomainError
from nlgeom.rate import RateDomainError
from nlgeom.cli import (
    CliDomainError,
    ConfigParseError,
    ConfigValueError,
    ExperimentConfig,
    ReportRow,
    UsageError,
    fit_rate,
    parse_config,
    write_csv,
)

CONFIG_DIR = Path(__file__).parents[1] / "configs"


def run_text(tmp_path, text, out_name="out", workers=1):
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(text, encoding="utf-8")
    return cli.run(cfg, tmp_path / out_name, workers=workers)


COAREA_CFG = """
experiment coarea
levels 16
kernel {
  family ball
  radius 0.25
}
geometry {
  field ramp
  halfwidth 1.0
  resolution 48
}
"""


# ---------------------------------------------------------------------------
# config syntax


def test_parse_nested_blocks_and_comments():
    root = parse_config(
        """
        # a comment
        experiment coarea
        eps 0.4 0.2   # trailing comment
        kernel {
          family ball
          radius 0.25
        }
        """
    )
    assert root.str_("experiment") == "coarea"
    assert root.float_("eps", n=None) == (0.4, 0.2)
    assert root.block("kernel").str_("family") == "ball"
    assert root.block("kernel").float_("radius") == 0.25


def test_parse_reports_line_of_unclosed_block():
    with pytest.raises(ConfigParseError) as err:
        parse_config("experiment coarea\nkernel {\n  family ball\n")
    assert err.value.line == 2
    assert "never closed" in str(err.value)


def test_parse_reports_line_of_stray_brace():
    with pytest.raises(ConfigParseError) as err:
        parse_config("experiment coarea\n}\n")
    assert err.value.line == 2


def test_parse_rejects_duplicate_keys_with_both_lines():
    with pytest.raises(ConfigParseError) as err:
        parse_config("seed 1\nexperiment coarea\nseed 2\n")
    assert err.value.line == 3
    assert "line 1" in str(err.value)


def test_parse_rejects_inline_braces():
    with pytest.raises(ConfigParseError):
        parse_config("kernel { family ball }\n")
    with pytest.raises(ConfigParseError):
        parse_config("kernel block {\n}\n")


def test_typed_getters_cite_line_numbers():
    root = parse_config("kernel {\n  radius fat\n}\n")
    with pytest.raises(ConfigValueError, match="line 2"):
        root.block("kernel").float_("radius")
    with pytest.raises(ConfigValueError, match="should be a block"):
        parse_config("kernel ball\n").block("kernel")


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_empty_eps_list():
    with pytest.raises(ConfigValueError, match="empty"):
        ExperimentConfig.from_text("experiment bbm-1d\neps\n")


def test_config_rejects_unsorted_or_negative_eps():
    with pytest.raises(ConfigValueError, match="decreasing"):
        ExperimentConfig.from_text("experiment bbm-1d\neps 0.1 0.2\n")
    with pytest.raises(ConfigValueError, match="positive"):
        ExperimentConfig.from_text("experiment bbm-1d\neps 0.1 -0.2\n")


def test_config_rejects_unknown_experiment():
    with pytest.raises(UsageError, match="unknown experiment"):
        ExperimentConfig.from_text("experiment warp-drive\n")


def test_config_requires_referenced_blocks(tmp_path):
    with pytest.raises(ConfigValueError, match="'kernel' block"):
        run_text(tmp_path, "experiment perimeter-limit\neps 0.4 0.2\n")


def test_config_requires_eps_where_swept(tmp_path):
    text = "experiment perimeter-limit\nkernel {\n family ball\n}\n" \
           "geometry {\n shape disk\n radius 0.5\n}\n"
    with pytest.raises(ConfigValueError, match="'eps' list"):
        run_text(tmp_path, text)


def test_config_rejects_negative_seed():
    with pytest.raises(ConfigValueError, match="seed"):
        ExperimentConfig.from_text("experiment submodularity\nseed -3\n")


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_configs_are_read_whole_before_any_numerics(path):
    # the cheap total check: each body stops at its bare yield, before any
    # numerics, having read every key of its config
    cfg = ExperimentConfig.from_text(path.read_text(encoding="utf-8"))
    assert next(cli.EXPERIMENTS[cfg.experiment].body(cfg)) is None
    assert list(cfg.root.unread()) == []


# ---------------------------------------------------------------------------
# rate fitting


def gap_rows(pairs):
    """Report rows carrying only (key, abs_gap), the columns a fit reads."""
    return [ReportRow(e, 0.0, 0.0, gap, 0.0) for e, gap in pairs]


def test_fit_rate_linear_gaps_slope_one():
    fit = fit_rate(gap_rows((e, 3.7 * e) for e in (0.4, 0.2, 0.1, 0.05)))
    assert abs(fit.slope - 1.0) < 1e-10
    assert fit.band95 < 1e-9
    assert fit.points == 4


def test_fit_rate_quadratic_gaps_slope_two():
    rows = gap_rows((e, 0.9 * e * e) for e in (0.4, 0.2, 0.1))
    assert abs(fit_rate(rows).slope - 2.0) < 1e-10


def test_fit_rate_undefined_on_nonpositive_gap():
    assert fit_rate(gap_rows([(0.4, 1.0), (0.2, 0.0), (0.1, 0.1)])) is None
    assert fit_rate(gap_rows([(0.4, 1.0), (0.2, -0.5), (0.1, 0.1)])) is None


def test_fit_rate_needs_three_rows():
    with pytest.raises(CliDomainError):
        fit_rate(gap_rows([(0.4, 1.0), (0.2, 0.5)]))


def test_fit_rate_accepts_full_report_rows():
    rows = [ReportRow(e, 1.0, 1.0, 2.0 * e, 0.0) for e in (0.4, 0.2, 0.1)]
    assert abs(fit_rate(rows).slope - 1.0) < 1e-10


def test_fit_rate_band_uses_student_t_quantile():
    # three points: one degree of freedom, t_{0.975} = 12.7062047361747
    rows = gap_rows([(0.4, 1.0), (0.2, 0.6), (0.1, 0.2)])
    x = np.log([0.4, 0.2, 0.1])
    y = np.log([1.0, 0.6, 0.2])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    se = math.sqrt(float(np.sum(resid**2)) / float(np.sum((x - x.mean()) ** 2)))
    assert fit_rate(rows).band95 == pytest.approx(12.7062047361747 * se, rel=1e-12)


def test_t_quantile_matches_scipy_stdtrit():
    from scipy import special

    for nu in range(1, 201):
        ref = float(special.stdtrit(nu, 0.975))
        assert abs(cli._t_quantile_975(nu) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("slope, band, marked", [
    (1.21, 2.49, True),
    (-1.9, 5.67, True),
    (2.0, 2.0, True),
    (0.99994, 6.0e-5, False),
    (-2.0, 1.99, False),
])
def test_summary_marks_uninformative_rate(slope, band, marked):
    report = cli.ExperimentReport("perimeter-limit", 0, "eps", (),
                                  cli.RateFit(slope, band, 4), "", ())
    lines = cli.summary_text(report).splitlines()
    rate = f"rate: slope={slope:.6g} band95={band:.4g} points=4"
    assert lines[3] == rate + (" uninformative" if marked else "")


def fresh_python(*args, check=True):
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=check, timeout=300)


# ---------------------------------------------------------------------------
# CSV format


def test_csv_seventeen_significant_digits(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1.0 / 3.0, "note"), (2, 0.1)])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0.33333333333333331,note"
    assert lines[2] == "2,0.10000000000000001"


# ---------------------------------------------------------------------------
# end-to-end runs


def test_perimeter_preset_four_rows_and_rate(tmp_path):
    report, out = cli.run(CONFIG_DIR / "perimeter-limit.cfg", tmp_path / "out")
    assert report.passed
    assert len(report.rows) == 4
    assert report.rate is not None
    # empirical decay exponent of the gap sequence; the tail sits near the
    # floor of the stencil's 64-direction angular quadrature (refining the
    # grid does not lower it), so the slope lands well below the clean 2.0
    assert 0.5 < report.rate.slope < 2.0
    rows = (out / "perimeter_limit.csv").read_text().splitlines()
    assert rows[0] == "eps,J1,J2,total,limit_value,abs_gap,rel_gap"
    assert len(rows) == 5


def test_effective_kernel_mass_check_fails_on_a_1e9_mass_error(tmp_path, monkeypatch):
    # the mass rules miss at most ~1e-13 relative, so a profile scaled by
    # 1 + 1e-9 must fail the check
    radial = kernels.custom_radial
    monkeypatch.setattr(kernels, "custom_radial", lambda profile, **kw: radial(
        lambda r: (1.0 + 1e-9) * profile(r), **kw))
    report, _ = cli.run(CONFIG_DIR / "effective-kernel.cfg", tmp_path / "out")
    assert [c.passed for c in report.checks] == [True, False, True, False]
    assert "averaging preserves the kernel mass" in report.checks[1].label


def test_sigma_derivatives_preset_holds_its_first_order_bound(tmp_path):
    report, out = cli.run(CONFIG_DIR / "sigma-derivatives.cfg", tmp_path / "out")
    assert report.passed and len(report.checks) == 3
    # max over 8 directions of |sigma_h / (eps kappa) - 1| at h = 2.5/384
    gaps = [r.rel_gap for r in report.rows]
    assert [r.key for r in report.rows] == [0.2, 0.1, 0.05]
    assert np.allclose(gaps, [8.088e-4, 1.611e-3, 2.963e-3], rtol=1e-3)
    rows = (out / "sigma_derivatives.csv").read_text().splitlines()
    assert rows[0] == "eps,direction_angle,sigma_lattice,sigma_continuum,rel_err"
    assert len(rows) == 1 + 3 * 8


def test_sigma_derivatives_fails_without_the_outermost_ring(tmp_path, monkeypatch):
    # the stencil less its offsets of largest |o| misses sigma by 1.6e-2 to
    # 1.9e-2, beyond the bound 0.1 h / (eps r_eff) at every eps
    stencil = energy._stencil

    def without_ring(kernel, grid):
        offsets, weights = stencil(kernel, grid)
        r2 = np.sum(offsets * offsets, axis=1)
        keep = r2 < r2.max()
        return offsets[keep], weights[keep]

    monkeypatch.setattr(energy, "_stencil", without_ring)
    report, _ = cli.run(CONFIG_DIR / "sigma-derivatives.cfg", tmp_path / "out")
    assert [c.passed for c in report.checks] == [False, False, False]
    assert np.allclose([r.rel_gap for r in report.rows], [1.584e-2, 1.694e-2, 1.881e-2],
                       rtol=1e-3)


def test_same_seed_reruns_are_byte_identical(tmp_path):
    _, out1 = cli.run(CONFIG_DIR / "effective-kernel.cfg", tmp_path / "a")
    _, out2 = cli.run(CONFIG_DIR / "effective-kernel.cfg", tmp_path / "b")
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1 == sorted(p.name for p in out2.iterdir())
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def small_flow_config(tmp_path):
    """flow-monitors at three eps, two steps of dt each."""
    cfg = tmp_path / "flow-monitors.cfg"
    cfg.write_text("experiment flow-monitors\neps 0.2 0.1 0.05\n" + BALL + FLOW_STEPS,
                   encoding="utf-8")
    return cfg


def assert_same_artifacts(out1, out2):
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir()) and "report.csv" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_worker_count_does_not_change_artifacts(tmp_path, monkeypatch):
    counts = []
    parallel_map = cli._parallel_map

    def counting_map(fn, items, workers):
        counts.append(workers)
        return parallel_map(fn, items, workers)

    monkeypatch.setattr(cli, "_parallel_map", counting_map)
    cfg = small_flow_config(tmp_path)
    _, out1 = cli.run(cfg, tmp_path / "1", workers=1)
    counts.clear()
    _, out2 = cli.run(cfg, tmp_path / "2", workers=2)
    assert counts == [2]  # the sweep reached the thread pool
    assert_same_artifacts(out1, out2)


def _csv_columns(path):
    """Header name -> column of floats parsed from the .17g cells."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return dict(zip(header.split(","), zip(*(map(float, r.split(",")) for r in rows))))


def test_flow_monitors_summarize_the_trajectory_files(tmp_path):
    # monitors.csv and the nonlocal trajectory files come from one run per
    # eps, so each summary value is the trajectory column's, bit for bit
    _, out = cli.run(small_flow_config(tmp_path), tmp_path / "out")
    monitors = _csv_columns(out / "monitors.csv")
    assert monitors["eps"] == (0.2, 0.1, 0.05)
    for e, ratio, holder in zip(*monitors.values()):
        traj = _csv_columns(out / f"trajectory_nonlocal_eps{e:g}.csv")
        lips = traj["max_lipschitz"]
        assert len(lips) == 3
        assert ratio == max(lips) / lips[0]
        assert holder == max(traj["holder_stat"])


# eps sweeps whose threads were measured not to help, cut to test size
PLAIN_SWEEPS = {
    "perimeter-limit": """
    experiment perimeter-limit
    eps 0.4 0.2
    kernel {
      family ball
    }
    geometry {
      radius 0.5
      resolution 48
    }
    """,
    "halfspace-cell": """
    experiment halfspace-cell
    eps 0.2 0.1 0.05
    seed 3
    competitors 3
    kernel {
      family ball
    }
    geometry {
      direction 0.6 0.8
      resolution 64
    }
    """,
    "curvature-limit": """
    experiment curvature-limit
    eps 0.4 0.2 0.1
    boundary_samples 3
    kernel {
      family fractional
      sigma 0.5
      radius 1.0
    }
    geometry {
      shape disk
      radius 0.5
    }
    """,
    "bbm-slice": """
    experiment bbm-slice
    eps 0.4
    kernel {
      family ball
    }
    geometry {
      resolution 24
    }
    """,
    "regularity": """
    experiment regularity
    eps 0.2 0.1
    angular 8
    kernel {
      family ball
    }
    geometry {
      field bump
      resolution 32
    }
    """,
}


def test_only_the_flow_sweeps_reach_the_thread_pool(tmp_path, monkeypatch):
    def no_pool(fn, items, workers):
        raise AssertionError("the sweep reached the thread pool")

    monkeypatch.setattr(cli, "_parallel_map", no_pool)
    cfgs = [CONFIG_DIR / "bbm-1d.cfg"]
    for name, text in PLAIN_SWEEPS.items():
        cfgs.append(tmp_path / f"{name}.cfg")
        cfgs[-1].write_text(text, encoding="utf-8")
    for cfg in cfgs:
        cli.run(cfg, tmp_path / cfg.stem, workers=2)


def test_worker_count_does_not_change_artifacts_in_fresh_processes(tmp_path):
    # two steps are too few for the radius gaps to order by eps, so the run
    # may exit 1; either way both worker counts must agree
    cfg = str(small_flow_config(tmp_path))
    codes = [fresh_python("-m", "nlgeom.cli", "run", cfg, "--out", str(tmp_path / n),
                          "--workers", n, check=False).returncode for n in ("1", "2")]
    assert codes[0] == codes[1] and codes[0] in (0, 1)
    assert_same_artifacts(tmp_path / "1", tmp_path / "2")


def test_coarea_run_writes_report_and_summary(tmp_path):
    report, out = run_text(tmp_path, COAREA_CFG)
    assert report.passed
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert summary.count("PASS") == 2  # one check line + the result line
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "levels,measured,reference,abs_gap,rel_gap"


def test_single_point_sweep_skips_rate(tmp_path):
    text = """
    experiment bbm-1d
    eps 0.05
    """
    report, _ = run_text(tmp_path, text)
    assert report.rate is None
    assert "fewer than 3" in report.rate_note


CURVATURE_CFG = """
experiment curvature-limit
eps 0.4 0.2
boundary_samples 4
kernel {
  family fractional
  sigma 0.5
  radius 1.0
}
geometry {
  shape disk
  radius 0.5
}
"""


def test_curvature_samples_carry_error_and_divergence(tmp_path):
    report, out = run_text(tmp_path, CURVATURE_CFG)
    header, *rows = (out / "curvature_samples.csv").read_text(encoding="utf-8").splitlines()
    assert header == "eps,sample_index,x,y,hk_over_eps,h0,abs_err,hk_over_eps_err,diverged"
    assert len(rows) == 8
    for row in rows:
        cells = row.split(",")
        assert 0.0 < float(cells[7]) < math.inf
        assert cells[8] == "0"


def test_run_rejects_bad_worker_count(tmp_path):
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(COAREA_CFG, encoding="utf-8")
    with pytest.raises(UsageError):
        cli.run(cfg, tmp_path / "out", workers=0)


# ---------------------------------------------------------------------------
# command-line entry point


def test_main_list_prints_registry(capsys):
    assert cli.main(["--list"]) == 0
    names = capsys.readouterr().out.split()
    assert len(names) == 11
    assert "flow-monitors" in names and "perimeter-limit" in names


def test_main_without_command_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_main_runs_and_reports(tmp_path, capsys):
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(COAREA_CFG, encoding="utf-8")
    code = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out


def test_main_maps_failed_check_to_exit_one(tmp_path, capsys):
    # one level misses the total variation by far more than 2%
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(COAREA_CFG.replace("levels 16", "levels 1"), encoding="utf-8")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_main_maps_config_problems_to_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment coarea\nkernel {\n", encoding="utf-8")
    assert cli.main(["run", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 2


UNREADABLE_CASES = {
    "config-is-a-directory": lambda d: ["run", str(d)],
    "config-not-utf8": lambda d: ["run", str(d / "latin1.cfg")],
    "out-is-a-file": lambda d: ["run", str(d / "ok.cfg"), "--out", str(d / "ok.cfg")],
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_CASES))
def test_main_maps_unreadable_input_to_exit_two(tmp_path, capsys, case):
    # exit 1 is kept for a failed check: input the run cannot read or write is 2
    (tmp_path / "ok.cfg").write_text(COAREA_CFG, encoding="utf-8")
    (tmp_path / "latin1.cfg").write_bytes(COAREA_CFG.encode() + b"# caf\xe9\n")
    assert cli.main(UNREADABLE_CASES[case](tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("nlgeom: error: ") and err.count("\n") == 1


def test_out_that_is_a_file_exits_two_before_any_numerics(tmp_path, capsys, monkeypatch):
    from nlgeom import energy

    def computed(*args, **kwargs):
        raise AssertionError("the experiment computed before its output directory was made")

    monkeypatch.setattr(energy, "coarea_check", computed)
    (tmp_path / "ok.cfg").write_text(COAREA_CFG, encoding="utf-8")
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert cli.main(["run", str(tmp_path / "ok.cfg"), "--out", str(taken)]) == 2
    assert "cannot make the output directory" in capsys.readouterr().err


def test_main_field_snapshot_round_trips(tmp_path):
    # the flow experiments store final fields in the grid file format; a
    # tiny run checks the files reload exactly
    from nlgeom.fields import load_field

    text = """
    experiment flow-monitors
    eps 0.2
    kernel {
      family ball
      d 2
    }
    geometry {
      radius 0.4
      band 0.28
      halfwidth 1.0
      resolution 32
    }
    flow {
      T 0.02
      snapshots 2
    }
    """
    report, out = run_text(tmp_path, text)
    snap = load_field(out / "final_nonlocal_eps0.2.field")
    assert snap.values.shape == (32, 32)
    traj = (out / "trajectory_local.csv").read_text().splitlines()
    assert traj[0] == "t,zero_level_area,max_lipschitz,holder_stat"


# ---------------------------------------------------------------------------
# counts below 1 and library domain errors are config problems

BALL = "kernel {\n  family ball\n}\n"
FLOW_GEOMETRY = "geometry {\n  radius 0.4\n  resolution 32\n}\n"

COUNT_CASES = {
    "sigma-derivatives-directions":
        "experiment sigma-derivatives\neps 0.2\ndirections 0\n" + BALL,
    "halfspace-cell-competitors":
        "experiment halfspace-cell\neps 0.2\ncompetitors 0\n" + BALL,
    "curvature-limit-boundary_samples": "experiment curvature-limit\neps 0.2\n"
    "boundary_samples 0\n" + BALL + "geometry {\n  radius 0.5\n}\n",
    "coarea-levels": COAREA_CFG.replace("levels 16", "levels 0"),
    "submodularity-pairs": "experiment submodularity\npairs 0\n" + BALL,
    "submodularity-pairs-negative": "experiment submodularity\npairs -5\n" + BALL,
    "bbm-1d-samples": "experiment bbm-1d\neps 0.05\nprofile {\n  samples 0\n}\n",
    "effective-kernel-samples": "experiment effective-kernel\nsamples 0\n" + BALL,
    "effective-kernel-dims": "experiment effective-kernel\ndims\n" + BALL,
    "flow-monitors-snapshots": "experiment flow-monitors\neps 0.2\n" + BALL
    + FLOW_GEOMETRY + "flow {\n  snapshots 0\n}\n",
    "regularity-angular": "experiment regularity\neps 0.1\nangular 0\n" + BALL,
}


def _main_exit_and_stderr(tmp_path, capsys, text):
    cfg = tmp_path / "main.cfg"
    cfg.write_text(text, encoding="utf-8")
    code = cli.main(["run", str(cfg), "--out", str(tmp_path / "main_out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_count_keys_below_one_are_config_errors(tmp_path, capsys, case):
    text = COUNT_CASES[case]
    with pytest.raises(ConfigValueError, match=r"line \d+: key .* at least"):
        run_text(tmp_path, text)
    code, err = _main_exit_and_stderr(tmp_path, capsys, text)
    assert code == 2 and err.count("nlgeom: error:") == 1


DOMAIN_CASES = {
    "field": (FieldDomainError, COAREA_CFG.replace("resolution 48", "resolution 0")),
    "rate": (RateDomainError,
             "experiment bbm-1d\neps 0.05\nprofile {\n  samples 2\n}\n"),
    "kernel": (KernelDomainError, "experiment sigma-derivatives\neps 0.2\n"
               "kernel {\n  family ball\n  radius -1\n}\n"),
    # the stencil drops a singular kernel's mass inside the central cell
    "kernel-singular": (KernelDomainError, "experiment sigma-derivatives\neps 0.2\n"
                        "kernel {\n  family fractional\n}\n"),
    "flow": (FlowDomainError, "experiment flow-monitors\neps 0.2\n" + BALL
             + "geometry {\n  radius 0.4\n  band 0.1\n  resolution 32\n}\n"),
    # a second moment that underflows to 0, which the end time divides by
    "flow-kappa": (KernelDomainError, "experiment flow-monitors\neps 0.2\n"
                   "kernel {\n  family ball\n  radius 1e-120\n}\n" + FLOW_GEOMETRY),
}


@pytest.mark.parametrize("case", sorted(DOMAIN_CASES))
def test_main_maps_library_domain_errors_to_exit_two(tmp_path, capsys, case):
    error, text = DOMAIN_CASES[case]
    with pytest.raises(error):
        run_text(tmp_path, text)
    code, err = _main_exit_and_stderr(tmp_path, capsys, text)
    assert code == 2 and err.count("nlgeom: error:") == 1


# every experiment that reads a kernel block, its kernel swapped for one
# without a finite radius: the untruncated power law, whose first moment
# is infinite, and a NaN radius
KERNEL_EXPERIMENTS = sorted(
    path.stem for path in CONFIG_DIR.glob("*.cfg")
    if "kernel {" in path.read_text(encoding="utf-8"))
BAD_KERNELS = {
    "inf": ("fractional", "inf", "the kernel is untruncated; give it a finite radius"),
    "nan": ("ball", "nan", "need 0 <= r0 < r1"),
}


def _with_kernel(experiment, family, radius):
    """The shipped config of ``experiment``, its kernel block swapped."""
    return re.sub(r"kernel \{.*?\}", f"kernel {{\n  family {family}\n  radius {radius}\n}}",
                  (CONFIG_DIR / f"{experiment}.cfg").read_text(encoding="utf-8"),
                  flags=re.S)


@pytest.mark.parametrize("experiment", KERNEL_EXPERIMENTS)
@pytest.mark.parametrize("radius", sorted(BAD_KERNELS))
def test_kernel_without_a_finite_radius_exits_two(tmp_path, capsys, radius, experiment):
    family, value, reason = BAD_KERNELS[radius]
    text = _with_kernel(experiment, family, value)
    with pytest.raises(KernelDomainError, match=re.escape(reason)):
        run_text(tmp_path, text)
    code, err = _main_exit_and_stderr(tmp_path, capsys, text)
    assert code == 2 and err == f"nlgeom: error: {reason}\n"


# a ball of radius 1e-120: its radius lies below the z-grid's inner radius
# 1e-6, its hyperplane second moment (sigma's coefficient and h0's scale)
# underflows to 0, and at eps 0.1 it spans far less than half a grid cell;
# the experiments that reach any of these fail in one line
TINY_MOMENT = "the kernel's hyperplane second moment must be positive, got 0"
TINY_SUPPORT = "rescaled kernel support 1e-121 lies below half a grid cell"
TINY_KERNEL_REASONS = {
    "bbm-slice": TINY_SUPPORT,
    "coarea": "empty radial range [1e-06, 1e-120]",
    "curvature-limit": TINY_MOMENT,
    "halfspace-cell": TINY_MOMENT,
    "perimeter-limit": TINY_MOMENT,
    "regularity": TINY_SUPPORT,
    "sigma-derivatives": "rescaled kernel support 5e-122 lies below half a grid cell",
    "submodularity": "empty radial range [1e-06, 1e-120]",
}


@pytest.mark.parametrize("experiment", sorted(TINY_KERNEL_REASONS))
def test_kernel_below_the_quadrature_floor_exits_two(tmp_path, capsys, experiment):
    reason = TINY_KERNEL_REASONS[experiment]
    text = _with_kernel(experiment, "ball", "1e-120")
    with pytest.raises(DomainError, match=re.escape(reason)):
        run_text(tmp_path, text)
    code, err = _main_exit_and_stderr(tmp_path, capsys, text)
    assert code == 2 and err.startswith(f"nlgeom: error: {reason}")
    assert err.count("\n") == 1


# a NaN box side passes a "side <= 0" test, and the energy's transform
# length search then never ends; the box refuses it while the config is read
@pytest.mark.parametrize("experiment", ["coarea", "submodularity"])
def test_box_halfwidth_must_be_finite(tmp_path, capsys, experiment):
    text = (CONFIG_DIR / f"{experiment}.cfg").read_text(encoding="utf-8")
    text = text.replace("halfwidth 1.0", "halfwidth nan")
    assert "halfwidth nan" in text
    cfg = ExperimentConfig.from_text(text)
    with pytest.raises(FieldDomainError, match="must be finite"):
        next(cli.EXPERIMENTS[experiment].body(cfg))
    code, err = _main_exit_and_stderr(tmp_path, capsys, text)
    assert code == 2 and err == "nlgeom: error: box origin and side lengths must be finite\n"


# shipped-config edits from bench/config_probe.py that once ended in a
# traceback, ran on for seconds, wrote an all-NaN report or a vacuous FAIL,
# or printed numpy warnings before their error line, plus box sides
# so small that the kernel's reach spans billions of cells: (config, block,
# key, value), every value on the key's line replaced
PROBE_EDITS = [
    ("bbm-1d", None, "eps", "nan"),
    ("bbm-1d", "profile", "interval", "nan"),
    ("bbm-slice", None, "eps", "1e300"),
    ("effective-kernel", "kernel", "r1", "1e300"),
    ("perimeter-limit", "kernel", "radius", "1e300"),
    ("perimeter-limit", "geometry", "center", "nan"),
    ("perimeter-limit", "geometry", "center", "1e300"),
    ("perimeter-limit", "geometry", "radius", "nan"),
    ("perimeter-limit", "geometry", "radius", "1e300"),
    ("perimeter-limit", "geometry", "window_radius", "nan"),
    ("perimeter-limit", "geometry", "window_radius", "1e-300"),
    ("coarea", "kernel", "radius", "1e300"),
    ("coarea", "geometry", "halfwidth", "1e-300"),
    ("curvature-limit", "geometry", "center", "nan"),
    ("curvature-limit", "geometry", "radius", "nan"),
    ("curvature-limit", "kernel", "radius", "1e-300"),
    ("perimeter-limit", "geometry", "halfwidth", "1e-300"),
    ("submodularity", "kernel", "radius", "1e300"),
    ("submodularity", "geometry", "halfwidth", "1e-300"),
    ("coarea", "geometry", "halfwidth", "1e-9"),
    ("submodularity", "geometry", "halfwidth", "1e-9"),
    ("perimeter-limit", "geometry", "halfwidth", "1e-9"),
    ("curvature-limit", "geometry", "center", "1e300"),
    ("curvature-limit", "geometry", "radius", "1e300"),
    ("halfspace-cell", "geometry", "direction", "0"),
    ("halfspace-cell", "geometry", "direction", "nan"),
    ("halfspace-cell", "geometry", "direction", "1e-300"),
    ("halfspace-cell", "geometry", "direction", "1e300"),
]


def _with_value(experiment, block, key, value):
    """The shipped config of ``experiment``, each value of ``key`` in
    ``block`` (None: the top level) replaced by ``value``."""
    lines = (CONFIG_DIR / f"{experiment}.cfg").read_text(encoding="utf-8").splitlines()
    current, hits = None, 0
    for i, line in enumerate(lines):
        words = line.split()
        if words[-1:] == ["{"]:
            current = words[0]
        elif words == ["}"]:
            current = None
        elif words[:1] == [key] and current == block:
            lines[i] = " ".join([key] + [value] * (len(words) - 1))
            hits += 1
    assert hits == 1
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("experiment, block, key, value", PROBE_EDITS,
                         ids=lambda v: str(v))
def test_probe_edits_exit_two(tmp_path, capsys, experiment, block, key, value):
    text = _with_value(experiment, block, key, value)
    code, err = _main_exit_and_stderr(tmp_path, capsys, text)
    assert code == 2 and err.startswith("nlgeom: error:") and err.count("\n") == 1


# a flow past the circle's extinction time r^2 / (2 kappa), 0.12 here, has
# no zero level to compare, and one that ends with the circle inside a grid
# cell (h = 0.0625 here) has none the grid resolves, so its end time fails
# before any numerics
@pytest.mark.parametrize("experiment", ["flow-monitors"])
@pytest.mark.parametrize("line, reason", [
    ("T 2.0", "T must lie in (0, 0.12)"),
    ("T 0.13", "T must lie in (0, 0.12)"),
    ("T 0", "T must lie in (0, 0.12)"),
    ("stop_fraction 1", "stop_fraction must lie in (0, 1)"),
    ("T 0.12", "the circle's local radius at T is 7.45e-09, below one grid cell (0.0625)"),
    ("stop_fraction 0.1", "the circle's local radius at T is 0.04, below one grid cell"),
])
def test_flow_end_time_lies_before_extinction(tmp_path, capsys, experiment, line, reason):
    text = (f"experiment {experiment}\neps 0.2\n" + BALL + FLOW_GEOMETRY
            + f"flow {{\n  {line}\n}}\n")
    code, err = _main_exit_and_stderr(tmp_path, capsys, text)
    assert code == 2 and err.startswith(f"nlgeom: error: {reason}")
    assert not (tmp_path / "main_out").exists()


CURVATURE_KERNEL_CFG = """
experiment curvature-limit
eps 0.2 0.1 0.05
boundary_samples 2
kernel {{
  family {family}
  {key} {value}
}}
geometry {{
  shape disk
  radius 0.5
}}
"""


# the curvature assumptions hold for these by the family alone, whatever
# the kernel's scale
@pytest.mark.parametrize("family, key, value", [
    ("ball", "radius", "0.05"),
    ("ball", "radius", "4"),
    ("fractional", "sigma", "0.9"),
    ("fractional", "radius", "0.3"),
    ("fractional", "radius", "5"),
])
def test_curvature_limit_passes_at_any_kernel_scale(tmp_path, family, key, value):
    text = CURVATURE_KERNEL_CFG.format(family=family, key=key, value=value)
    report, _ = run_text(tmp_path, text)
    assert report.passed and len(report.checks) == 2


@pytest.mark.parametrize("key, value, reason", [
    ("sigma", "0", "fractional kernel needs sigma in (0, 1), got sigma = 0"),
    ("radius", "inf", "the kernel is untruncated; give it a finite radius"),
])
def test_curvature_limit_rejects_a_kernel_in_one_line(tmp_path, capsys, key, value, reason):
    text = CURVATURE_KERNEL_CFG.format(family="fractional", key=key, value=value)
    code, err = _main_exit_and_stderr(tmp_path, capsys, text)
    assert code == 2 and err == f"nlgeom: error: {reason}\n"


# a key the experiment never reads fails the run before any numerics and
# any artifact: (config, line, key description)
UNREAD_CASES = {
    "top-level-misspelled": (COAREA_CFG.replace("levels 16", "levles 16"), 3, "key 'levles'"),
    "block-misspelled": (COAREA_CFG.replace("radius 0.25", "raduis 0.25"), 6,
                         "key 'raduis' in block 'kernel'"),
    "eps-not-swept": (COAREA_CFG + "eps 0.1\n", 13, "key 'eps'"),
    "seed-not-drawn": (COAREA_CFG + "seed 5\n", 13, "key 'seed'"),
    "block-not-read": (COAREA_CFG + "flow {\n  T 1\n}\n", 13, "key 'flow'"),
    "tolerance-not-checked": ("experiment sigma-derivatives\neps 0.2\ndirections 4\n"
                              "tolerance 0.1\n" + BALL, 4, "key 'tolerance'"),
    "amplitude": ("experiment sigma-derivatives\neps 0.2\ndirections 4\n"
                  "kernel {\n  family ball\n  amplitude 2\n}\n", 6,
                  "key 'amplitude' in block 'kernel'"),
    "flow-misspelled": ((CONFIG_DIR / "flow-monitors.cfg").read_text(encoding="utf-8")
                        .replace("  stop_fraction 0.3\n",
                                 "  stop_fraction 0.3\n  stop_fracton 0.5\n"), 20,
                        "key 'stop_fracton' in block 'flow'"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_CASES))
def test_unread_keys_fail_the_run_before_any_artifact(tmp_path, capsys, monkeypatch, case):
    # the check comes before any numerics: no case may reach a flow evolution
    def no_evolution(*args, **kwargs):
        raise AssertionError("flow.evolve ran before the unread-key check")

    monkeypatch.setattr(flow, "evolve", no_evolution)
    text, line, where = UNREAD_CASES[case]
    code, err = _main_exit_and_stderr(tmp_path, capsys, text)
    assert code == 2 and err.count("nlgeom: error:") == 1
    assert f"line {line}: {where} is not read by experiment" in err
    assert not (tmp_path / "main_out").exists()


# every config with a kernel block but effective-kernel, which takes 'dims'
PLANAR_CONFIGS = sorted(p.name for p in CONFIG_DIR.glob("*.cfg")
                        if p.stem not in ("bbm-1d", "effective-kernel"))


@pytest.mark.parametrize("name", PLANAR_CONFIGS)
def test_planar_configs_take_kernel_d_only_as_2(tmp_path, capsys, name):
    # 'd 3' fails at read time and names its line; a config that leaves d
    # out gets it as the kernel block's first key
    text = (CONFIG_DIR / name).read_text(encoding="utf-8")
    if "\n  d 2\n" in text:
        text = text.replace("\n  d 2\n", "\n  d 3\n")
    else:
        text = text.replace("kernel {\n", "kernel {\n  d 3\n")
    line = text.splitlines().index("  d 3") + 1
    code, err = _main_exit_and_stderr(tmp_path, capsys, text)
    assert code == 2 and err.count("nlgeom: error:") == 1
    assert f"line {line}: key 'd' in block 'kernel' is '3'; expected '2'" in err
    assert not (tmp_path / "main_out").exists()


def test_unsupported_words_name_their_line(tmp_path):
    text = "experiment bbm-1d\neps 0.05\npotential {\n  family soft-quartic\n}\n"
    with pytest.raises(ConfigValueError, match="line 4: key 'family' in block "
                       "'potential' is 'soft-quartic'; expected 'quadratic'"):
        run_text(tmp_path, text)


def test_run_subcommand_has_no_list_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--list"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# import budget: a run loads the layers its experiment calls, and no scipy
#
# Each probe runs small configs of one experiment family
# through ``cli.main`` in a fresh interpreter (earlier tests in this
# process have loaded every layer and scipy), then runs the family's
# library calls that no config reaches.  It reports the nlgeom and scipy
# modules in ``sys.modules`` and whether ``concurrent.futures``,
# ``numpy.random`` and ``hashlib`` were loaded.  Only a flow sweep of more
# than one eps reaches the thread pool, so the other families run with two
# workers and still leave it unloaded.  The seeded bodies draw from
# ``nlgeom.draws``, so no family loads ``numpy.random`` or the ``hashlib``
# it pulls in.

BUDGET_PROBE = """
import json, sys
from nlgeom import cli
out, workers, cfgs = sys.argv[1], sys.argv[2], sys.argv[3:]
codes = [cli.main(["run", c, "--out", f"{out}/{i}", "--workers", workers])
         for i, c in enumerate(cfgs)]
{extra}
print(json.dumps([codes,
                  sorted(m for m in sys.modules if m.split(".")[0] == "nlgeom"),
                  sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  [m in sys.modules
                   for m in ("concurrent.futures", "numpy.random", "hashlib")]]))
"""

ALWAYS_LOADED = {"nlgeom", "nlgeom.cli", "nlgeom.fields", "nlgeom.kernels"}


def test_cli_import_loads_no_scipy():
    probe = ("import sys, nlgeom.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert fresh_python("-c", probe).stdout.strip() == "[]"


def test_cli_list_loads_no_scipy():
    # ``-m`` runs nlgeom.cli as __main__, so the listing imports no layer
    # beyond the always-loaded ones and neither scipy nor concurrent.futures
    done = fresh_python("-X", "importtime", "-m", "nlgeom.cli", "--list")
    assert "coarea" in done.stdout.split()
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
    assert {m for m in imported if m.split(".")[0] == "nlgeom"} == ALWAYS_LOADED - {"nlgeom.cli"}
    assert not [m for m in imported if m.split(".")[0] in ("scipy", "concurrent")]

# two steps of dt: the nonlocal trajectory's snapshots sit at 0, dt and 2 dt
FLOW_STEPS = FLOW_GEOMETRY + "flow {\n  T 0.002\n  dt 0.001\n  snapshots 2\n}\n"

RATE_LIMIT_CALL = """
import numpy as np
from nlgeom import kernels, rate
from nlgeom.fields import Box, GridField
box = Box.cube(1.1, 24)
r2 = np.sum(box.centers() ** 2, axis=-1)
u = GridField(box, np.clip(1.0 - r2, 0.0, None) ** 2, "phase")
rate.rate_limit_ddim(u, kernels.ball_indicator(d=2))
"""

DISK_REFERENCE_CALL = """
from nlgeom import kernels
kernel = kernels.rescale(kernels.fractional(2, 0.5, 1.0), 0.4)
kernels.disk_reference(kernel, 0.5)
"""

# case: (configs, library calls after the runs, layers beyond the
# always-loaded set)
BUDGET_CASES = {
    "energy-anisotropy": ((
        "experiment perimeter-limit\neps 0.4 0.2\n" + BALL
        + "geometry {\n  radius 0.5\n  resolution 48\n}\n",
        "experiment halfspace-cell\neps 0.4 0.2\ncompetitors 1\n" + BALL
        + "geometry {\n  resolution 64\n}\n",
    ), "", {"energy", "anisotropy", "draws"}),
    "energy": ((
        COAREA_CFG,
        "experiment submodularity\npairs 2\n" + BALL + "geometry {\n  resolution 32\n}\n",
    ), "", {"energy", "draws"}),
    # sigma-derivatives sums the energy's stencil and loads no anisotropy
    "anisotropy": (("experiment sigma-derivatives\neps 0.2\ndirections 4\n" + BALL,), "",
                   {"energy"}),
    "flow": (("experiment flow-monitors\neps 0.2\n" + BALL + FLOW_STEPS,), "", {"flow"}),
    "rate": ((
        "experiment bbm-1d\neps 0.1 0.03 0.01\n",
        "experiment bbm-slice\neps 0.4\n" + BALL + "geometry {\n  resolution 24\n}\n",
        "experiment regularity\neps 0.4 0.2\nangular 8\n" + BALL
        + "geometry {\n  resolution 24\n}\n",
    ), RATE_LIMIT_CALL, {"rate"}),
    "effective-kernel": (("experiment effective-kernel\nsamples 10\n" + BALL,), "",
                         {"rate", "draws"}),
    "curvature": ((CURVATURE_CFG,), DISK_REFERENCE_CALL, {"curvature"}),
}


@pytest.mark.parametrize("case", list(BUDGET_CASES))
def test_run_loads_only_its_layers(tmp_path, case):
    texts, extra, layers = BUDGET_CASES[case]
    cfgs = []
    for i, text in enumerate(texts):
        cfgs.append(tmp_path / f"{i}.cfg")
        cfgs[-1].write_text(text, encoding="utf-8")
    workers = "1" if case == "flow" else "2"
    done = fresh_python("-c", BUDGET_PROBE.replace("{extra}", extra), str(tmp_path),
                        workers, *map(str, cfgs))
    codes, loaded, scipy, (futures, nprandom, hashlib) = json.loads(
        done.stdout.splitlines()[-1])
    assert codes == [0] * len(codes)
    assert set(loaded) == ALWAYS_LOADED | {f"nlgeom.{m}" for m in layers}
    assert scipy == [] and not futures
    assert not nprandom and not hashlib
    if case == "flow":
        rows = (tmp_path / "0" / "trajectory_nonlocal_eps0.2.csv").read_text().splitlines()
        assert [float(r.split(",")[0]) for r in rows[1:]] == [0.0, 0.001, 0.002]
