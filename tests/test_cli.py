import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import wedgeq
import wedgeq.verification as ver
from wedgeq import fixture_path
from wedgeq.cli import MAX_TABLE_ROWS, _parse_grid, _parse_list, main
from wedgeq.errors import ValidationError

FIG2 = str(fixture_path("fig2.json"))
FIG4 = str(fixture_path("fig4.json"))
FIG5A = str(fixture_path("fig5-beta22.json"))
FIG6 = str(fixture_path("fig6.json"))


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def overload_config(tmp_path):
    doc = {
        "lambda": 1.1,
        "capacity_C": 1.0,
        "x": 0.0,
        "manual": {"tau_H": 1.0, "c2_H": 0.10},
        "rework": {"mu_R": 2.0, "mu_R2": 6.0},
        "review_r": 0.5,
        "error_curve": {"p0": 0.15, "p_inf": 0.15, "kappa": 2.0},
    }
    path = tmp_path / "overload.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def small_sim_config(tmp_path):
    doc = json.loads(fixture_path("fig2.json").read_text())
    doc["sim"] = {"seed": 3, "n_arrivals": 12_800, "n_batches": 32}
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestGridParsing:
    def test_single_value(self):
        assert _parse_grid("0.5", "--grid") == [0.5]

    def test_inclusive_range(self):
        grid = _parse_grid("0.5:1.0:0.025", "--grid")
        assert len(grid) == 21
        assert grid[0] == 0.5
        assert grid[-1] == pytest.approx(1.0)

    def test_rejects_malformed(self):
        for text in ("a:b:c", "0.5:1.0", "1.0:0.5:0.1", "0.5:1.0:-0.1", "0.5:1.0:0",
                     "0.1:0.2:nan", "nan:1:0.1", "0.1:inf:0.1",
                     # more points than a table may have, checked before any is built
                     "0:1:1e-12", "-1e308:1e308:1", "0:100000:1"):
            with pytest.raises(ValidationError) as err:
                _parse_grid(text, "--grid")
            assert err.value.field == "--grid"

    def test_grid_at_the_row_limit(self):
        assert len(_parse_grid("0:99999:1", "--grid")) == MAX_TABLE_ROWS

    def test_list_parsing(self):
        assert _parse_list("0.2,0.4", "--rho-h") == [0.2, 0.4]
        with pytest.raises(ValidationError):
            _parse_list("0.2,oops", "--rho-h")
        with pytest.raises(ValidationError):
            _parse_list(",", "--rho-h")
        for text in ("nan", "0.2,inf", "-inf"):
            with pytest.raises(ValidationError) as err:
                _parse_list(text, "--theta-list")
            assert err.value.field == "--theta-list"


class TestMoments:
    def test_payload(self, capsys):
        doc = _run_json(capsys, "moments", "--config", FIG2)
        assert doc["command"] == "moments"
        assert doc["p_r"] == 0.15
        assert doc["routes"]["ai"]["mean"] == pytest.approx(0.85, rel=1e-12)
        assert doc["routes"]["ai"]["c2"] == pytest.approx(1.25, rel=1e-12)
        assert doc["queue"]["stable"] is True
        assert doc["queue"]["rho"] == pytest.approx(0.425, rel=1e-12)

    def test_unstable_queue_reports_null_waits(self, capsys, tmp_path):
        doc = json.loads(fixture_path("fig2.json").read_text())
        doc["lambda"] = 1.5
        path = tmp_path / "hot.json"
        path.write_text(json.dumps(doc))
        out = _run_json(capsys, "moments", "--config", str(path))
        assert out["queue"]["stable"] is False
        assert out["queue"]["wq_pk"] is None


class TestWait:
    def test_reference_waits(self, capsys):
        doc = _run_json(capsys, "wait", "--config", FIG2)
        waits = doc["waits"]
        assert waits["manual"]["wq_pk"] == pytest.approx(0.55, rel=1e-12)
        assert waits["ai"]["wq_pk"] == pytest.approx(0.706793478261, rel=1e-9)
        assert doc["kingman_approximate"] is True
        # Poisson arrivals: the two-moment approximation reduces exactly.
        assert waits["ai"]["wq_kingman"] == waits["ai"]["wq_pk"]

    def test_unstable_route_exits_3(self, capsys, overload_config):
        code, out, err = _run(capsys, "wait", "--config", overload_config)
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "unstable"
        assert payload["rho"] == pytest.approx(1.1)
        assert out == ""


class TestWedge:
    def test_crossing_rate(self, capsys):
        doc = _run_json(capsys, "wedge", "--config", FIG4)
        wedge = doc["wedge"]
        assert wedge["ai_better"] is False
        assert wedge["lambda_star"] == pytest.approx(0.7611, abs=5e-5)
        assert wedge["bang_bang_direction"] == "full-manual"
        assert wedge["x_c"] == 0.0


    def test_zero_mean_ai_route_named_like_wait(self, capsys, tmp_path):
        # No review and no errors: the AI route takes no time at all.
        doc = json.loads(fixture_path("fig2.json").read_text())
        doc["review_r"] = 0.0
        doc["error_curve"] = {"p0": 0.0, "p_inf": 0.0, "kappa": 2.0}
        path = tmp_path / "instant.json"
        path.write_text(json.dumps(doc))
        for command in ("wedge", "wait"):
            code, out, err = _run(capsys, command, "--config", str(path))
            assert code == 2
            assert out == ""
            assert json.loads(err)["field"] == "service.mean"


class TestStabilize:
    def test_rescue_share(self, capsys, overload_config):
        doc = _run_json(capsys, "stabilize", "--config", overload_config)
        assert doc["feasible"] is True
        assert doc["x_c"] == pytest.approx(0.1 / 0.22, rel=1e-12)
        assert doc["load_at_x_c"] == pytest.approx(1.0, rel=1e-12)

    def test_already_stable(self, capsys):
        doc = _run_json(capsys, "stabilize", "--config", FIG2)
        assert doc["x_c"] == 0.0
        assert "load_at_x_c" not in doc


class TestSweep:
    def test_csv_shape_and_crossing(self, capsys):
        code, out, _ = _run(
            capsys, "sweep", "--config", FIG2, "--format", "csv",
            "--grid", "0.70:0.80:0.01",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,w_manual,w_ai,rho_H,rho_A,stable_H,stable_A"
        assert len(lines) == 12
        gaps = []
        for line in lines[1:]:
            cells = line.split(",")
            gaps.append(float(cells[2]) - float(cells[1]))
            assert cells[5] == "true"
        signs = [g > 0 for g in gaps]
        assert signs[0] is True and signs[-1] is False
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1

    def test_unstable_rows_have_empty_cells(self, capsys):
        code, out, _ = _run(
            capsys, "sweep", "--config", FIG2, "--format", "csv", "--grid", "1.5",
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[1] == "" and row[2] == ""
        assert row[5] == "false" and row[6] == "false"

    def test_json_format(self, capsys):
        doc = _run_json(
            capsys, "sweep", "--config", FIG2, "--grid", "0.5", "--format", "json"
        )
        assert doc["rows"][0]["w_manual"] == pytest.approx(0.55, rel=1e-12)

    def test_grid_is_required(self, capsys):
        code, out, err = _run(capsys, "sweep", "--config", FIG2)
        assert code == 2
        assert out == ""
        assert json.loads(err)["field"] == "--grid"

    def test_nonpositive_lambda_rejected(self, capsys):
        code, _, err = _run(capsys, "sweep", "--config", FIG2, "--grid", "0")
        assert code == 2
        assert json.loads(err)["error"] == "validation"


class TestDesign:
    def test_no_savings_column_equals_manual_c2(self, capsys):
        code, out, _ = _run(
            capsys, "design", "--config", FIG2, "--format", "csv",
            "--grid", "1.0", "--rho-h", "0.2,0.8",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# c2_H=0.1"
        assert lines[1] == "s,rho_H,c2_a_max"
        for line in lines[2:]:
            assert line.split(",")[2] == "0.1"

    def test_budget_grows_with_manual_load(self, capsys):
        doc = _run_json(
            capsys, "design", "--config", FIG2, "--grid", "0.85",
            "--rho-h", "0.2,0.8", "--format", "json",
        )
        budgets = {row["rho_H"]: row["c2_a_max"] for row in doc["rows"]}
        assert budgets[0.8] > budgets[0.2]

    def test_infeasible_cells_are_empty(self, capsys):
        code, out, _ = _run(
            capsys, "design", "--config", FIG2, "--format", "csv",
            "--grid", "1.3", "--rho-h", "0.8",
        )
        assert code == 0
        assert out.strip().split("\n")[-1] == "1.3,0.8,"

    def test_tiny_savings_ratio_has_unbounded_budget(self, capsys):
        # s^2 underflows to 0 here; the budget is +inf, emitted as an empty cell.
        code, out, err = _run(
            capsys, "design", "--config", FIG2, "--format", "csv",
            "--grid", "1e-320", "--rho-h", "0.5",
        )
        assert code == 0, err
        s_cell, rho_cell, budget_cell = out.strip().split("\n")[-1].split(",")
        assert float(s_cell) == 1e-320
        assert (rho_cell, budget_cell) == ("0.5", "")


class TestDist:
    def test_sample_moments_and_histogram(self, capsys):
        doc = _run_json(
            capsys, "dist", "--config", FIG2, "--n-samples", "4000",
            "--seed", "1", "--format", "json",
        )
        moments = doc["moments"]
        assert moments["seed"] == 1
        assert moments["ai_mean"] == pytest.approx(0.85, abs=0.05)
        assert moments["escape_rate"] == pytest.approx(0.15, abs=0.03)
        rows = doc["rows"]
        assert sum(r["ai_count"] for r in rows) == 4000
        assert sum(r["manual_count"] for r in rows) == 4000
        # Non-escaped AI drafts take exactly the review time, 0.5 hours.
        spike = next(r for r in rows if r["bin_lo"] <= 0.5 < r["bin_hi"])
        assert spike["ai_count"] > 0.7 * 4000
        for row in rows:
            assert row["ai_density"] == pytest.approx(
                row["ai_count"] / (4000 * 0.05), rel=1e-9
            )

    def test_csv_comments_carry_moments(self, capsys):
        code, out, _ = _run(
            capsys, "dist", "--config", FIG2, "--format", "csv",
            "--n-samples", "500", "--seed", "1",
        )
        assert code == 0
        lines = out.split("\n")
        assert any(line.startswith("# escape_rate=") for line in lines)
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at] == "bin_lo,bin_hi,manual_count,manual_density,ai_count,ai_density"

    def test_bad_sample_count(self, capsys):
        code, _, err = _run(capsys, "dist", "--config", FIG2, "--n-samples", "0")
        assert code == 2
        assert json.loads(err)["error"] == "validation"

    @pytest.mark.parametrize(
        "flags, field",
        [
            (("--bin-width", "1e-300"), "--bin-width"),
            (("--bin-width", "1e-7"), "--bin-width"),
            (("--bin-width", "inf"), "--bin-width"),
            (("--n-samples", "100000000000000"), "--n-samples"),
            (("--seed", "-1"), "--seed"),
            (("--bin-width", "nan"), "--bin-width"),
            (("--bin-width", "-0.05"), "--bin-width"),
            (("--seed", str(2**64)), "--seed"),
        ],
    )
    def test_oversized_or_invalid_requests_exit_2(self, capsys, flags, field):
        code, out, err = _run(capsys, "dist", "--config", FIG2, "--n-samples", "1000", *flags)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert payload["field"] == field


class TestTableLimits:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (("sweep", "--config", FIG2, "--grid", "0.1:1:1e-12"), "--grid"),
            (("sweep", "--config", FIG2, "--grid", "0.1:1e308:1e-300"), "--grid"),
            (("design", "--config", FIG2, "--grid", "0.5:1:1e-5", "--rho-h", "0.2,0.4"),
             "--grid"),
            (("design", "--config", FIG2, "--rho-h", "0.2,nan"), "--rho-h"),
            (("review-curve", "--config", FIG6, "--grid", "0.01:1:1e-5", "--theta-list", "1,2"),
             "--grid"),
            (("review-curve", "--config", FIG6, "--theta-list", "nan"), "--theta-list"),
            # out-of-range values are named by their flag, not the model field
            (("review-curve", "--config", FIG6, "--grid", "2"), "--grid"),
            (("design", "--config", FIG2, "--rho-h", "1.5"), "--rho-h"),
            (("design", "--config", FIG2, "--grid", "-1"), "--grid"),
            (("simulate", "--config", FIG2, "--seed", "-1"), "--seed"),
            (("simulate", "--config", FIG2, "--seed", str(2**64)), "--seed"),
        ],
    )
    def test_oversized_or_non_finite_tables_exit_2(self, capsys, argv, field):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert payload["field"] == field


class TestEquilibrium:
    def test_reference_solution(self, capsys):
        doc = _run_json(capsys, "equilibrium", "--config", FIG5A)
        assert doc["primary"]["theta_star"] == pytest.approx(0.42551, abs=5e-5)
        assert doc["primary"]["wq"] == pytest.approx(0.7512, abs=5e-4)
        assert doc["n_roots"] == len(doc["roots"])
        thetas = [r["theta_star"] for r in doc["roots"]]
        assert thetas == sorted(thetas)
        assert doc["irreducible_escape_rate"] == 0.0
        assert doc["environment"]["K"] == 2.0

    def test_fixed_mode_config_rejected(self, capsys):
        code, _, err = _run(capsys, "equilibrium", "--config", FIG2)
        assert code == 2
        assert json.loads(err)["error"] == "validation"

    def test_infeasible_exits_3(self, capsys, tmp_path):
        doc = json.loads(fixture_path("fig5-beta22.json").read_text())
        doc["lambda"] = 5.0
        path = tmp_path / "swamped.json"
        path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "equilibrium", "--config", str(path))
        assert code == 3
        assert json.loads(err)["error"] == "infeasible"

    def test_no_root_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(ver, "_phi_value", lambda *args: 0.0)
        code, _, err = _run(capsys, "equilibrium", "--config", FIG5A)
        assert code == 4
        assert json.loads(err)["error"] == "no-root"


class TestReviewCurve:
    def test_reference_effort(self, capsys):
        # K=10, kappa=2: a draft at pi=0.5 under theta=1 gets ln(10)/2 hours.
        code, out, _ = _run(
            capsys, "review-curve", "--config", FIG6, "--format", "csv",
            "--grid", "0.5", "--theta-list", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# K=10"
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at] == "pi,theta,r_star"
        cells = lines[header_at + 1].split(",")
        assert float(cells[2]) == pytest.approx(math.log(10.0) / 2.0, rel=1e-9)

    def test_price_ordering(self, capsys):
        doc = _run_json(
            capsys, "review-curve", "--config", FIG6,
            "--grid", "0.3", "--theta-list", "0.2,0.5,1,2", "--format", "json",
        )
        efforts = [row["r_star"] for row in doc["rows"]]
        assert efforts == sorted(efforts, reverse=True)

    def test_rejects_nonpositive_theta(self, capsys):
        code, _, err = _run(
            capsys, "review-curve", "--config", FIG6, "--theta-list", "0"
        )
        assert code == 2


class TestSimulate:
    def test_fixed_mode_report(self, capsys, small_sim_config):
        doc = _run_json(capsys, "simulate", "--config", small_sim_config)
        assert doc["settings"]["seed"] == 3
        assert doc["settings"]["n_arrivals"] == 12_800
        assert doc["analytic"]["stable"] is True
        assert doc["sim"]["wq_mean"] > 0.0
        assert "wq_pk" in doc["delta_ci_units"]

    def test_seed_override(self, capsys, small_sim_config):
        base = _run_json(capsys, "simulate", "--config", small_sim_config)
        other = _run_json(capsys, "simulate", "--config", small_sim_config, "--seed", "9")
        assert other["settings"]["seed"] == 9
        assert other["sim"]["wq_mean"] != base["sim"]["wq_mean"]


    def test_oversized_run_exits_2(self, capsys, tmp_path):
        doc = json.loads(fixture_path("fig2.json").read_text())
        doc["sim"]["n_arrivals"] = 10**30
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["field"] == "sim.n_arrivals"


class TestOverflowingInputs:
    @pytest.mark.parametrize(
        "command, block, key, value",
        [
            ("wait", "manual", "tau_H", 1e200),
            ("moments", "rework", "mu_R", 1e300),
            ("equilibrium", "signal_env", "K", 1e308),
        ],
    )
    def test_stderr_is_one_json_error(self, tmp_path, command, block, key, value):
        # A fresh interpreter, so numpy warnings would reach stderr rather
        # than pytest's warning capture.
        doc = json.loads(Path(FIG2 if command != "equilibrium" else FIG5A).read_text())
        doc[block][key] = value
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(wedgeq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        ))
        done = subprocess.run(
            [sys.executable, "-m", "wedgeq.cli", command, "--config", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        payload = json.loads(done.stderr)
        assert payload["error"] == "validation"
        assert payload["field"] == f"{block}.{key}"


def _edited(tmp_path, fixture: str, dotted: str, literal: str) -> str:
    """A fixture with the key at dotted path set to a raw JSON literal, and a short sim."""
    doc = json.loads(fixture_path(f"{fixture}.json").read_text())
    *blocks, key = dotted.split(".")
    target = doc
    for block in blocks:
        target = target[block]
    target[key] = "@VALUE@"
    doc["sim"]["n_arrivals"] = 3_200
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc).replace('"@VALUE@"', literal))
    return str(path)


class TestErrorContract:
    """Each input exits with its documented code, and stderr is empty on success
    or exactly one JSON object: never a usage text, a traceback or a warning."""

    @pytest.mark.parametrize(
        "argv, edit, code",
        [
            pytest.param(["dist", "--config", FIG2, "--n-samples", "abc"], None, 2, id="bad-int"),
            pytest.param(["moments"], None, 2, id="no-config"),
            pytest.param(["wait", "--config", FIG2, "--bogus"], None, 2, id="unknown-flag"),
            pytest.param(["wait"], ("fig2", "lambda", "9" * 401), 2, id="int-overflows-float"),
            pytest.param(["wait"], ("fig2", "lambda", "9" * 5000), 2, id="int-too-long"),
            pytest.param(["equilibrium"], ("fig5-beta22", "signal_env.K", "1e300"), 4, id="K"),
            *[
                pytest.param([command], ("fig5-beta22", dotted, literal), 0,
                             id=f"{command}-{dotted.rsplit('.', 1)[-1]}")
                for dotted, literal, commands in (
                    ("signal_env.kappa", "1e-300", ("equilibrium", "simulate")),
                    ("signal_env.c_w", "1e308", ("equilibrium", "simulate")),
                    ("signal_env.risk_map.s0", "1e300",
                     ("equilibrium", "review-curve", "simulate")),
                    ("signal_env.risk_map.g", "1e308", ("equilibrium", "simulate")),
                )
                for command in commands
            ],
            pytest.param(
                ["equilibrium"], ("fig5-beta22", "signal_env.signal.alpha", "1e308"), 2,
                id="alpha",
            ),
        ],
    )
    def test_exit_code_and_stderr(self, capsys, tmp_path, argv, edit, code):
        if edit is not None:
            argv = [*argv, "--config", _edited(tmp_path, *edit)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = _run(capsys, *argv)
        assert got == code
        if code == 0:
            assert err == ""
        else:
            assert out == ""
            assert isinstance(json.loads(err), dict)


class TestRuntimeDependencies:
    def test_commands_run_without_scipy(self, small_sim_config):
        # A fresh interpreter: the test process itself has scipy loaded.
        script = (
            "import contextlib, io, sys\n"
            "import wedgeq\n"
            "from wedgeq import cli\n"
            "for argv in (['simulate', '--config', sys.argv[1]],\n"
            "             ['equilibrium', '--config', sys.argv[2]]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(wedgeq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        ))
        done = subprocess.run(
            [sys.executable, "-c", script, small_sim_config, FIG5A],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestOutputPlumbing:
    def test_out_file_matches_stdout(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "wedge", "--config", FIG4)
        assert code == 0
        target = tmp_path / "report.json"
        code2 = main(["wedge", "--config", FIG4, "--out", str(target)])
        capsys.readouterr()
        assert code2 == 0
        assert target.read_text() == out

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = _run(capsys, "wedge", "--config", FIG4, "--out", str(target))
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert payload["field"] == "--out"
        assert not target.exists()

    def test_out_replaces_existing_file_atomically(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("stale\n")
        code, out, _ = _run(capsys, "wedge", "--config", FIG4, "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "wedge"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_failed_out_write_keeps_the_old_file(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "report.json"
        target.write_text("stale\n")

        def failing_replace(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", failing_replace)
        code, out, err = _run(capsys, "wedge", "--config", FIG4, "--out", str(target))
        assert code == 2
        assert out == ""
        assert json.loads(err)["field"] == "--out"
        assert target.read_text() == "stale\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_missing_config_exits_2(self, capsys):
        code, _, err = _run(capsys, "wait", "--config", "/nonexistent.json")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert "cannot read config" in payload["message"]

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "frobnicate", "--config", FIG2)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert payload["field"] == "command"

    @pytest.mark.parametrize(
        "argv",
        [
            ("moments", "--config", FIG2),
            ("wait", "--config", FIG2),
            ("wedge", "--config", FIG4),
            ("stabilize", "--config", FIG2),
            ("sweep", "--config", FIG2, "--grid", "0.70:0.80:0.02"),
            ("design", "--config", FIG2, "--grid", "0.8:1.0:0.1"),
            ("dist", "--config", FIG2, "--n-samples", "2000"),
            ("equilibrium", "--config", FIG5A),
            ("review-curve", "--config", FIG6, "--grid", "0.1:0.9:0.2"),
        ],
    )
    def test_repeat_runs_are_byte_identical(self, capsys, argv):
        code1, out1, _ = _run(capsys, *argv)
        code2, out2, _ = _run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("\n")

    def test_simulate_bytes_stable(self, capsys, small_sim_config):
        argv = ("simulate", "--config", small_sim_config)
        _, out1, _ = _run(capsys, *argv)
        _, out2, _ = _run(capsys, *argv)
        assert out1 == out2

    def test_json_outputs_parse_and_avoid_nan(self, capsys):
        for argv in (
            ("moments", "--config", FIG2),
            ("equilibrium", "--config", FIG5A),
        ):
            code, out, _ = _run(capsys, *argv)
            assert code == 0
            assert "NaN" not in out and "Infinity" not in out
            json.loads(out)
