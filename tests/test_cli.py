import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wedgeq
import wedgeq.verification as ver
from wedgeq import cli, fixture_path
from wedgeq._report import round_sig
from wedgeq.cli import MAX_TABLE_ROWS, _parse_grid, _parse_list, main
from wedgeq.config import load_config
from wedgeq.errors import ValidationError
from wedgeq.service_model import sample_ai, sample_manual

from test_simulator import _count_calls

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

    def test_c2_of_samples_whose_square_underflows(self, capsys, tmp_path):
        # Every AI sample is the review time 1e-300, so its square is 0.
        doc = json.loads(fixture_path("fig2.json").read_text())
        doc["review_r"] = 1e-300
        doc["error_curve"] = {"p0": 0.0, "p_inf": 0.0, "kappa": 2.0}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        moments = _run_json(
            capsys, "dist", "--config", str(path), "--n-samples", "1000", "--format", "json"
        )["moments"]
        assert moments["ai_mean"] == pytest.approx(1e-300, rel=1e-12)
        assert moments["ai_c2"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "edits, width",
        [
            ((), "0.05"),  # review_r = 0.5 is exactly edge 10
            (("review_r", "0.0"), "0.05"),
            (("error_curve.p0", "1.0", "error_curve.p_inf", "1.0"), "0.05"),  # all escape
            (("error_curve.p0", "1.0", "error_curve.p_inf", "1.0"), "0.013"),
            # None escapes, and review_r is the top sample: the last edge, in
            # the right-inclusive last bin.
            (("error_curve.p0", "0.0", "error_curve.p_inf", "0.0", "review_r", "1000.0"),
             "0.05"),
        ],
    )
    def test_counts_are_histograms_of_the_samples(self, capsys, tmp_path, edits, width):
        path = _edited(tmp_path, "fig2", *edits)
        n, seed = 3000, 11
        doc = _run_json(capsys, "dist", "--config", path, "--n-samples", str(n),
                        "--bin-width", width, "--seed", str(seed), "--format", "json")
        spec = load_config(path)
        rng_manual, rng_ai = (
            np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(2)
        )
        manual = sample_manual(spec.manual, rng_manual, size=n)
        ai, escaped = sample_ai(spec.curve, spec.rework, spec.review_r, rng_ai, size=n)
        rows = doc["rows"]
        edges = np.arange(len(rows) + 1) * float(width)
        assert [row["bin_lo"] for row in rows] == [round_sig(x) for x in edges[:-1].tolist()]
        assert [row["manual_count"] for row in rows] == np.histogram(manual, edges)[0].tolist()
        assert [row["ai_count"] for row in rows] == np.histogram(ai, edges)[0].tolist()
        assert sum(row["ai_count"] for row in rows) == n
        assert doc["moments"]["escape_rate"] == round_sig(float(escaped.mean()))
        if spec.review_r == 1000.0:
            assert edges[-1] == 1000.0
            assert rows[-1]["ai_count"] == n
        elif spec.curve.p0 < 1.0:
            spike = next(row for row in rows if row["bin_lo"] == round_sig(spec.review_r))
            assert spike["ai_count"] >= n - escaped.sum()

    def test_top_sample_above_the_rounded_span_is_counted(self, capsys, tmp_path):
        # No draft escapes, so every AI sample is review_r, the top sample.
        # top / width rounds down to 38617.0, where ceil's 1e-12 is lost, and
        # 38617 bins end at 38.617, below it: one more bin holds it.
        path = _edited(tmp_path, "fig2", "error_curve.p0", "0.0", "error_curve.p_inf", "0.0",
                       "review_r", "38.617000000000004")
        rows = _run_json(capsys, "dist", "--config", path, "--bin-width", "0.001",
                         "--n-samples", "100", "--format", "json")["rows"]
        assert len(rows) == 38618
        assert sum(row["ai_count"] for row in rows) == rows[-1]["ai_count"] == 100

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


    def test_policy_run_solves_and_certifies_once(self, capsys, tmp_path, monkeypatch):
        # The config's price and mixed moments serve the run and the
        # analytic block alike.
        calls = _count_calls(monkeypatch, "solve_equilibrium", "policy_route_moments")
        doc = _run_json(capsys, "simulate", "--config", _edited(tmp_path, "fig5-beta22"))
        assert calls == {"solve_equilibrium": 1, "policy_route_moments": 1}
        assert doc["analytic"]["stable"] is True

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


def _edited(tmp_path, fixture: str, *edits: str) -> str:
    """A fixture with a short sim and each key at a dotted path set to the
    raw JSON literal that follows it in edits."""
    doc = json.loads(fixture_path(f"{fixture}.json").read_text())
    for index, dotted in enumerate(edits[::2]):
        *blocks, key = dotted.split(".")
        target = doc
        for block in blocks:
            target = target[block]
        target[key] = f"@VALUE{index}@"
    doc["sim"]["n_arrivals"] = 3_200
    text = json.dumps(doc)
    for index, literal in enumerate(edits[1::2]):
        text = text.replace(f'"@VALUE{index}@"', literal)
    path = tmp_path / "edited.json"
    path.write_text(text)
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
                    # The scan starts at a subnormal price, 1e-12 * theta_hi.
                    ("signal_env.K", "1e-300", ("equilibrium", "review-curve", "simulate")),
                    ("signal_env.c_w", "1e308", ("equilibrium", "simulate")),
                    ("signal_env.risk_map.s0", "1e300",
                     ("equilibrium", "review-curve", "simulate")),
                    ("signal_env.risk_map.g", "1e308", ("equilibrium", "simulate")),
                )
                for command in commands
            ],
            # A steep risk map and a fractional shape solve: the panel edges
            # are refined around s0 and toward the fractional end.
            *[
                pytest.param(["equilibrium"], edit, 0, id=name)
                for name, edit in (
                    ("fig6-g300", ("fig6", "signal_env.risk_map.g", "300")),
                    ("fig5-beta52-g300", ("fig5-beta52", "signal_env.risk_map.g", "300")),
                    ("fig5-beta22-g1e4", ("fig5-beta22", "signal_env.risk_map.g", "1e4")),
                    ("fig5-beta22-beta7-2.5",
                     ("fig5-beta22", "signal_env.signal", '{"alpha": 7, "beta": 2.5}')),
                )
            ],
            # A tiny but stable capacity: 2 C (C - lambda m) underflows to 0.
            *[
                pytest.param(argv, ("fig2", "capacity_C", "1e-300", "lambda", "1e-301"), 0,
                             id=f"{argv[0]}-tiny-capacity")
                for argv in (["moments"], ["wait"], ["wedge"], ["sweep", "--grid", "1e-301"],
                             ["simulate"])
            ],
            # Arrival gaps the sampler cannot draw: a mean, shape or scale that
            # overflows, or gaps that all draw 0 and leave no time window.
            *[
                pytest.param(["simulate"], (fixture, *edits), 2, id=f"simulate-{name}")
                for fixture, name, edits in (
                    ("fig2", "subnormal-lambda", ("lambda", "5e-324")),
                    ("fig2", "subnormal-c2_a", ("c2_a", "5e-324")),
                    ("fig2", "gap-scale-overflows", ("lambda", "1e-10", "c2_a", "1e300")),
                    *[
                        (fixture, f"{fixture}-{mode}-c2_a-{c2_a}",
                         ("c2_a", c2_a, "sim.rework_mode", f'"{mode}"'))
                        for c2_a in ("1e12", "1e150", "1e300")
                        for fixture, mode in (
                            ("fig2", "folded"), ("fig2", "feedback"), ("fig5-beta22", "folded")
                        )
                    ],
                )
            ],
            # A Kingman wait that overflows (rho = 0.935), and a manual
            # gamma shape 1 / c2_H that overflows.
            pytest.param(["moments"], ("fig2", "c2_a", "1e308", "lambda", "1.1"), 2,
                         id="moments-kingman-overflows"),
            *[
                pytest.param([command], ("fig2", "x", "0.5", "manual.c2_H", "5e-324"), 2,
                             id=f"{command}-subnormal-c2_H")
                for command in ("dist", "simulate")
            ],
            # A finite Kingman wait whose product wq_pk * (c2_a + c2_s)
            # overflows, and a subnormal c2_H where no manual time is drawn.
            pytest.param(["moments"], ("fig2", "c2_a", "2e307", "lambda", "1.1"), 0,
                         id="moments-kingman-finite"),
            *[
                pytest.param([command], ("fig2", "x", x, "manual.c2_H", "1e200"), 0,
                             id=f"{command}-x{x}-huge-c2_H")
                for command, x in (("wait", "1"), ("moments", "0"), ("simulate", "0"))
            ],
            pytest.param(["simulate"], ("fig2", "manual.c2_H", "5e-324"), 0,
                         id="simulate-x1-subnormal-c2_H"),
            pytest.param(
                ["equilibrium"], ("fig5-beta22", "signal_env.signal.beta", "0.9"), 2,
                id="beta-below-1",
            ),
            pytest.param(
                ["equilibrium"], ("fig5-beta22", "signal_env.signal.alpha", "1e308"), 2,
                id="alpha",
            ),
            pytest.param(
                ["equilibrium"],
                ("fig5-beta22", "signal_env.signal", '{"alpha": 1e308, "beta": 1e308}'), 2,
                id="alpha-and-beta",
            ),
            *[
                pytest.param([command], ("fig5-beta22", "signal_env.kappa", "1e-320"), 2,
                             id=f"{command}-subnormal-kappa")
                for command in ("equilibrium", "simulate")
            ],
            # A nonzero price scale whose 1e-12 multiple, the scan's start,
            # underflows to 0.
            *[
                pytest.param([command], ("fig5-beta22", *edits), 2, id=f"{command}-{name}")
                for name, edits in (
                    ("tiny-kappa-and-K", ("signal_env.kappa", "1e-300", "signal_env.K", "1e-20")),
                    ("subnormal-K", ("signal_env.K", "5e-324")),
                )
                for command in ("equilibrium", "review-curve", "simulate")
            ],
            # Overflow is inf, never an exception: a savings ratio whose square
            # overflows has the budget's limit -1, and an infinite Phi no root.
            pytest.param(["wedge"], ("fig2", "lambda", "1e-200", "review_r", "1e100",
                                     "manual.tau_H", "1e-100"), 0, id="wedge-square-overflows"),
            pytest.param(["design", "--grid", "1e200", "--rho-h", "0"], ("fig2",), 0,
                         id="design-square-overflows"),
            pytest.param(["equilibrium"], ("fig5-beta52", "lambda", "1e150", "rework.mu_R",
                                           "1e-310"), 4, id="equilibrium-phi-overflows"),
            # A review scale that underflows to 0, with pi(1) > 0 and with pi(1) = 0.
            *[
                pytest.param(argv, ("fig5-beta52", *edits), 2, id=f"{argv[0]}-{name}")
                for name, edits in (
                    ("scale-underflows", ("signal_env.K", "1e-310", "signal_env.kappa", "1e-100")),
                    ("zero-risk-scale-underflows",
                     ("signal_env.K", "1e-310", "signal_env.kappa", "1e-100",
                      "signal_env.risk_map", '{"a": 0, "b": 0, "g": 10, "s0": 0.5}')),
                )
                for argv in (["review-curve", "--theta-list", "1", "--grid", "0.5"],
                             ["equilibrium"])
            ],
            # A review threshold below the smallest normal float.
            *[
                pytest.param(["review-curve", "--theta-list", theta, "--grid", grid], ("fig6",),
                             2, id=f"review-curve-theta-{theta}")
                for theta, grid in (("1e-320", "0.5"), ("5e-324", "0:1:0.5"))
            ],
            # A mean service time attention / C that overflows.
            pytest.param(["simulate"], ("fig2", "capacity_C", "1e-300", "review_r", "1e100"), 2,
                         id="simulate-folded-service-overflows"),
            pytest.param(["simulate"], ("fig3", "capacity_C", "1e-310", "sim.rework_mode",
                                        '"feedback"'), 2, id="simulate-feedback-service-overflows"),
            # Panel nodes on s = 0, where the density takes log(0).
            pytest.param(["equilibrium"], ("fig5-beta52", "signal_env.risk_map.g", "1e200",
                                           "signal_env.risk_map.s0", "5e-324"), 4,
                         id="equilibrium-nodes-on-zero"),
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

    @pytest.mark.parametrize("command", ["equilibrium", "simulate"])
    def test_root_between_adjacent_doubles_fails_its_certificate(self, capsys, tmp_path,
                                                                 command):
        # theta_hi = 3.956e-300: the certifier's g = theta - Phi is +3.6e-300
        # there and -6.6e-63 one ulp below, so no double meets the residual
        # guarantee of 1e-8 * theta, and exit 1 is the certifier's verdict.
        config = _edited(tmp_path, "fig5-beta52", "signal_env.risk_map.a", "0",
                         "signal_env.risk_map.b", "1e-300")
        code, out, err = _run(capsys, command, "--config", config)
        assert (code, out) == (1, "")
        assert "fixed-point residual" in json.loads(err)["message"]

    def test_tiny_capacity_wait_is_the_unit_wait_over_c(self, capsys, tmp_path):
        tiny = _run_json(capsys, "moments", "--config", _edited(
            tmp_path, "fig2", "capacity_C", "1e-300", "lambda", "1e-301"))
        unit = _run_json(capsys, "moments", "--config", _edited(tmp_path, "fig2", "lambda", "0.1"))
        assert tiny["queue"]["wq_pk"] == pytest.approx(unit["queue"]["wq_pk"] / 1e-300, rel=1e-11)

    @pytest.mark.parametrize("edits, field", [
        (("lambda", "5e-324"), "lambda"),
        (("c2_a", "5e-324"), "c2_a"),
        (("c2_a", "1e300"), "c2_a"),
    ])
    def test_degenerate_arrivals_name_their_field(self, capsys, tmp_path, edits, field):
        code, _, err = _run(capsys, "simulate", "--config", _edited(tmp_path, "fig2", *edits))
        assert code == 2
        assert json.loads(err)["field"] == field

    @pytest.mark.parametrize("command, x", [("wait", "1"), ("moments", "0")])
    def test_huge_service_cv_keeps_the_poisson_kingman_wait(self, capsys, tmp_path, command, x):
        # At c2_a = 1 the Kingman factor is 1, so the wait is wq_pk's 5e199.
        doc = _run_json(capsys, command, "--config",
                        _edited(tmp_path, "fig2", "x", x, "manual.c2_H", "1e200"))
        queue = doc["queue"] if command == "moments" else doc["waits"]["manual"]
        assert queue["wq_kingman"] == queue["wq_pk"] == pytest.approx(5e199, rel=1e-10)

    @pytest.mark.parametrize("command, edits, field", [
        ("moments", ("c2_a", "1e308", "lambda", "1.1"), "c2_a"),
        ("dist", ("x", "0.5", "manual.c2_H", "5e-324"), "manual.c2_H"),
        ("simulate", ("x", "0.5", "manual.c2_H", "5e-324"), "manual.c2_H"),
    ])
    def test_overflowing_derived_inputs_name_their_field(self, capsys, tmp_path, command,
                                                        edits, field):
        code, _, err = _run(capsys, command, "--config", _edited(tmp_path, "fig2", *edits))
        assert code == 2
        assert json.loads(err)["field"] == field


class TestReentrantMain:
    """main() builds its parser once per process; no call leaks into the next."""

    COMMANDS = ("moments", "wait", "wedge", "stabilize", "sweep", "design", "dist",
                "equilibrium", "review-curve", "simulate")

    @staticmethod
    def _fresh(capsys, monkeypatch, *argv):
        """main() on a parser built from scratch for this call."""
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            return _run(capsys, *argv)

    @pytest.mark.parametrize(
        "first, then",
        [
            (("dist", "--config", FIG2, "--seed", "5", "--format", "json"),
             ("dist", "--config", FIG2)),
            (("wait", "--config", FIG2, "--bogus"), ("wait", "--config", FIG2)),
        ],
        ids=["flags-then-defaults", "usage-error-then-valid"],
    )
    def test_later_call_matches_a_fresh_parser(self, capsys, monkeypatch, first, then):
        cli._build_parser.cache_clear()
        _run(capsys, *first)
        assert cli._build_parser() is cli._build_parser()
        got = _run(capsys, *then)
        assert got == self._fresh(capsys, monkeypatch, *then)
        assert got[0] == 0

    def test_help_text_is_stable(self, capsys):
        cli._build_parser.cache_clear()
        texts = []
        for _ in range(2):
            for argv in (["--help"], *[[command, "--help"] for command in self.COMMANDS]):
                with pytest.raises(SystemExit) as done:
                    main(argv)
                assert done.value.code == 0
                texts.append(capsys.readouterr().out)
        first, second = texts[: len(texts) // 2], texts[len(texts) // 2 :]
        assert first == second
        assert all(text.startswith("usage: wedgeq") for text in first)


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


def _json_cases():
    """Every command that writes JSON, on every fixture it accepts."""
    fixed, policy = ("fig2", "fig3", "fig4"), ("fig5-beta22", "fig5-beta52", "fig6")
    table = ("--format", "json")
    cases = [(cmd, fx, ()) for cmd in ("moments", "wait", "wedge", "stabilize") for fx in fixed]
    cases += [("sweep", fx, ("--grid", "0.1:0.9:0.1", *table)) for fx in fixed]
    cases += [(cmd, fx, table) for cmd in ("design", "dist") for fx in fixed]
    cases += [("equilibrium", fx, ()) for fx in policy]
    cases += [("review-curve", fx, table) for fx in policy]
    cases += [("simulate", fx, ()) for fx in fixed + policy]
    return cases


class TestJsonLayout:
    """Reports are laid out as json.dumps(indent=2) lays out what they parse to."""

    @pytest.mark.parametrize(
        "command, fixture, flags", _json_cases(), ids=[f"{c}-{f}" for c, f, _ in _json_cases()]
    )
    def test_report_layout(self, capsys, tmp_path, command, fixture, flags):
        config = str(fixture_path(f"{fixture}.json"))
        if command == "simulate":  # the layout does not depend on the run length
            doc = json.loads(fixture_path(f"{fixture}.json").read_text())
            doc["sim"]["n_arrivals"] = 20_000
            config = tmp_path / "short.json"
            config.write_text(json.dumps(doc))
        code, out, err = _run(capsys, command, "--config", str(config), *flags)
        assert code == 0, err
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_error_layout(self, capsys):
        code, out, err = _run(capsys, "moments", "--config", FIG5A)
        assert code == 2 and out == ""
        assert json.dumps(json.loads(err), indent=2) + "\n" == err


# ---------------------------------------------------------------------------
# the error contract as a property

_FIXTURES = ("fig2", "fig3", "fig4", "fig5-beta22", "fig5-beta52", "fig6")
# Simulation sizes the property caps so that an example takes milliseconds.
_MAX_PROPERTY_ARRIVALS = 4000
_MAX_PROPERTY_REPS = 3


def _paths(doc: dict, prefix=()):
    """Every key path of a document: its blocks and their leaves."""
    for key, value in doc.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _paths(value, (*prefix, key))


# Extreme and wrong-typed JSON values.  json.dumps writes NaN and Infinity as
# the non-standard literals, which json.loads reads back.
_LEAVES = st.one_of(
    st.sampled_from([
        0, -1, 2, 0.0, -0.0, 0.5, 1.0, 5e-324, 1e-300, 1e-162, 1e-20, 1e20, 1e300,
        1.7976931348623157e308, -1e300, 10**400, math.nan, math.inf, -math.inf,
        True, None, "x", [], {},
    ]),
    st.floats(),
    st.integers(min_value=-(2**70), max_value=2**70),
)
_DELETE = "@delete@"

# Command-line flag values, and the rework mode the fixture's sim block starts from.
_FLAGS = st.fixed_dictionaries({
    "grid": st.sampled_from([None, "0.1:0.9:0.1", "0.5", "1e-300:1:0.25", "1:0:1", "x",
                             "0:1e308:1e307"]),
    "format": st.sampled_from(["json", "csv"]),
    "bin_width": st.sampled_from(["0.05", "1e-300", "1e300", "-1"]),
    "seed": st.sampled_from([None, "0", "7", "-1", str(2**64)]),
    "rework_mode": st.sampled_from(["folded", "feedback"]),
    "theta_list": st.sampled_from([None, "1e-320", "5e-324"]),
    "rho_h": st.sampled_from([None, "0", "0.2,0.4"]),
})
_DEFAULT_FLAGS = {
    "grid": None, "format": "json", "bin_width": "0.05", "seed": None, "rework_mode": "folded",
    "theta_list": None, "rho_h": None,
}


@st.composite
def _edits(draw, fixture: str):
    doc = json.loads(fixture_path(f"{fixture}.json").read_text())
    paths = list(_paths(doc))
    return draw(st.lists(
        st.tuples(st.sampled_from(paths), st.one_of(_LEAVES, st.just(_DELETE))),
        max_size=3,
    ))


def _argv(command: str, config: str, flags: dict) -> list[str]:
    argv = [command, "--config", config]
    if command in ("sweep", "design", "dist", "review-curve"):
        argv += ["--format", flags["format"]]
    if command == "sweep" or (command in ("design", "review-curve") and flags["grid"]):
        argv += ["--grid", flags["grid"] or "0.1:0.9:0.1"]
    if command == "dist":
        argv += ["--n-samples", "2000", "--bin-width", flags["bin_width"]]
    if command in ("dist", "simulate") and flags["seed"] is not None:
        argv += ["--seed", flags["seed"]]
    if command == "design" and flags["rho_h"] is not None:
        argv += ["--rho-h", flags["rho_h"]]
    if command == "review-curve" and flags["theta_list"] is not None:
        argv += ["--theta-list", flags["theta_list"]]
    return argv


def _config_text(fixture: str, edits, rework_mode: str) -> str:
    """The fixture in rework_mode with edits applied, its simulation capped small."""
    doc = json.loads(fixture_path(f"{fixture}.json").read_text())
    doc["sim"]["rework_mode"] = rework_mode
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            if not isinstance(target.get(key), dict):
                break
            target = target[key]
        else:
            if value == _DELETE:
                target.pop(path[-1], None)
            else:
                target[path[-1]] = value
    # A missing n_arrivals would default to 10^6.
    sim = doc.setdefault("sim", {})
    if isinstance(sim, dict):
        sim.setdefault("n_arrivals", _MAX_PROPERTY_ARRIVALS)
        for key, cap in (("n_arrivals", _MAX_PROPERTY_ARRIVALS), ("reps", _MAX_PROPERTY_REPS)):
            value = sim.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool) and value > cap:
                sim[key] = cap
    return json.dumps(doc)


def _tiny_p0(command):
    edits = [(("error_curve", "p0"), 1e-300), (("error_curve", "p_inf"), 0), (("review_r",), 0)]
    return example(fixture="fig2", command=command, edits=edits, flags=_DEFAULT_FLAGS)


class TestContractProperty:
    """For any mutated fixture and any command, main() returns 0 with empty
    stderr, or a documented nonzero code with exactly one JSON object on
    stderr and nothing on stdout.  It never raises or warns."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        fixture=st.shared(st.sampled_from(_FIXTURES), key="fixture"),
        command=st.sampled_from(TestReentrantMain.COMMANDS),
        edits=st.shared(st.sampled_from(_FIXTURES), key="fixture").flatmap(_edits),
        flags=_FLAGS,
    )
    # mean**2 underflowed to 0 in the route moments' c2 (ZeroDivisionError).
    @_tiny_p0("moments")
    @_tiny_p0("wait")
    @_tiny_p0("wedge")
    @_tiny_p0("stabilize")
    @example(fixture="fig2", command="moments", edits=[(("manual", "tau_H"), 5e-324)],
             flags=_DEFAULT_FLAGS)
    @example(fixture="fig2", command="moments",
             edits=[(("rework", "mu_R"), 5e-324), (("review_r",), 1e-300)], flags=_DEFAULT_FLAGS)
    @example(fixture="fig2", command="simulate",
             edits=[(("rework", "mu_R"), 5e-324), (("review_r",), 1e-300)], flags=_DEFAULT_FLAGS)
    @example(fixture="fig2", command="dist", edits=[(("manual", "tau_H"), 1e-300)],
             flags=_DEFAULT_FLAGS)
    @example(fixture="fig2", command="dist",
             edits=[(("error_curve", "p0"), 0), (("error_curve", "p_inf"), 0),
                    (("review_r",), 1e-300)], flags=_DEFAULT_FLAGS)
    # -kappa * r overflows in residual_error: no warning may precede the JSON error.
    @example(fixture="fig2", command="dist", edits=[(("review_r",), 1.7976931348623157e308)],
             flags=_DEFAULT_FLAGS)
    # A float ** raised OverflowError where * gives inf: the savings ratio's
    # square in the variance budget, from the wedge and design commands.
    @example(fixture="fig2", command="wedge",
             edits=[(("lambda",), 1e-200), (("review_r",), 1e100), (("manual", "tau_H"), 1e-100)],
             flags=_DEFAULT_FLAGS)
    @example(fixture="fig2", command="design", edits=[],
             flags={**_DEFAULT_FLAGS, "grid": "1e200", "rho_h": "0"})
    # lambda^3 in Phi raised OverflowError; an infinite Phi has no root.
    @example(fixture="fig5-beta52", command="equilibrium",
             edits=[(("lambda",), 1e150), (("rework", "mu_R"), 1e-310)], flags=_DEFAULT_FLAGS)
    # kappa * K * (1 - p_inf) underflowed to 0, a ZeroDivisionError in pi_star.
    @example(fixture="fig5-beta52", command="review-curve",
             edits=[(("signal_env", "K"), 1e-310), (("signal_env", "kappa"), 1e-100)],
             flags=_DEFAULT_FLAGS)
    # A subnormal review threshold overflowed pi / pi_star.
    @example(fixture="fig6", command="review-curve", edits=[],
             flags={**_DEFAULT_FLAGS, "grid": "0.5", "theta_list": "1e-320"})
    # A mean service time attention / C that overflows made every estimate NaN.
    @example(fixture="fig3", command="simulate", edits=[(("capacity_C",), 1e-310)],
             flags={**_DEFAULT_FLAGS, "rework_mode": "feedback"})
    # Nodes on s = 0 took log(0) in the density's normalisation check.
    @example(fixture="fig5-beta52", command="equilibrium",
             edits=[(("signal_env", "risk_map", "g"), 1e200),
                    (("signal_env", "risk_map", "s0"), 5e-324)], flags=_DEFAULT_FLAGS)
    def test_main_keeps_its_contract(self, fixture, command, edits, flags):
        with tempfile.TemporaryDirectory() as directory:
            config = Path(directory) / "mutated.json"
            config.write_text(_config_text(fixture, edits, flags["rework_mode"]))
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main(_argv(command, str(config), flags))
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert code in (1, 2, 3, 4)
            assert out.getvalue() == ""
            assert isinstance(json.loads(err.getvalue()), dict)
