import dataclasses
import json
import re
from pathlib import Path

import pytest

from wedgeq import (
    ErrorCurve,
    ManualRoute,
    ReworkModel,
    SignalEnvironment,
    SimSettings,
    ValidationError,
    WorkflowSpec,
    ai_route_moments,
    fixture_path,
    load_config,
    workflow_from_dict,
)

CONFIG_DOC = Path(__file__).resolve().parents[1] / "docs" / "config.md"

MINIMAL = {
    "lambda": 0.5,
    "capacity_C": 1.0,
    "manual": {"tau_H": 1.0, "c2_H": 0.10},
    "rework": {"mu_R": 2.0, "mu_R2": 6.0},
    "review_r": 0.5,
    "error_curve": {"p0": 0.3, "p_inf": 0.1, "kappa": 2.0},
}

POLICY = {
    "lambda": 0.75,
    "capacity_C": 1.0,
    "manual": {"tau_H": 1.0, "c2_H": 0.10},
    "rework": {"mu_R": 1.5, "mu_R2": 4.0},
    "signal_env": {
        "risk_map": {"a": 0.02, "b": 0.88, "g": 10.0, "s0": 0.55},
        "signal": {"alpha": 2.0, "beta": 2.0},
        "K": 2.0,
        "kappa": 2.0,
        "c_w": 0.5,
    },
}


def _doc(base=MINIMAL, **overrides):
    doc = json.loads(json.dumps(base))
    doc.update(overrides)
    return doc


def _error(doc):
    with pytest.raises(ValidationError) as err:
        workflow_from_dict(doc)
    return err.value


class TestDefaults:
    def test_minimal_fixed_mode(self):
        spec = workflow_from_dict(MINIMAL)
        assert spec.mode == "fixed"
        assert spec.x == 1.0
        assert spec.c2_a == 1.0
        assert spec.sim.seed == 0
        assert spec.sim.n_arrivals == 1_000_000
        assert spec.sim.warmup_fraction == 0.2
        assert spec.sim.n_batches == 32
        assert spec.sim.reps == 1
        assert spec.sim.rework_mode == "folded"
        assert spec.rework.family == "gamma"

    def test_minimal_policy_mode(self):
        spec = workflow_from_dict(POLICY)
        assert spec.mode == "policy"
        assert spec.review_r is None
        assert spec.curve is None
        assert spec.env.p_inf == 0.0

    def test_error_curve_floor_defaults_to_zero(self):
        doc = _doc(error_curve={"p0": 0.3, "kappa": 2.0})
        assert workflow_from_dict(doc).curve.p_inf == 0.0


class TestShippedFixtures:
    @pytest.mark.parametrize(
        "name",
        ["fig2.json", "fig3.json", "fig4.json", "fig5-beta22.json",
         "fig5-beta52.json", "fig6.json"],
    )
    def test_loads_clean(self, name):
        spec = load_config(fixture_path(name))
        assert spec.lam > 0
        assert spec.capacity == 1.0

    def test_reference_calibration_round_trips(self):
        spec = load_config(fixture_path("fig4.json"))
        ai = ai_route_moments(spec.curve, spec.rework, spec.review_r)
        assert ai.mean == pytest.approx(0.85, rel=1e-12)
        assert ai.c2 == pytest.approx(1.25, rel=1e-12)

    def test_policy_fixtures_differ_only_in_signal_shape(self):
        a = load_config(fixture_path("fig5-beta22.json"))
        b = load_config(fixture_path("fig5-beta52.json"))
        assert a.env.signal_alpha == 2.0
        assert b.env.signal_alpha == 5.0
        assert a.env.signal_beta == b.env.signal_beta == 2.0
        assert a.env.risk_map == b.env.risk_map
        assert a.lam == b.lam == 0.75


class TestModeExclusivity:
    def test_both_modes_rejected(self):
        err = _error(_doc(signal_env=POLICY["signal_env"]))
        assert "exactly one" in str(err)

    def test_neither_mode_rejected(self):
        doc = _doc()
        del doc["review_r"]
        del doc["error_curve"]
        err = _error(doc)
        assert "exactly one" in str(err)

    def test_fixed_mode_needs_error_curve(self):
        doc = _doc()
        del doc["error_curve"]
        err = _error(doc)
        assert "error_curve" in str(err)

    def test_policy_mode_rejects_error_curve(self):
        doc = _doc(POLICY, error_curve={"p0": 0.3, "p_inf": 0.1, "kappa": 2.0})
        err = _error(doc)
        assert "error_curve" in str(err)


class TestStrictness:
    def test_unknown_top_level_key_named(self):
        err = _error(_doc(lamda=0.5))
        assert "'lamda'" in str(err)

    def test_unknown_nested_key_named(self):
        err = _error(_doc(manual={"tau_H": 1.0, "c2_H": 0.1, "cv": 0.3}))
        assert "manual" in str(err)
        assert "'cv'" in str(err)

    def test_missing_required_key(self):
        doc = _doc()
        del doc["capacity_C"]
        err = _error(doc)
        assert "capacity_C" in str(err)

    def test_negative_rate_names_the_field(self):
        err = _error(_doc(**{"lambda": -1}))
        assert err.field == "lambda"
        assert "lambda must be > 0" in str(err)

    @pytest.mark.parametrize("block, key", [(None, "lambda"), ("manual", "tau_H")])
    def test_integer_beyond_float_range_rejected(self, block, key):
        doc = _doc()
        (doc if block is None else doc[block])[key] = int("9" * 401)
        err = _error(doc)
        assert err.field == (key if block is None else f"{block}.{key}")
        assert "overflows a float" in str(err)

    def test_booleans_are_not_numbers(self):
        err = _error(_doc(x=True))
        assert "must be a number" in str(err)

    def test_non_integer_seed_rejected(self):
        err = _error(_doc(sim={"seed": 1.5}))
        assert "sim.seed" in str(err)

    def test_wrong_block_type(self):
        err = _error(_doc(manual=[1.0, 0.1]))
        assert "manual" in str(err)

    def test_non_object_document(self):
        assert "single JSON object" in str(_error([MINIMAL]))

    def test_nested_errors_carry_their_path(self):
        err = _error(_doc(manual={"tau_H": -1.0, "c2_H": 0.1}))
        assert str(err).startswith("manual")
        err = _error(_doc(manual={"tau_H": "x", "c2_H": 0.1}))
        assert err.field == "manual.tau_H"
        assert str(err) == "manual.tau_H: tau_H must be a number, got 'x'"
        doc = _doc(POLICY)
        doc["signal_env"] = json.loads(json.dumps(POLICY["signal_env"]))
        doc["signal_env"]["risk_map"]["g"] = -1.0
        err = _error(doc)
        assert "signal_env" in str(err)

    @pytest.mark.parametrize(
        "block, key, value, field",
        [
            # Each overflows a moment the model derives: tau_H^2, mu_R^2 and
            # the review threshold scale kappa * K * (1 - p_inf).
            ("manual", "tau_H", 1e200, "manual.tau_H"),
            ("rework", "mu_R", 1e300, "rework.mu_R"),
            ("signal_env", "K", 1e308, "signal_env.K"),
        ],
    )
    def test_overflowing_derived_moments_rejected(self, block, key, value, field):
        doc = _doc(POLICY if block == "signal_env" else MINIMAL)
        doc[block] = dict(doc[block], **{key: value})
        err = _error(doc)
        assert err.field == field
        assert "overflows" in str(err)


class TestSimBlock:
    def test_overrides_apply(self):
        doc = _doc(sim={"seed": 7, "n_arrivals": 50_000, "warmup_fraction": 0.1,
                        "n_batches": 16, "reps": 3, "rework_mode": "feedback"})
        sim = workflow_from_dict(doc).sim
        assert (sim.seed, sim.n_arrivals, sim.warmup_fraction) == (7, 50_000, 0.1)
        assert (sim.n_batches, sim.reps, sim.rework_mode) == (16, 3, "feedback")

    @pytest.mark.parametrize(
        "bad",
        [
            {"seed": -1},
            {"n_arrivals": 50},
            {"warmup_fraction": 0.7},
            {"n_batches": 1},
            {"reps": 0},
            {"rework_mode": "parallel"},
            {"n_arrivals": 10**30},
            {"n_arrivals": 100_000_001},
            {"n_batches": 10_001},
            {"reps": 1_001},
        ],
    )
    def test_bad_values_rejected(self, bad):
        err = _error(_doc(sim=bad))
        assert "sim" in str(err)
        assert err.field == f"sim.{next(iter(bad))}"


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            load_config(tmp_path / "nope.json")
        assert "cannot read config" in str(err.value)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"lambda": 0.5,\n  "capacity_C": }\n')
        with pytest.raises(ValidationError) as err:
            load_config(path)
        assert "line 2" in str(err.value)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(MINIMAL))
        spec = load_config(path)
        assert spec.lam == 0.5
        assert spec.manual.tau_H == 1.0


def _documented_defaults() -> dict[str, dict[str, str]]:
    """Each docs/config.md key table: section -> {key: default cell, or None without one}."""
    tables, section, columns = {}, None, None
    for line in CONFIG_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            match = re.match(r"## `?([^`]+)`?", line)
            section, columns = match.group(1).strip(), None
        elif line.startswith("|") and section is not None:
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if columns is None:
                columns = cells
            elif columns[0] == "key" and not set(cells[0]) <= set("- "):
                row = dict(zip(columns, cells))
                tables.setdefault(section, {})[row["key"].strip("`")] = row.get("default")
    return tables


class TestDocumentedDefaults:
    """docs/config.md is the one copy of the defaults besides the dataclasses."""

    # JSON key -> the init fields it sets, where the names differ.
    FIELDS_OF = {"lambda": ("lam",), "capacity_C": ("capacity",), "error_curve": ("curve",),
                 "signal_env": ("env",), "signal": ("signal_alpha", "signal_beta")}

    @pytest.mark.parametrize(
        "section, cls",
        [("Top level", WorkflowSpec), ("manual", ManualRoute), ("rework", ReworkModel),
         ("error_curve", ErrorCurve), ("signal_env", SignalEnvironment), ("sim", SimSettings)],
    )
    def test_table_matches_dataclass(self, section, cls):
        table = _documented_defaults()[section]
        init_fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
        documented = [name for key in table for name in self.FIELDS_OF.get(key, (key,))]
        assert sorted(documented) == sorted(init_fields)
        for key, cell in table.items():
            for name in self.FIELDS_OF.get(key, (key,)):
                field = init_fields[name]
                if cell in (None, "—"):
                    # No default, or None for a block whose absence selects a mode.
                    assert field.default in (dataclasses.MISSING, None), name
                    assert field.default_factory is dataclasses.MISSING, name
                elif cell == "`{}`":
                    assert field.default_factory is not dataclasses.MISSING, name
                else:
                    value = json.loads(cell.strip("`"))
                    assert (type(value), value) == (type(field.default), field.default), name
