"""Tests for config parsing, report generation, and the CLI entry point."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellpost import cli, lhv, protocol, swap
from bellpost.cli import ConfigError, config_from_doc, main, render_csv, render_report, run
from bellpost.qcore import NumericsError
from conftest import CorruptingGenerator, exact_s_of_sim_model, reference_render, sampled_law

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "docs" / "examples"

TWO_SQRT2 = 2 * math.sqrt(2)

# An integer literal far outside the float range.
HUGE = int("9" * 400)


def _schemes_doc(**alice_basis0) -> dict:
    """The canonical scheme pair as a config object, Alice's basis 0 overridden."""
    return {
        "alice": {
            "basis0": {"angles": [0.0, math.pi], **alice_basis0},
            "basis1": {"angles": [math.pi / 2, 3 * math.pi / 2]},
        },
        "bob": {
            "basis0": {"angles": [math.pi / 4, 5 * math.pi / 4]},
            "basis1": {"angles": [7 * math.pi / 4, 3 * math.pi / 4]},
        },
    }


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


class TestParseConfig:
    def test_all_documented_examples_parse(self):
        paths = sorted(EXAMPLES.glob("*.json"))
        assert len(paths) == 9  # one per mode plus the sweep variant
        for path in paths:
            cfg = config_from_doc(json.loads(path.read_text()))
            assert cfg.mode in cli.MODES

    def test_documented_quantum_mc_example(self):
        cfg = config_from_doc(json.loads((EXAMPLES / "quantum_mc.json").read_text()))
        assert cfg.mode == "quantum-mc"
        assert cfg.trials == 10**6
        assert cfg.seed == 42

    def test_unnormalized_priors_name_the_field(self):
        doc = {
            "mode": "quantum-mc",
            "schemes": {
                "alice": {
                    "basis0": {"angles": [0.0, math.pi], "priors": [0.7, 0.2]},
                    "basis1": {"angles": [1.5708, 4.7124]},
                },
                "bob": {
                    "basis0": {"angles": [0.7854, 3.927]},
                    "basis1": {"angles": [5.4978, 2.3562]},
                },
            },
        }
        with pytest.raises(ConfigError, match=r"schemes\.alice\.basis0\.priors"):
            config_from_doc(doc)

    def test_loophole_arity_error(self):
        with pytest.raises(ConfigError, match="81"):
            config_from_doc({"mode": "loophole", "trit_weights": [1 / 80] * 80})

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown mode"):
            config_from_doc({"mode": "teleport"})

    def test_unknown_field_for_mode(self):
        with pytest.raises(ConfigError, match="unknown field"):
            config_from_doc({"mode": "quantum-exact", "trials": 5})

    def test_missing_required_model(self):
        with pytest.raises(ConfigError, match="lhv_model"):
            config_from_doc({"mode": "lhv-mc"})

    def test_invalid_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["lhv-max", "--config", str(cfg)]) == 2
        out = _strict_json(capsys.readouterr().out)
        assert out["error"]["type"] == "ConfigError"
        assert "not valid JSON" in out["error"]["message"]

    def test_bad_schema_version(self):
        for version in (2, True, 1.0, "1"):
            with pytest.raises(ConfigError, match="schema_version"):
                config_from_doc({"mode": "lhv-max", "schema_version": version})

    def test_seed_range_enforced(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_doc({"mode": "lhv-max", "seed": -1})

    def test_nonfinite_constants_rejected(self):
        for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
            with pytest.raises(ConfigError, match="non-finite"):
                config_from_doc(json.loads(f'{{"mode": "check-independence", "tol": {literal}}}'))

    def test_nonfinite_tol_rejected(self):
        for tol in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="tol"):
                config_from_doc({"mode": "check-independence", "tol": tol})

    @pytest.mark.parametrize(
        "doc",
        [
            {"mode": "quantum-mc", "schemes": _schemes_doc(priors=[math.nan, 0.5])},
            {"mode": "swap", "noise": {"jitter_bob": math.nan}},
        ],
        ids=["prior", "jitter"],
    )
    def test_nonfinite_numbers_rejected_through_api(self, doc):
        with pytest.raises(ConfigError, match="non-finite"):
            config_from_doc(doc)

    @pytest.mark.parametrize(
        "path",
        [
            ("schemes", "alice"),
            ("schemes", "alice", "basis0"),
            ("lhv_model", "lambda"),
            ("lhv_model", "lambda_prime"),
        ],
        ids=".".join,
    )
    def test_unknown_nested_field(self, path):
        if path[0] == "schemes":
            doc = {"mode": "quantum-mc", "schemes": _schemes_doc()}
        else:
            doc = json.loads((EXAMPLES / "lhv_mc.json").read_text())
        node = doc
        for key in path:
            node = node[key]
        node["prios"] = [0.9, 0.1]
        with pytest.raises(ConfigError, match=r"unknown field.*prios"):
            config_from_doc(doc)

    def test_bootstrap_field_rejected(self):
        # Report schema 2 computes its error bars in closed form.
        for mode in ("quantum-mc", "lhv-mc", "swap"):
            with pytest.raises(ConfigError, match=r"unknown field.*bootstrap"):
                config_from_doc({"mode": mode, "bootstrap": 1000})

    def test_count_upper_limits_accepted(self):
        # Validation only: nothing runs 10^10 trials here.
        assert config_from_doc({"mode": "quantum-mc", "trials": 10**10}).trials == 10**10
        for mode in ("lhv-max", "lhv-indet"):
            assert config_from_doc({"mode": mode, "samples": 10**6}).samples == 10**6

    def test_sweep_grid_validated(self):
        with pytest.raises(ConfigError, match=r"sweep\.grid"):
            config_from_doc({"mode": "swap", "sweep": {"grid": [0.0, 1.5]}})


class TestRunReports:
    def test_quantum_exact_canonical(self):
        report = run(config_from_doc({"mode": "quantum-exact"}))
        results = report["results"]
        assert results["s"] == pytest.approx(TWO_SQRT2, abs=1e-9)
        assert results["s_bob_labels_swapped"] == pytest.approx(0.0, abs=1e-12)
        assert results["selection_rate_spread"] < 1e-12
        assert results["no_signaling_gap"] < 1e-12
        assert report["verdict"] == "task completed"

    def test_lhv_max(self):
        report = run(config_from_doc({"mode": "lhv-max", "samples": 500}))
        assert report["results"]["max_abs_s"] == 2.0
        assert report["results"]["random_max_abs_s"] <= 2.0 + 1e-12
        assert report["verdict"] == "classical bound"

    def test_loophole_default_example(self):
        report = run(config_from_doc({"mode": "loophole"}))
        assert report["results"]["s"] == 4.0
        assert all(v == 0.25 for v in report["results"]["retained"].values())
        assert report["verdict"] == "task completed"

    def test_check_independence_perturbed_scheme(self):
        doc = {
            "mode": "check-independence",
            "schemes": {
                "alice": {
                    "basis0": {"angles": [0.0, math.pi]},
                    "basis1": {"angles": [math.pi / 2 + 0.2, 3 * math.pi / 2]},
                },
                "bob": {
                    "basis0": {"angles": [math.pi / 4, 5 * math.pi / 4]},
                    "basis1": {"angles": [7 * math.pi / 4, 3 * math.pi / 4]},
                },
            },
            "tol": 1e-6,
        }
        report = run(config_from_doc(doc))
        assert report["results"]["alice"]["distance"] > 0.01
        assert not report["results"]["alice"]["pass"]
        assert report["results"]["bob"]["pass"]
        assert report["verdict"] == "condition violated"

    def test_config_echo_contains_defaults(self):
        report = run(config_from_doc({"mode": "quantum-mc", "trials": 1000}))
        echo = report["config"]
        assert report["schema_version"] == cli.REPORT_SCHEMA_VERSION == 13
        assert echo["schema_version"] == cli.CONFIG_SCHEMA_VERSION == 1
        assert echo["seed"] == 0
        assert "alice" in echo["schemes"]

    def test_sampled_modes_report_exact_s(self):
        report = run(config_from_doc({"mode": "quantum-mc", "trials": 1000}))
        assert report["results"]["exact_s"] == protocol.exact_s(*protocol.canonical_schemes())
        doc = json.loads((EXAMPLES / "lhv_mc.json").read_text())
        doc["trials"] = 1000
        cfg = config_from_doc(doc)
        want = exact_s_of_sim_model(cfg.lhv_model)
        assert run(cfg)["results"]["exact_s"] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("mode, order", [
        ("quantum-mc", None),
        ("lhv-mc", None),
        ("swap", "parties-first"),
        ("swap", "charlie-first"),
    ])
    def test_sampled_modes_sample_the_announced_law(self, monkeypatch, mode, order):
        # The array each sampled mode hands the sampler is, bit for bit, the
        # announced law W[a, b, x, y] of its builder.
        docs = {
            "quantum-mc": {"schemes": _schemes_doc(priors=[0.3, 0.7])},
            "lhv-mc": {"lhv_model": {
                "lambda": {"values": [0.2, 0.8], "probs": [0.4, 0.6]},
                "lambda_prime": {"values": [0.5], "probs": [1.0]},
                "response_a": [[0.1, 0.9], [0.7, 0.2]],
                "response_b": [[0.4], [0.6]],
                "select": [[0.9], [0.4]],
            }},
            "swap": {"order": order, "noise": {"depol_alice": 0.1, "jitter_bob": 0.3,
                                               "charlie_mix": 0.2}},
        }
        cfg = config_from_doc({"mode": mode, "trials": 1000, **docs[mode]})
        law = sampled_law(monkeypatch, lambda: run(cfg))
        builders = {
            "quantum-mc": lambda: protocol.announced_weights(*cfg.schemes),
            "lhv-mc": lambda: lhv.announced_weights(cfg.lhv_model),
            "swap": lambda: swap.joint_distribution(cfg.noise, order),
        }
        want = builders[mode]()
        assert law.shape == want.shape == (2, 2, 2, 2)
        assert law.tobytes() == want.tobytes()

    def test_one_sign_cells_give_no_violation(self):
        # 11 selected trials, every cell all one sign: S = 4 with se(S) = 0,
        # which the distribution-free bound does not count as a violation.
        report = run(config_from_doc({"mode": "quantum-mc", "trials": 40, "seed": 63}))
        results = report["results"]
        assert (results["s"], results["se_s"], results["n_selected"]) == (4.0, 0.0, 11)
        assert results["p_value"] > 0.1
        assert report["verdict"] == "no violation"

    def test_one_sign_tally_gives_no_violation(self):
        # The same case built by hand, so it does not depend on the stream.
        counts = np.zeros((2, 2, 2, 2), dtype=int)
        counts[:, :, 0, 0] = [[4, 4], [3, 0]]
        counts[1, 1, 0, 1] = 4
        rep = protocol.bell_report(protocol.Tally(counts, 40))
        assert (rep.s, rep.se_s, rep.n_selected) == (4.0, 0.0, 15)
        assert rep.p_value > 0.1
        assert cli._verdict_sampled(rep) == "no violation"

    def test_sampled_verdict_follows_p_value(self):
        report = run(config_from_doc({"mode": "quantum-mc", "trials": 20_000, "seed": 5}))
        assert report["results"]["p_value"] < 2.87e-7
        assert report["verdict"] == "task completed"

    def test_report_round_trips(self):
        report = run(config_from_doc({"mode": "quantum-exact"}))
        text = render_report(report)
        assert render_report(json.loads(text)) == text

    def test_reports_reproducible(self):
        doc = {"mode": "quantum-mc", "trials": 20_000, "seed": 5}
        assert render_report(run(config_from_doc(doc))) == render_report(run(config_from_doc(doc)))

    def test_csv_agrees_with_report(self):
        report = run(config_from_doc({"mode": "quantum-mc", "trials": 20_000, "seed": 5}))
        rendered = json.loads(render_report(report))
        lines = render_csv(report).strip().splitlines()
        assert lines[0] == "a,b,E,se"
        for line in lines[1:]:
            a, b, e_txt, se_txt = line.split(",")
            assert float(e_txt) == rendered["results"]["e"][f"{a}{b}"]
            assert float(se_txt) == rendered["results"]["se_e"][f"{a}{b}"]

    def test_sweep_rows(self):
        report = run(config_from_doc({"mode": "swap", "sweep": {"grid": [0.0, 0.5, 1.0]}}))
        rows = report["results"]["sweep"]
        assert rows[0]["s_exact"] == pytest.approx(TWO_SQRT2, abs=1e-9)
        assert rows[-1]["s_exact"] == pytest.approx(0.0, abs=1e-9)
        csv_lines = render_csv(report).strip().splitlines()
        assert csv_lines[0] == "p,S_exact"
        assert len(csv_lines) == 4

    def test_csv_unavailable_for_scalar_modes(self):
        report = run(config_from_doc({"mode": "lhv-max", "samples": 10}))
        with pytest.raises(ConfigError, match="no CSV"):
            render_csv(report)


# Floats where %.12g text and the repr of the rounded value part ways or
# nearly do: signed zero, subnormals, the 1e12-1e16 band where %g writes an
# exponent and repr does not, and the exponent forms on either side of it.
_EDGE_FLOATS = st.sampled_from([
    -0.0, 5e-324, 2.2250738585072009e-308, 1e-5, 1.5e-5, 9.99999999999e-5, 1e12,
    999999999999.5, 1.23456789012345e13, 1e15, 9999999999999998.0, 1e16, 1e300, -1e300,
])
_FLOATS = st.one_of(
    _EDGE_FLOATS,
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e12, max_value=1e16),
    st.floats(min_value=-1e16, max_value=-1e12),
)
_TEXT = st.text(st.characters(max_codepoint=0x1F) | st.sampled_from('"\\/aé€\u2028😀'))
_LEAVES = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(),
    st.integers(min_value=10**29, max_value=10**40).flatmap(lambda n: st.sampled_from([n, -n])),
    st.booleans(),
    st.none(),
    st.text(),
    _TEXT,
)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text() | _TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


class TestRenderReport:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_DOCS)
    @example({"s": 1.0, "n": [1e12, [-0.0]]})
    def test_matches_round_then_dump(self, doc):
        assert render_report(doc) == reference_render(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_nonfinite_is_numerics_error(self, value):
        doc = {"results": {"e": [0.5, value]}}
        with pytest.raises(NumericsError) as want:
            reference_render(doc)
        with pytest.raises(NumericsError) as got:
            render_report(doc)
        assert str(got.value) == str(want.value)


class TestMain:
    def test_success_exit_code_and_stdout(self, capsys):
        assert main(["quantum-exact"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "task completed"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "quantum-mc", "trials": 999, "seed": 1}))
        assert main(["quantum-mc", "--config", str(cfg), "--trials", "2000", "--seed", "7"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["trials"] == 2000
        assert out["config"]["seed"] == 7

    def test_config_error_exit_code(self, capsys):
        rc = main(["loophole", "--config", "/nonexistent/path.json"])
        assert rc == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"]["type"] == "ConfigError"

    def test_mode_mismatch_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "loophole"}))
        assert main(["lhv-max", "--config", str(cfg)]) == 2

    def test_all_discarded_loophole_exits_3(self, capsys, tmp_path):
        # Alice keeps i = 0 under basis 0 and discards under basis 1, so
        # pairs (1, 0) and (1, 1) keep no weight; the error names the first.
        weights = np.zeros((3, 3, 3, 3))
        weights[0, 2, 0, 0] = 1.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "loophole", "trit_weights": weights.ravel().tolist()}))
        assert main(["loophole", "--config", str(cfg)]) == 3
        out = _strict_json(capsys.readouterr().out)
        assert out["error"]["type"] == "EmptyCellError"
        assert "(a=1, b=0)" in out["error"]["message"]

    def test_csv_format_stdout(self, capsys):
        assert main(["swap", "--grid", "0,1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,S_exact"
        assert len(lines) == 3

    def test_out_and_csv_files(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        csv_path = tmp_path / "table.csv"
        rc = main(
            [
                "quantum-mc",
                "--trials",
                "5000",
                "--out",
                str(out_path),
                "--csv",
                str(csv_path),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert out_path.read_text() == stdout
        assert csv_path.read_text().splitlines()[0] == "a,b,E,se"

    @pytest.mark.parametrize(
        "argv, usage",
        [(["-h"], "usage: bellpost [-h] MODE"),
         (["quantum-mc", "--help"], "usage: bellpost quantum-mc"),
         (["swap", "--trials", "10", "-h"], "--grid P0,P1,...")],
    )
    def test_help_is_strict_json(self, capsys, argv, usage):
        assert main(argv) == 0
        out = _strict_json(capsys.readouterr().out)
        assert list(out) == ["help"]
        assert usage in out["help"]

    @pytest.mark.parametrize("argv", [["-h"], ["quantum-mc", "-h"], ["swap", "--help"]])
    def test_help_does_not_depend_on_columns(self, capsys, monkeypatch, argv):
        outputs = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_side_file_exits_2(self, capsys, tmp_path, flag):
        target = tmp_path / "missing" / "side.txt"
        assert main(["quantum-mc", "--trials", "2000", flag, str(target)]) == 2
        out = _strict_json(capsys.readouterr().out)
        assert list(out) == ["error"]
        assert out["error"]["type"] == "ConfigError"
        assert str(target) in out["error"]["message"]

    @pytest.mark.parametrize(
        "mode, key, count",
        [("quantum-mc", "trials", 10**10 + 1), ("lhv-max", "samples", 10**6 + 1),
         ("lhv-indet", "samples", 10**6 + 1)],
    )
    def test_count_above_limit_exits_2(self, capsys, tmp_path, mode, key, count):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: count}))
        assert main([mode, "--config", str(cfg)]) == 2
        out = _strict_json(capsys.readouterr().out)
        assert out["error"]["type"] == "ConfigError"
        assert key in out["error"]["message"]

    @pytest.mark.parametrize("points, code", [(10**4, 0), (10**4 + 1, 2)])
    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_sweep_grid_limit(self, capsys, tmp_path, via, points, code):
        grid = np.linspace(0.0, 1.0, points).tolist()
        if via == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"sweep": {"grid": grid}}))
            argv = ["swap", "--config", str(cfg)]
        else:
            argv = ["swap", "--grid", ",".join(map(repr, grid))]
        assert main(argv) == code
        out = _strict_json(capsys.readouterr().out)
        if code:
            assert out["error"]["type"] == "ConfigError"
            assert "sweep.grid" in out["error"]["message"]
        else:
            assert [row["p"] for row in out["results"]["sweep"]] == pytest.approx(grid, abs=1e-12)

    def test_nonfinite_report_number_exits_4(self, capsys, monkeypatch):
        # No accepted config yields a NaN, so stand in a runner result that holds one.
        nan_s = (math.nan, np.zeros((2, 2)), np.ones((2, 2)))
        monkeypatch.setattr(cli.lhv, "s_with_discards", lambda weights: nan_s)
        assert main(["loophole"]) == 4
        out = _strict_json(capsys.readouterr().out)
        assert out["error"]["type"] == "NumericsError"

    @pytest.mark.parametrize("method, value", [("standard_exponential", -0.25), ("random", math.nan)])
    def test_bad_sweep_draw_exits_4(self, capsys, monkeypatch, method, value):
        # A random model that fails ResponseModel's checks is a numerical
        # violation, not a traceback.  The first model of seed 0 has 5 atoms,
        # so a negative exponential leaves a negative weight.
        real = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: CorruptingGenerator(real(seed), method, value)
        )
        assert main(["lhv-indet"]) == 4
        out = _strict_json(capsys.readouterr().out)
        assert out["error"]["type"] == "NumericsError"

    def test_nan_prior_exits_2(self, capsys, tmp_path):
        # json.dumps writes the NaN literal that json.loads would otherwise accept.
        doc = {
            "mode": "quantum-mc",
            "trials": 1000,
            "schemes": _schemes_doc(priors=[math.nan, 0.5]),
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["quantum-mc", "--config", str(cfg)]) == 2
        out = _strict_json(capsys.readouterr().out)
        assert out["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize(
        "mode, doc",
        [
            ("swap", {"noise": {"jitter_alice": HUGE}}),
            ("quantum-exact", {"schemes": _schemes_doc(angles=[HUGE, math.pi])}),
            ("loophole", {"trit_weights": [HUGE] + [0.0] * 80}),
        ],
        ids=["jitter", "angle", "trit_weights"],
    )
    def test_oversized_integer_exits_2(self, capsys, tmp_path, mode, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": mode, **doc}))
        assert main([mode, "--config", str(cfg)]) == 2
        out = _strict_json(capsys.readouterr().out)
        assert out["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("count", ["1", "-1", "1000001", str(2**62)])
    def test_bootstrap_out_of_range_exits_2(self, capsys, count):
        # Report schema 2 has no --bootstrap flag, so every count is a usage
        # error, reported as a JSON config error.
        assert main(["quantum-mc", "--trials", "1000", "--bootstrap", count]) == 2
        out = _strict_json(capsys.readouterr().out)
        assert out["error"]["type"] == "ConfigError"
        assert "bootstrap" in out["error"]["message"]

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe{}", b"[" * 100_000, b'{"seed": 1' + b"0" * 5000 + b"}"],
        ids=["not-utf8", "deeply-nested", "5000-digit-integer"],
    )
    def test_undecodable_config_exits_2(self, capsys, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        assert main(["lhv-max", "--config", str(cfg)]) == 2
        out = _strict_json(capsys.readouterr().out)
        assert out["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_nonfinite_tol_flag_exits_2(self, capsys, tol):
        assert main(["check-independence", f"--tol={tol}"]) == 2
        out = _strict_json(capsys.readouterr().out)
        assert out["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("tol", ["1e-320", "1e-13"])
    def test_tol_below_exact_tol_exits_2(self, capsys, tol):
        # The canonical pair's distances are a few 1e-17 of rounding, so a
        # smaller tolerance would fail an exactly independent scheme.
        assert main(["check-independence", f"--tol={tol}"]) == 2
        out = _strict_json(capsys.readouterr().out)
        assert out["error"]["type"] == "ConfigError"
        assert "tol" in out["error"]["message"]

    def test_tol_at_exact_tol_passes(self, capsys):
        assert main(["check-independence", "--tol=1e-12"]) == 0
        out = _strict_json(capsys.readouterr().out)
        assert out["verdict"] == "condition satisfied"

    def test_cached_parser_carries_no_state(self, capsys):
        sequence = [
            ["-h"],
            ["quantum-mc", "--trials", "abc"],
            ["swap", "--grid", "0.1,0.2"],
            ["swap", "--trials", "2000"],
            ["check-independence", "--tol", "1e-9"],
            ["quantum-exact"],
        ]

        def call(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        cli._build_parser.cache_clear()
        shared = [call(argv) for argv in sequence]
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(sequence) - 1)
        for argv, got in zip(sequence, shared):
            cli._build_parser.cache_clear()
            assert got == call(argv), argv
        assert [code for code, _ in shared] == [0, 2, 0, 0, 0, 0]

    def test_swap_run_evaluates_each_joint_once(self, capsys, monkeypatch):
        calls = []
        original = cli.swap.joint_distribution

        def counted(noise, order):
            calls.append(order)
            return original(noise, order)

        monkeypatch.setattr(cli.swap, "joint_distribution", counted)
        assert main(["swap", "--trials", "2000"]) == 0
        assert sorted(calls) == sorted(cli.swap.ORDERS)

    def test_quantum_mc_builds_one_selection_table(self, capsys, monkeypatch):
        calls = []
        original = cli.protocol.selection_probability_table

        def counted(angles_a, angles_b):
            calls.append(1)
            return original(angles_a, angles_b)

        monkeypatch.setattr(cli.protocol, "selection_probability_table", counted)
        assert main(["quantum-mc", "--trials", "2000"]) == 0
        assert len(calls) == 1

    def test_lhv_mc_builds_one_announced_law(self, capsys, monkeypatch):
        calls = []
        original = cli.lhv.announced_weights

        def counted(m):
            calls.append(1)
            return original(m)

        monkeypatch.setattr(cli.lhv, "announced_weights", counted)
        assert main(["lhv-mc", "--config", str(EXAMPLES / "lhv_mc.json"), "--trials", "2000"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["quantum-mc", "lhv-mc"])
    def test_zero_rate_exits_3_before_sampling(self, capsys, monkeypatch, tmp_path, mode):
        # quantum-mc: Alice sends |0> in basis 0 and Bob always sends |1>, so
        # the exact rates of pairs (0, 0) and (0, 1) are zero.  lhv-mc: the
        # selection never fires, so every pair is empty.  The error names the
        # first empty pair.
        def never(*args):
            raise AssertionError("sampled a run whose exact table is undefined")

        monkeypatch.setattr(protocol, "sample_tally", never)
        if mode == "quantum-mc":
            schemes = _schemes_doc(angles=[0.0, 0.0])
            schemes["bob"] = {f"basis{b}": {"angles": [math.pi, math.pi]} for b in (0, 1)}
            doc = {"mode": mode, "schemes": schemes}
        else:
            point = {"values": [0.5], "probs": [1.0]}
            doc = {"mode": mode, "lhv_model": {
                "lambda": point,
                "lambda_prime": point,
                "response_a": [[0.0], [0.0]],
                "response_b": [[0.0], [0.0]],
                "select": [[0.0]],
            }}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main([mode, "--config", str(cfg)]) == 3
        out = _strict_json(capsys.readouterr().out)
        assert out["error"]["type"] == "EmptyCellError"
        assert "(a=0, b=0)" in out["error"]["message"]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        """Every documented example, and the --grid sweep, prints the same bytes twice.

        ``--out`` writes the bytes that stdout gets.
        """
        argvs = [
            [json.loads(path.read_text())["mode"], "--config", str(path)]
            for path in sorted(EXAMPLES.glob("*.json"))
        ]
        argvs.append(["swap", "--grid", "0,0.25,1"])
        out = tmp_path / "report.json"
        for argv in argvs:
            printed = []
            for _ in range(2):
                assert main([*argv, "--out", str(out)]) == 0, argv
                printed.append(capsys.readouterr().out)
                assert out.read_bytes() == printed[-1].encode(), argv
            assert printed[0] == printed[1], argv


def test_import_loads_no_logging_or_executor():
    """Importing the CLI stays cheap: neither logging nor concurrent.futures loads."""
    code = (
        "import sys, bellpost.cli; "
        "print(sorted(m for m in ('logging', 'concurrent.futures') if m in sys.modules))"
    )
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    ).stdout
    assert out.strip() == "[]"


def test_import_builds_no_parser():
    """The parser is built on the first ``main`` call, not when the CLI is imported."""
    code = "import bellpost.cli as cli; print(cli._build_parser.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60,
    ).stdout
    assert out.strip() == "0"


def test_readme_report_schema_version_is_current():
    """README states the report schema version that cli.REPORT_SCHEMA_VERSION writes."""
    text = (ROOT / "README.md").read_text()
    stated = re.findall(r"a\s+report's\s+top-level\s+`schema_version`\s+is\s+(\d+)", text)
    assert stated == [str(cli.REPORT_SCHEMA_VERSION)]


def test_readme_sampler_sizes_are_current():
    """README's block sizes and split threshold are protocol.BLOCK_TRIALS,
    SPLIT_BLOCK_TRIALS and SHARE_TRIALS."""
    text = " ".join((ROOT / "README.md").read_text().split())

    def stated(before: str) -> list[int]:
        found = re.findall(before + r" (\d{1,3}(?: \d{3})*) trials", text)
        return [int(n.replace(" ", "")) for n in found]

    one, split = protocol.BLOCK_TRIALS, protocol.SPLIT_BLOCK_TRIALS
    assert stated("blocks of") == [one, split, one, split]
    assert stated("shares of at least") == [protocol.SHARE_TRIALS]
    assert stated("fewer than") == [2 * protocol.SHARE_TRIALS]


def test_readme_schema_table_lists_the_config_fields():
    """README's config table names each field of cli._FIELDS, in order, with its modes.

    ``all`` stands for every mode, and ``(required)`` marks exactly the modes
    whose default is ``_REQUIRED``.
    """
    text = (ROOT / "README.md").read_text()
    section = text.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\|([^|]+)\|", section, re.M)
    listed = []
    for key, modes in rows:
        if modes.strip() == "all":
            listed.append((key, dict.fromkeys(cli.MODES, False)))
            continue
        entries = [m.strip() for m in modes.split(",")]
        listed.append((key, {m.replace("(required)", "").strip(): "(required)" in m
                             for m in entries}))
    want = [(f.key, {m: d is cli._REQUIRED for m, d in f.defaults.items()}) for f in cli._FIELDS]
    assert listed == want


# Each override flag and the modes that accept it.
OVERRIDE_FLAGS = {
    "--seed": set(cli.MODES),
    "--trials": {"quantum-mc", "lhv-mc", "swap"},
    "--grid": {"swap"},
    "--tol": {"check-independence"},
}
# Flags every mode takes that override no config field.
COMMON_FLAGS = {"--help", "--config", "--out", "--csv", "--format"}


# Every documented example, and each mode that has no required field with its defaults.
ECHO_DOCS = {path.stem: json.loads(path.read_text()) for path in sorted(EXAMPLES.glob("*.json"))}
ECHO_DOCS.update(
    (f"defaults-{mode}", {"mode": mode}) for mode in cli.MODES
    if all(f.defaults.get(mode) is not cli._REQUIRED for f in cli._FIELDS)
)


@pytest.mark.parametrize("doc", ECHO_DOCS.values(), ids=ECHO_DOCS)
def test_config_echo_is_a_normal_form(doc):
    """A report's config echo parses back to a config that echoes the same document."""
    echo = cli._echo_config(config_from_doc(doc))
    assert cli._echo_config(config_from_doc(json.loads(json.dumps(echo)))) == echo


@pytest.mark.parametrize("mode", cli.MODES)
def test_help_lists_the_mode_override_flags(capsys, mode):
    """A mode's help lists an override flag exactly for each of its fields that has one."""
    assert main([mode, "-h"]) == 0
    listed = set(re.findall(r"^  (--[a-z]+)", _strict_json(capsys.readouterr().out)["help"], re.M))
    want = {f.flag[0] for f in cli._FIELDS if f.flag and mode in f.defaults}
    assert listed - COMMON_FLAGS == want
    assert want == {flag for flag, modes in OVERRIDE_FLAGS.items() if mode in modes}


@pytest.mark.parametrize(
    "argv",
    [["quantum-exact", "--trials", "5"], ["lhv-max", "--tol", "1e-9"],
     ["quantum-mc", "--grid", "0.5"]],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_override_flag_outside_its_modes_exits_2(capsys, argv):
    assert main(argv) == 2
    out = _strict_json(capsys.readouterr().out)
    assert out["error"]["type"] == "ConfigError"
    assert "unrecognized arguments" in out["error"]["message"]
