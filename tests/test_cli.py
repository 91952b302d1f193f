import json
import math
import subprocess
import sys

import pytest

from metrolab.cli import (
    ConfigError,
    ScenarioConfig,
    SCENARIOS,
    main,
    run_scenario,
    validate_config,
)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# schema=1"
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestValidateConfig:
    def test_minimal_valid(self):
        config = validate_config('{"scenario": "noon-scaling"}')
        assert config.scenario == "noon-scaling"
        assert config.params["n_values"] == list(range(1, 9))
        assert config.output_path == "noon-scaling.csv"

    def test_syntax_error_reports_position(self):
        with pytest.raises(ConfigError) as err:
            validate_config('{"scenario": }')
        assert "line 1" in err.value.errors[0]

    def test_unknown_scenario_lists_valid_names(self):
        with pytest.raises(ConfigError) as err:
            validate_config('{"scenario": "warp-drive"}')
        message = err.value.errors[0]
        for name in SCENARIOS:
            assert name in message

    def test_negative_n_names_field(self):
        doc = {"scenario": "noon-scaling", "params": {"n_values": [2, -1]}}
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps(doc))
        assert any("n_values" in line for line in err.value.errors)

    def test_collects_all_errors(self):
        doc = {
            "scenario": "lossy-sweep",
            "params": {"n_total": 0, "probe": "bogus", "bad_param": 1},
            "output": 7,
        }
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps(doc))
        joined = "\n".join(err.value.errors)
        assert "n_total" in joined
        assert "probe" in joined
        assert "bad_param" in joined
        assert "output" in joined
        assert len(err.value.errors) >= 4

    def test_n_above_cap_rejected(self):
        doc = {"scenario": "noon-scaling", "params": {"n_values": [61]}}
        with pytest.raises(ConfigError):
            validate_config(json.dumps(doc))

    def test_dim_cap_env_override(self, monkeypatch):
        doc = {"scenario": "lossy-sweep", "params": {"n_total": 12}}
        validate_config(json.dumps(doc))  # C(16,4) = 1820 fits the default cap
        for raw in ("100", "lots", "-5", "0"):
            monkeypatch.setenv("METROLAB_MAX_DIM", raw)
            with pytest.raises(ConfigError) as err:
                validate_config(json.dumps(doc))
            assert any("METROLAB_MAX_DIM" in line for line in err.value.errors)
        monkeypatch.setenv("METROLAB_MAX_DIM", "2000")
        validate_config(json.dumps(doc))

    def test_defaults(self):
        # The parameters each scenario runs with when the config gives none;
        # an empty coeffs list means the coefficients are drawn from the seed.
        expected = {
            "noon-scaling": {"n_values": list(range(1, 9))},
            "cat-vs-noon": {"alphas": [1.0, 2.0, 3.0]},
            "cv-convergence": {"alpha": 1.0, "n_values": [10, 40, 160]},
            "zeta-optimize": {"n_total": 8, "grid_points": 64, "coeffs": []},
            "lossy-sweep": {
                "n_total": 3,
                "probe": "noon",
                "probe_mode": 0,
                "kappas": [k * math.pi / 16 for k in range(9)],
            },
            "variance-oracle": {"num_cases": 200, "n_max": 30},
        }
        assert sorted(expected) == sorted(SCENARIOS)
        for scenario, params in expected.items():
            config = validate_config(json.dumps({"scenario": scenario}))
            # JSON text tells 1 from 1.0, so the types are pinned too.
            assert json.dumps(config.params, sort_keys=True) == json.dumps(
                {**params, "seed": 0}, sort_keys=True
            )

    def test_bad_seed_rejected(self):
        doc = {"scenario": "noon-scaling", "params": {"seed": -3}}
        with pytest.raises(ConfigError):
            validate_config(json.dumps(doc))


class TestScenarios:
    def test_noon_scaling_values(self, tmp_path):
        out = tmp_path / "noon.csv"
        config = validate_config(json.dumps({"scenario": "noon-scaling"}))
        config.output_path = str(out)
        assert run_scenario(config) == 0
        header, rows = read_rows(out)
        assert header == ["n", "qfi"]
        for row in rows:
            n, qfi = int(row[0]), float(row[1])
            assert abs(qfi - n**2) < 1e-9

    def test_cv_convergence_decreasing(self, tmp_path):
        out = tmp_path / "cv.csv"
        config = validate_config(json.dumps({"scenario": "cv-convergence"}))
        config.output_path = str(out)
        assert run_scenario(config) == 0
        _, rows = read_rows(out)
        infidelities = [float(r[2]) for r in rows]
        assert infidelities == sorted(infidelities, reverse=True)

    def test_zeta_optimize_prints_quarter_pi(self, tmp_path, capsys):
        out = tmp_path / "zeta.csv"
        doc = {"scenario": "zeta-optimize", "params": {"n_total": 8, "seed": 3}}
        config = validate_config(json.dumps(doc))
        config.output_path = str(out)
        assert run_scenario(config) == 0
        captured = capsys.readouterr().out
        assert f"zeta_opt = {math.pi / 4:.17g}" in captured
        perp_line = [l for l in captured.splitlines() if l.startswith("var_perp")][0]
        assert float(perp_line.split("=")[1]) <= 1e-10

    def test_lossy_sweep_monotone(self, tmp_path):
        out = tmp_path / "lossy.csv"
        config = validate_config(json.dumps({"scenario": "lossy-sweep"}))
        config.output_path = str(out)
        assert run_scenario(config) == 0
        _, rows = read_rows(out)
        qfis = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-8 for a, b in zip(qfis, qfis[1:]))

    def test_variance_oracle_diffs_small(self, tmp_path):
        out = tmp_path / "oracle.csv"
        doc = {"scenario": "variance-oracle", "params": {"num_cases": 25, "n_max": 12}}
        config = validate_config(json.dumps(doc))
        config.output_path = str(out)
        assert run_scenario(config) == 0
        _, rows = read_rows(out)
        assert len(rows) == 25
        assert max(float(r[6]) for r in rows) < 1e-10

    def test_cat_vs_noon_columns(self, tmp_path):
        out = tmp_path / "cat.csv"
        doc = {"scenario": "cat-vs-noon", "params": {"alphas": [1.0, 2.0]}}
        config = validate_config(json.dumps(doc))
        config.output_path = str(out)
        assert run_scenario(config) == 0
        header, rows = read_rows(out)
        assert header == ["alpha", "cat_nbar", "cat_qfi", "noon_n", "noon_qfi"]
        assert len(rows) == 2


class TestDeterminism:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_reruns_are_byte_identical(self, tmp_path, scenario):
        params = {"seed": 11}
        if scenario == "variance-oracle":
            params.update(num_cases=10, n_max=10)
        doc = {"scenario": scenario, "params": params}
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            config = validate_config(json.dumps(doc))
            config.output_path = str(out)
            assert run_scenario(config) == 0
        assert first.read_bytes() == second.read_bytes()
        assert b"\r" not in first.read_bytes()

    def test_seed_changes_random_scenario(self, tmp_path):
        outputs = []
        for seed in (1, 2):
            doc = {
                "scenario": "variance-oracle",
                "params": {"seed": seed, "num_cases": 5, "n_max": 8},
            }
            config = validate_config(json.dumps(doc))
            config.output_path = str(tmp_path / f"seed{seed}.csv")
            run_scenario(config)
            outputs.append((tmp_path / f"seed{seed}.csv").read_bytes())
        assert outputs[0] != outputs[1]


class TestMain:
    def test_run_and_validate_roundtrip(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path,
            {"scenario": "noon-scaling", "params": {"n_values": [1, 2, 3]}},
        )
        out = tmp_path / "result.csv"
        assert main(["validate", "--config", str(config_path)]) == 0
        assert main(["run", "--config", str(config_path), "--output", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()

    def test_seed_flag_overrides_config(self, tmp_path):
        config_path = write_config(
            tmp_path,
            {
                "scenario": "variance-oracle",
                "params": {"seed": 1, "num_cases": 5, "n_max": 8},
            },
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["run", "--config", str(config_path), "--output", str(out_a)]) == 0
        assert (
            main(["run", "--config", str(config_path), "--seed", "1", "--output", str(out_b)])
            == 0
        )
        assert out_a.read_bytes() == out_b.read_bytes()
        out_c = tmp_path / "c.csv"
        assert (
            main(["run", "--config", str(config_path), "--seed", "9", "--output", str(out_c)])
            == 0
        )
        assert out_a.read_bytes() != out_c.read_bytes()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"scenario": "nope"})
        assert main(["validate", "--config", str(config_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_infinite_coeff_exits_2_without_output(self, tmp_path, capsys):
        config_path = tmp_path / "inf.json"
        config_path.write_text(
            '{"scenario": "zeta-optimize", "params": {"coeffs": [Infinity, 1, 0, 0, 0]}}',
            encoding="utf-8",
        )
        out = tmp_path / "inf.csv"
        assert main(["run", "--config", str(config_path), "--output", str(out)]) == 2
        assert "Infinity" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_nan_alpha_exits_2(self, tmp_path, capsys, command):
        config_path = tmp_path / "nan.json"
        config_path.write_text(
            '{"scenario": "cv-convergence", "params": {"alpha": NaN}}', encoding="utf-8"
        )
        out = tmp_path / "nan.csv"
        argv = [command, "--config", str(config_path)]
        assert main(argv + (["--output", str(out)] if command == "run" else [])) == 2
        assert "NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["-Infinity", "1e999"])
    def test_other_non_finite_numbers_rejected(self, literal):
        with pytest.raises(ConfigError) as err:
            validate_config('{"scenario": "cv-convergence", "params": {"alpha": %s}}' % literal)
        assert literal in err.value.errors[0]

    def test_bad_dim_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("METROLAB_MAX_DIM", "lots")
        config_path = write_config(tmp_path, {"scenario": "noon-scaling"})
        assert main(["validate", "--config", str(config_path)]) == 2
        assert "METROLAB_MAX_DIM" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, params, field",
        [
            ("cv-convergence", {"alpha": 10**400}, "params.alpha"),
            ("lossy-sweep", {"kappas": [10**400]}, "params.kappas[0]"),
            ("zeta-optimize", {"coeffs": [10**400, 0, 0, 0, 0]}, "params.coeffs[0]"),
            ("zeta-optimize", {"n_total": 10**400}, "params.n_total"),
            ("zeta-optimize", {"n_total": -(10**400), "grid_points": 10**400}, "params."),
        ],
    )
    def test_huge_integer_exits_2(self, tmp_path, capsys, scenario, params, field):
        config_path = write_config(tmp_path, {"scenario": scenario, "params": params})
        assert main(["validate", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == len(params)
        assert all(line.startswith(f"error: {field}") for line in lines)
        assert "Traceback" not in err

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "long.json"
        config_path.write_text(
            '{"scenario": "cv-convergence", "params": {"alpha": %s}}' % ("1" * 5000),
            encoding="utf-8",
        )
        assert main(["validate", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: integer literal with 5000 digits is not allowed\n"

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        depth = 100000
        config_path = tmp_path / "deep.json"
        config_path.write_text(
            '{"scenario": "cv-convergence", "params": {"n_values": %s}}'
            % ("[" * depth + "]" * depth),
            encoding="utf-8",
        )
        assert main(["validate", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: syntax error: arrays or objects nested too deeply\n"

    @pytest.mark.parametrize(
        "coeffs",
        [[1e-200, 0, 0], [1e-160, 0, 0], [1e154, 1e154, 0], [0, 0, 0]],
    )
    def test_unnormalizable_coeffs_exit_2(self, tmp_path, capsys, coeffs):
        doc = {"scenario": "zeta-optimize", "params": {"n_total": 4, "coeffs": coeffs}}
        config_path = write_config(tmp_path, doc)
        out = tmp_path / "zeta.csv"
        assert main(["run", "--config", str(config_path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: params.coeffs:") and err.count("\n") == 1
        assert not out.exists()

    def test_listed_params_are_the_accepted_ones(self, tmp_path, capsys):
        assert main(["list-scenarios"]) == 0
        lines = capsys.readouterr().out.splitlines()
        listed = {
            name.split(":")[0]: params.split("params: ")[1].split(", ")
            for name, params in zip(lines[::2], lines[1::2])
        }
        assert sorted(listed) == sorted(SCENARIOS)
        for scenario, names in listed.items():
            for name in names:  # null takes the default, so only the name is checked
                doc = {"scenario": scenario, "params": {name: None}}
                assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 0
            doc = {"scenario": scenario, "params": {"unlisted": None}}
            assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 2
            assert "params.unlisted: unknown parameter" in capsys.readouterr().err

    def test_list_scenarios_ignores_bad_dim_cap(self, capsys, monkeypatch):
        assert main(["list-scenarios"]) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("METROLAB_MAX_DIM", "lots")
        assert main(["list-scenarios"]) == 0
        assert capsys.readouterr().out == plain

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_unwritable_output(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"scenario": "noon-scaling"})
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["run", "--config", str(config_path), "--output", str(target)]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_module_entry_point(self, tmp_path):
        config_path = write_config(tmp_path, {"scenario": "noon-scaling", "params": {"n_values": [1, 2]}})
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "metrolab",
                "run",
                "--config",
                str(config_path),
                "--output",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def test_scenario_config_default_output():
    config = ScenarioConfig(scenario="noon-scaling")
    assert config.output_path == "noon-scaling.csv"
