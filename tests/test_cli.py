"""Command-line surface: formats, exit codes, determinism, validation."""

import json
import math

import numpy as np
import pytest

from compfade import CompositeModel, ExtremeParams, GammaShadowParams, composite_cdf, mixture_cdf
from compfade import composite, mc, models, validation
from compfade.cli import main
from compfade.errors import NonConvergenceError


def parse_csv_curve(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    assert lines[0] == "x,value"
    xs, vs, atoms, meta = [], [], [], {}
    for line in lines[1:]:
        if line.startswith("#atom,"):
            _, loc, mass = line.split(",")
            atoms.append((float(loc), float(mass)))
        elif line.startswith("#meta,"):
            _, key, value = line.split(",", 2)
            meta[key] = value
        else:
            x, v = line.split(",")
            xs.append(float(x))
            vs.append(float(v))
    return xs, vs, atoms, meta


def first_err_line(capsys):
    return capsys.readouterr().err.splitlines()[0]


AM_MODEL = {"model": "am", "alpha": 2.0, "mu": 1.0}
AM_CONFIG = dict(AM_MODEL, grid="0.5:1.5:3")
AM_GAMMA_CONFIG = dict(AM_CONFIG, model="am-gamma", b=1.5, omega=0.8)


def write_config(tmp_path, entries):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(entries))
    return str(path)


class TestPdfCommand:
    def test_csv_output_roundtrip(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "pdf", "--model", "akm-gamma", "--alpha", "1.5", "--mu", "2.1",
                "--kappa", "1", "--b", "1.1", "--omega", "0.9",
                "--grid", "0.01:4:200", "--out", str(out),
            ]
        )
        assert code == 0
        xs, vs, atoms, _ = parse_csv_curve(out.read_text())
        assert len(xs) == 200
        assert all(v >= 0.0 for v in vs)
        assert all(b > a for a, b in zip(xs, xs[1:]))
        assert atoms == []
        # 17-significant-digit floats round-trip exactly.
        first = out.read_text().splitlines()[1].split(",")[0]
        assert float(first) == xs[0]

    def test_json_output_carries_metadata(self, tmp_path, capsys):
        code = main(
            [
                "pdf", "--model", "am-gamma", "--alpha", "2.4", "--mu", "1.3",
                "--b", "1.5", "--omega", "0.8", "--grid", "0.1:3:50",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"]["family"] == "composite"
        assert payload["metadata"]["tool_version"]
        assert len(payload["abscissae"]) == 50
        assert payload["abscissae"] == sorted(payload["abscissae"])

    def test_extreme_gamma_atom_row(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(
            [
                "pdf", "--model", "extreme-gamma", "--alpha", "2", "--m", "1.1",
                "--b", "1.2", "--omega", "0.8", "--grid", "0.05:3:40", "--out", str(out),
            ]
        )
        assert code == 0
        _, _, atoms, _ = parse_csv_curve(out.read_text())
        assert len(atoms) == 1
        assert atoms[0][0] == 0.0
        assert atoms[0][1] == pytest.approx(math.exp(-2.2), rel=1e-12)

    def test_gamma_shadow_value_at_origin(self, capsys):
        code = main(
            ["pdf", "--model", "gamma-shadow", "--b", "1", "--omega", "2",
             "--grid", "0:4:5"]
        )
        assert code == 0
        xs, vs, _, _ = parse_csv_curve(capsys.readouterr().out)
        assert xs[0] == 0.0
        assert vs[0] == 0.5

    def test_oracle_flag_matches_series_route(self, capsys):
        args = [
            "pdf", "--model", "akm-gamma", "--alpha", "2", "--kappa", "1",
            "--mu", "1.5", "--b", "1.4", "--omega", "0.9", "--grid", "0.5:2:4",
        ]
        assert main(args) == 0
        _, series_vals, _, _ = parse_csv_curve(capsys.readouterr().out)
        assert main(args + ["--oracle"]) == 0
        _, oracle_vals, _, _ = parse_csv_curve(capsys.readouterr().out)
        for s, o in zip(series_vals, oracle_vals):
            assert s == pytest.approx(o, rel=1e-6)

    def test_oracle_flag_leaves_a_plain_model_on_its_route(self, capsys):
        # A plain model has no oracle: --oracle changes neither its values
        # nor the route its metadata names.
        args = ["pdf", "--model", "akm", "--alpha", "2", "--kappa", "1", "--mu", "1.5",
                "--grid", "0.5:2:4", "--format", "json"]
        payloads = []
        for flags in ([], ["--oracle"]):
            assert main(args + flags) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[1]["metadata"]["route"] == "series-or-exact"
        assert payloads[1]["values"] == payloads[0]["values"]

    def test_missing_parameter_is_usage_error(self, capsys):
        code = main(["pdf", "--model", "akm", "--alpha", "2", "--mu", "1"])
        assert code == 2
        assert "kappa" in capsys.readouterr().err

    def test_bad_grid_is_usage_error(self, capsys):
        code = main(
            ["pdf", "--model", "am", "--alpha", "2", "--mu", "1", "--grid", "3:1:10"]
        )
        assert code == 2

    @pytest.mark.parametrize("where", ["missing-dir", "empty"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, where):
        out = str(tmp_path / "missing" / "x.csv") if where == "missing-dir" else ""
        code = main(["pdf", "--model", "am", "--alpha", "2", "--mu", "1", "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out!r}: ")
        assert len(err.splitlines()) == 1

    def test_invalid_parameter_value_is_usage_error(self, capsys):
        code = main(["pdf", "--model", "am", "--alpha", "-2", "--mu", "1"])
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [["--rhat", "0"], ["--series-n", "0"], ["--series-rel-tol", "0"]],
        ids=["rhat", "series-n", "series-rel-tol"],
    )
    def test_zero_setting_is_usage_error(self, extra, capsys):
        # A given zero is a value, not a request for the default.
        model = "akm" if extra[0] == "--rhat" else "akm-gamma"
        code = main(
            ["pdf", "--model", model, "--alpha", "2", "--kappa", "1", "--mu", "1.5",
             "--b", "1.4", "--omega", "0.9", "--grid", "0.5:2:4"] + extra
        )
        assert code == 2

    def test_series_rel_tol_of_one_or_more_is_usage_error(self, capsys):
        # A tolerance of 1 or more would stop the series after three terms.
        code = main(
            ["pdf", "--model", "akm-gamma", "--alpha", "1.5", "--kappa", "1", "--mu", "2.1",
             "--b", "1.1", "--omega", "0.9", "--series-rel-tol", "2"]
        )
        assert code == 2
        assert "rel_tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model,params",
        [
            ("akm", ["--alpha", "2.5", "--kappa", "1.7", "--mu", "1.8"]),
            ("am", ["--alpha", "2.4", "--mu", "1.3"]),
            ("extreme", ["--alpha", "2", "--m", "1.1"]),
            ("gamma-shadow", ["--b", "1.6", "--omega", "0.8"]),
        ],
    )
    def test_rhat_scales_every_plain_model(self, model, params, capsys):
        # f_rhat(x) = f_1(x / rhat) / rhat and F_rhat(x) = F_1(x / rhat).
        for command, factor in (("pdf", 0.5), ("cdf", 1.0)):
            base = [command, "--model", model] + params
            assert main(base + ["--grid", "0.5:1.5:3", "--rhat", "2"]) == 0
            _, scaled, _, _ = parse_csv_curve(capsys.readouterr().out)
            assert main(base + ["--grid", "0.25:0.75:3"]) == 0
            _, unit, _, _ = parse_csv_curve(capsys.readouterr().out)
            assert scaled == pytest.approx([v * factor for v in unit], rel=1e-12)

    def test_kmu_alias_forces_alpha_two(self, capsys):
        code = main(
            ["pdf", "--model", "kmu-gamma", "--kappa", "4", "--mu", "1",
             "--b", "1.8", "--omega", "0.7", "--grid", "0.5:1:2"]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            ["pdf", "--model", "kmu-gamma", "--alpha", "3", "--kappa", "4",
             "--mu", "1", "--b", "1.8", "--omega", "0.7"]
        )
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {"model": "am", "alpha": 2.0, "mu": 1.0, "grid": "0.5:1.5:3"}
            )
        )
        assert main(["pdf", "--config", str(config)]) == 0
        _, vs_config, _, _ = parse_csv_curve(capsys.readouterr().out)
        assert main(["pdf", "--config", str(config), "--mu", "2.0"]) == 0
        _, vs_flag, _, _ = parse_csv_curve(capsys.readouterr().out)
        assert vs_config != vs_flag  # the explicit flag won

    @pytest.mark.parametrize(
        "command,entries,message",
        [
            ("pdf", dict(AM_CONFIG, alpha="abc"), "argument --alpha: invalid float value: 'abc'"),
            ("pdf", dict(AM_GAMMA_CONFIG, oracle="false"), "argument --oracle: ignored explicit"),
            ("pdf", dict(AM_CONFIG, format="xml"), "argument --format: invalid choice: 'xml'"),
            ("sample", dict(AM_MODEL, count=10.7), "argument --count: invalid int value: '10.7'"),
            ("pdf", dict(AM_GAMMA_CONFIG, series_rel_tl=0.5), "arguments: --series-rel-tl=0.5\n"),
            ("sample", dict(AM_MODEL, use_gross=True), "unrecognized arguments: --use-gross\n"),
            ("pdf", dict(AM_CONFIG, model="am-gamma", b=1.5, omeg=0.8),
             "unrecognized arguments: --omeg=0.8\n"),
            ("pdf", dict(AM_CONFIG, form="json"), "unrecognized arguments: --form=json\n"),
        ],
        ids=[
            "non-numeric", "switch-string", "bad-choice", "float-count", "unknown-key",
            "sample-use-gross", "abbreviated-key", "abbreviated-flag",
        ],
    )
    def test_bad_config_entry_is_usage_error(self, command, entries, message, tmp_path, capsys):
        # Config entries are parsed as the flags they name, so a bad value
        # or a key that names no flag of the command exits as a bad flag does;
        # a key or flag that abbreviates one names none.
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--config", write_config(tmp_path, entries)])
        assert exc_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["pdf", "--config", str(missing)]) == 2
        assert f"cannot read config file {missing}" in capsys.readouterr().err
        assert main(["pdf", "--config", write_config(tmp_path, [AM_CONFIG])]) == 2
        assert "config file must contain a JSON object" in capsys.readouterr().err

    def test_config_null_or_false_is_an_absent_flag(self, tmp_path, capsys):
        outputs = []
        for extra in ({}, {"oracle": None, "use_gross": False, "rhat": None}, {"oracle": True}):
            config = write_config(tmp_path, dict(AM_GAMMA_CONFIG, **extra))
            assert main(["pdf", "--config", config, "--format", "json"]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[1] == outputs[0]
        assert outputs[0]["metadata"]["route"] == "series-or-exact"
        assert outputs[2]["metadata"]["route"] == "mixture-oracle"  # true gives the bare switch
        # A zero is a value, not an absent flag: rhat = 0 is rejected.
        assert main(["pdf", "--config", write_config(tmp_path, dict(AM_CONFIG, rhat=0))]) == 2

    def test_missing_model_is_usage_error(self, capsys):
        assert main(["pdf", "--alpha", "2", "--mu", "1"]) == 2
        assert first_err_line(capsys) == "error: missing required flag --model"

    def test_grid_without_points_is_usage_error(self, capsys):
        assert main(["pdf", "--model", "am", "--alpha", "2", "--mu", "1", "--grid", "0.1:1"]) == 2
        assert first_err_line(capsys) == "error: grid must be min:max:points, got '0.1:1'"


    def test_composite_curve_shares_its_kernel_calls(self, tmp_path, monkeypatch):
        # The CLI hands the series route the whole 200-point grid at once, a
        # batch of 200 points, so the curve fetches each block of powers in
        # one kernel call for all the points that reach it: at most
        # ceil(200 / 200) calls per block.  A fall-back to one series call
        # per point would make about 200 per block.
        import compfade.composite as composite

        real, starts = composite.shadow_kernel_integral_ln, []

        def counting(p, a, *args, **kwargs):
            starts.append(float(np.max(p)))  # the block's first power
            return real(p, a, *args, **kwargs)

        monkeypatch.setattr(composite, "shadow_kernel_integral_ln", counting)
        points, batch = 200, 200
        code = main(
            [
                "pdf", "--model", "akm-gamma", "--alpha", "1.5", "--mu", "2.1",
                "--kappa", "1", "--b", "1.1", "--omega", "0.9",
                "--grid", f"0.01:4:{points}", "--out", str(tmp_path / "curve.csv"),
            ]
        )
        assert code == 0
        blocks = len(set(starts))
        assert 1 <= blocks <= 3
        assert len(starts) <= math.ceil(points / batch) * blocks


class TestCdfCommand:
    def test_akm_cdf_curve(self, capsys):
        code = main(
            ["cdf", "--model", "akm", "--alpha", "2.5", "--kappa", "1.7",
             "--mu", "1.8", "--grid", "0:3:30"]
        )
        assert code == 0
        xs, vs, _, _ = parse_csv_curve(capsys.readouterr().out)
        assert vs[0] == 0.0
        assert all(v2 >= v1 for v1, v2 in zip(vs, vs[1:]))
        assert vs[-1] <= 1.0

    def test_extreme_cdf_starts_at_atom(self, capsys):
        code = main(
            ["cdf", "--model", "extreme", "--alpha", "2", "--m", "1.1",
             "--grid", "0:3:10"]
        )
        assert code == 0
        _, vs, _, _ = parse_csv_curve(capsys.readouterr().out)
        assert vs[0] == pytest.approx(math.exp(-2.2), rel=1e-10)

    def test_composite_cdf_by_quadrature(self, capsys):
        code = main(
            ["cdf", "--model", "am-gamma", "--alpha", "2", "--mu", "1",
             "--b", "2.5", "--omega", "0.6", "--grid", "0.2:6:12"]
        )
        assert code == 0
        _, vs, _, _ = parse_csv_curve(capsys.readouterr().out)
        assert all(v2 >= v1 for v1, v2 in zip(vs, vs[1:]))
        assert 0.97 <= vs[-1] <= 1.0


    def test_composite_cdf_has_two_routes(self, capsys):
        # --oracle selects mixture_cdf; the series flags leave either route as it is.
        base = ["cdf", "--model", "extreme-gamma", "--alpha", "1.7", "--m", "1.1",
                "--b", "1.2", "--omega", "0.8", "--grid", "0.02:2:4", "--format", "json"]
        model = CompositeModel(ExtremeParams(1.7, 1.1), GammaShadowParams(1.2, 0.8))
        series = (["--use-gross", "--series-n", "20"], ["--series-rel-tol", "1e-4"])
        routes = {"multipath-average": composite_cdf, "mixture-cdf": mixture_cdf}
        for oracle in ([], ["--oracle"]):
            for flags in ([], *series):
                assert main(base + oracle + flags) == 0
                payload = json.loads(capsys.readouterr().out)
                route = payload["metadata"]["route"]
                assert route == ("mixture-cdf" if oracle else "multipath-average")
                assert payload["atoms"] == []
                want = [routes[route](model, x) for x in payload["abscissae"]]
                assert payload["values"] == want
                assert payload["values"] == pytest.approx(
                    [composite_cdf(model, x, oracle=not oracle) for x in payload["abscissae"]],
                    rel=1e-9,
                )

    def test_nonconvergence_exits_one(self, monkeypatch, capsys):
        def fails(model, x, upper):
            raise NonConvergenceError("quadrature did not converge")

        monkeypatch.setattr(composite, "_multipath_average", fails)
        code = main(
            ["cdf", "--model", "am-gamma", "--alpha", "2", "--mu", "1", "--b", "1.5",
             "--omega", "0.8", "--grid", "0.5:1:2"]
        )
        assert code == 1
        assert first_err_line(capsys) == "convergence failure: quadrature did not converge"


class TestMomentsCommand:
    def test_table_and_strict_pass(self, capsys):
        code = main(
            ["moments", "--model", "akm", "--alpha", "2", "--kappa", "1.5",
             "--mu", "2.1", "--strict"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "l,closed_form,quadrature,rel_diff"
        row0 = lines[1].split(",")
        assert float(row0[1]) == pytest.approx(1.0, abs=1e-12)
        assert float(row0[3]) <= 1e-12
        for line in lines[1:]:
            assert float(line.split(",")[3]) <= 1e-6

    def test_strict_passes_where_mu_kappa_is_large(self, capsys):
        # mu*kappa = 1,000: e^(mu*kappa) overflows a double.
        code = main(
            ["moments", "--model", "akm", "--alpha", "2", "--kappa", "50", "--mu", "20", "--strict"]
        )
        assert code == 0
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            closed, rel = float(line.split(",")[1]), float(line.split(",")[3])
            assert math.isfinite(closed) and rel <= 1e-6

    def test_strict_fails_on_a_nan_closed_form(self, monkeypatch, capsys):
        monkeypatch.setattr(models, "akm_moment", lambda p, order: math.nan)
        code = main(
            ["moments", "--model", "akm", "--alpha", "2", "--kappa", "1.5", "--mu", "2.1", "--strict"]
        )
        assert code == 1

    def test_bad_orders_is_usage_error(self, capsys):
        code = main(
            ["moments", "--model", "akm", "--alpha", "2", "--kappa", "1", "--mu", "2",
             "--orders", "1,x"]
        )
        assert code == 2
        assert first_err_line(capsys) == "error: cannot parse --orders '1,x'"

    def test_requires_plain_model(self, capsys):
        code = main(
            ["moments", "--model", "am", "--alpha", "2", "--mu", "1"]
        )
        assert code == 2


class TestFigureCommand:
    def test_figure_two_emits_four_curves(self, tmp_path, capsys):
        code = main(["figure", "2", "--out-dir", str(tmp_path), "--grid", "0.05:4:60"])
        assert code == 0
        files = sorted(tmp_path.glob("figure2_mu_*.json"))
        assert len(files) == 4
        for path in files:
            payload = json.loads(path.read_text())
            meta = payload["metadata"]
            assert meta["fixed_parameters"] == {
                "b": 1.8, "omega": 0.7, "kappa": 4.0, "alpha": 2.0
            }
            assert abs(meta["total_mass"] - 1.0) <= 1e-6
            assert all(v >= 0.0 for v in payload["values"])

    def test_figure_four_has_atoms(self, tmp_path):
        code = main(["figure", "4", "--out-dir", str(tmp_path), "--grid", "0.05:4:50"])
        assert code == 0
        files = sorted(tmp_path.glob("figure4_alpha_*.json"))
        assert len(files) == 5
        payload = json.loads(files[0].read_text())
        assert payload["atoms"] == [[0.0, math.exp(-2.2)]]
        assert abs(payload["metadata"]["total_mass"] - 1.0) <= 1e-6

    def test_out_dir_under_a_file_is_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "plain-file"
        blocker.write_text("")
        code = main(["figure", "1", "--out-dir", str(blocker / "figs")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {str(blocker / 'figs')!r}: ")
        assert len(err.splitlines()) == 1

    def test_invalid_figure_id(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["figure", "5"])
        assert exc_info.value.code == 2


class TestSampleCommand:
    def test_deterministic_sample_files(self, tmp_path):
        out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        args = ["sample", "--model", "extreme", "--alpha", "2", "--m", "1.1",
                "--count", "20000", "--seed", "7"]
        assert main(args + ["--out", str(out1), "--report", str(tmp_path / "r1.json")]) == 0
        assert main(args + ["--out", str(out2), "--report", str(tmp_path / "r2.json")]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_extreme_report_zero_fraction(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            ["sample", "--model", "extreme", "--alpha", "2", "--m", "1.1",
             "--count", "100000", "--seed", "7", "--out", str(tmp_path / "s.txt"),
             "--report", str(report_path), "--strict"]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        expected = math.exp(-2.2)
        se = math.sqrt(expected * (1.0 - expected) / 100_000)
        assert abs(report["atom_frequency_observed"] - expected) <= 5.0 * se
        assert report["ks_statistic"] <= report["ks_critical_0_001"]

    def test_seed_zero_is_its_own_seed(self, tmp_path):
        args = ["sample", "--model", "am", "--alpha", "2", "--mu", "1.3",
                "--count", "50", "--report", str(tmp_path / "r.json")]
        paths = []
        for seed in ("0", "1"):
            paths.append(tmp_path / f"s{seed}.txt")
            assert main(args + ["--seed", seed, "--out", str(paths[-1])]) == 0
        assert paths[0].read_bytes() != paths[1].read_bytes()

    @pytest.mark.parametrize("extra", [["--count", "0"], ["--seed", "-1"]], ids=["count", "seed"])
    def test_bad_count_or_seed_is_usage_error(self, extra, tmp_path, capsys):
        code = main(
            ["sample", "--model", "am", "--alpha", "2", "--mu", "1.3",
             "--out", str(tmp_path / "s.txt"), "--report", str(tmp_path / "r.json")] + extra
        )
        assert code == 2
        assert not (tmp_path / "s.txt").exists()

    def test_akm_gamma_strict_gof(self, tmp_path):
        # The README example, with its output paths under tmp_path.
        code = main(
            ["sample", "--model", "akm-gamma", "--alpha", "2.2", "--kappa", "1.3",
             "--mu", "1.7", "--b", "1.6", "--omega", "0.8", "--count", "100000",
             "--seed", "13",
             "--out", str(tmp_path / "s.txt"), "--report", str(tmp_path / "r.json"),
             "--strict"]
        )
        assert code == 0


    def test_strict_exits_one_when_gof_fails(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            mc, "gof_compare", lambda batch, density, grid_points: mc.GofReport(0.5, 50, 0.0, 0.0)
        )
        code = main(
            ["sample", "--model", "am", "--alpha", "2", "--mu", "1.3", "--count", "50",
             "--out", str(tmp_path / "s.txt"), "--report", str(tmp_path / "r.json"), "--strict"]
        )
        assert code == 1
        assert first_err_line(capsys).startswith("validation failure: gof failed: ks=0.5 > ")

    def test_sample_file_bytes_match_one_format_per_value(self):
        # The one-pass %-format write against the per-value join it
        # replaced, on a batch with deep-fade zeros and extreme doubles.
        from compfade import cli
        from compfade.mc import sample_composite

        model = CompositeModel(ExtremeParams(2.0, 0.4), GammaShadowParams(1.2, 0.8))
        values = sample_composite(model, 5000, seed=3).values
        assert (values == 0.0).sum() > 100
        values = np.concatenate([values, [5e-324, 2.2250738585072014e-308, 1e-300, 1.7976931348623157e308]])
        assert cli._sample_text(values) == "\n".join(cli._fmt(v) for v in values) + "\n"


class TestValidateCommand:
    def test_quick_level_passes(self, tmp_path):
        report_path = tmp_path / "validation.json"
        code = main(["validate", "--level", "quick", "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "series_vs_oracle" in names
        moments = next(c for c in report["checks"] if c["name"] == "moments")
        # The alternate printed normalization is exercised and recorded.
        assert "alt_form_matches_quadrature" in moments["details"]
        assert moments["details"]["alt_form_matches_quadrature"] is False

    def test_injected_kernel_sign_error_is_caught(self, monkeypatch):
        # Mutation smoke test: flip the inner-exponential sign in the
        # kernel and the oracle-agreement check must fail by name.
        import compfade.composite as composite
        from compfade.validation import check_series_vs_oracle

        original = composite.shadow_kernel_integral_ln

        def broken(p, a, alpha, omega, **kwargs):
            return original(p, a * 1.02, alpha, omega, **kwargs)

        monkeypatch.setattr(composite, "shadow_kernel_integral_ln", broken)
        result = check_series_vs_oracle(draws=1, points=4)
        assert result["name"] == "series_vs_oracle"
        assert result["passed"] is False

    def test_failing_check_exits_one_and_names_it(self, monkeypatch, tmp_path, capsys):
        checks = {
            "specfun_goldens": lambda: {"name": "specfun_goldens", "passed": True},
            "moments": lambda: {"name": "moments", "passed": False},
        }
        monkeypatch.setattr(validation, "CHECKS", checks)
        assert main(["validate", "--report", str(tmp_path / "v.json")]) == 1
        assert first_err_line(capsys) == "validation failure: failed checks: moments"
