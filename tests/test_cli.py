import json

import numpy as np
import pytest

from tmmse.cli import (
    ScenarioConfig,
    build_parser,
    emit_cdf,
    main,
    read_rates_csv,
    resolve_config,
    run,
    write_cdf_csv,
)


def small_config(**kw):
    base = dict(
        num_stripes=2,
        txs_per_stripe=3,
        num_users=3,
        area_m=(30.0, 20.0),
        drops=2,
        statistics_samples=60,
        evaluation_samples=60,
        base_seed=11,
        output_dir="results",
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestConfig:
    def test_case_study_defaults_validate(self):
        cfg = ScenarioConfig()
        cfg.validate()
        assert cfg.num_txs == 100
        assert cfg.total_power() == pytest.approx(100.0)
        np.testing.assert_allclose(cfg.resolved_weights(), np.full(10, 0.1))

    def test_round_trip_idempotent(self):
        cfg = small_config(weights=[0.5, 0.25, 0.25], sum_power_mw=12.0)
        once = ScenarioConfig.from_dict(cfg.to_dict())
        assert once == cfg
        assert once.to_dict() == cfg.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict({"frobnicate": 1})

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            small_config(weights=[0.9, 0.9, 0.9]).validate()

    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError):
            small_config(schemes=("zf",)).validate()

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"carrier_ghz": 0.0}, "carrier_ghz"),
            ({"carrier_ghz": "4.9"}, "carrier_ghz"),
            ({"noise_figure_db": "7"}, "noise_figure_db"),
            ({"height_m": -3.0}, "height_m"),
            ({"drops": "2"}, "drops"),
            ({"drops": 2.0}, "drops"),
            ({"num_users": True}, "num_users"),
            ({"ricean_kappa": None}, "ricean_kappa"),
            ({"bandwidth_hz": float("nan")}, "bandwidth_hz"),
            ({"sum_power_mw": "12"}, "sum_power_mw"),
            ({"area_m": [30.0, "20"]}, "area_m"),
            ({"area_m": [30.0, False]}, "area_m"),
            ({"num_users": 2, "weights": [0.5, "0.5"]}, "weights"),
        ],
    )
    def test_bad_field_rejected_at_load(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig.from_dict(overrides)

    def test_sum_power_override(self):
        cfg = small_config(sum_power_mw=18.0)
        np.testing.assert_allclose(cfg.tx_budgets(), np.full(6, 3.0))
        assert cfg.total_power() == pytest.approx(18.0)


class TestRun:
    def test_minimal_smoke_run(self, tmp_path):
        cfg = small_config(drops=1, schemes=("centralized",), power_modes=("sum",))
        result = run(cfg, out_dir=str(tmp_path / "out"))
        assert not result.failures
        assert len(result.rate_rows) == cfg.num_users
        assert (tmp_path / "out" / "rates.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_identical_seed_byte_identical_csv(self, tmp_path):
        cfg = small_config(schemes=("uni", "no-share"))
        run(cfg, out_dir=str(tmp_path / "a"))
        run(cfg, out_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "rates.csv").read_bytes()
        b = (tmp_path / "b" / "rates.csv").read_bytes()
        assert a == b

    def test_different_seed_changes_rates(self, tmp_path):
        r1 = run(small_config(drops=1), out_dir=str(tmp_path / "a"))
        r2 = run(
            small_config(drops=1, base_seed=99), out_dir=str(tmp_path / "b")
        )
        assert r1.rate_rows != r2.rate_rows

    def test_report_contents(self, tmp_path):
        cfg = small_config(drops=1, schemes=("uni",))
        result = run(cfg, out_dir=str(tmp_path / "out"))
        rec = result.records[0]
        for key in ("rates", "mse", "p_mw", "gamma", "nu2", "expected_tx_power_mw"):
            assert key in rec
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schema_version"] == 1
        assert len(report["records"]) == len(result.records)

    def test_manifest_written_before_and_after(self, tmp_path):
        cfg = small_config(drops=1, schemes=("centralized",))
        result = run(cfg, out_dir=str(tmp_path / "out"))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["num_users"] == 3
        assert manifest["timings_s"]["total"] > 0
        assert manifest["failures"] == []

    def test_rates_csv_round_trip(self, tmp_path):
        cfg = small_config(drops=1, schemes=("uni",), power_modes=("sum",))
        result = run(cfg, out_dir=str(tmp_path / "out"))
        back = read_rates_csv(tmp_path / "out" / "rates.csv")
        assert len(back) == len(result.rate_rows)
        for row, orig in zip(back, result.rate_rows):
            assert row[:4] == orig[:4]
            assert row[4] == pytest.approx(orig[4], rel=1e-11)

    def test_gain_dump(self, tmp_path):
        cfg = small_config(drops=1, schemes=("centralized",), dump_gains=True)
        run(cfg, out_dir=str(tmp_path / "out"))
        text = (tmp_path / "out" / "gains_drop0.csv").read_text().splitlines()
        assert text[0] == "l,k,distance_m,PL_dB,rho2"
        assert len(text) == 1 + cfg.num_txs * cfg.num_users

    @pytest.mark.parametrize("scheme", ["uni", "bi", "no-share"])
    def test_stats_dump(self, tmp_path, scheme):
        from tmmse.precoding import read_matrix_dump

        cfg = small_config(drops=1, schemes=(scheme,), dump_stats=True)
        run(cfg, out_dir=str(tmp_path / "out"))
        mats = read_matrix_dump(tmp_path / "out" / f"stats_drop0_{scheme}.bin")
        # coupling matrix per unit (stripe, or TX for no-share) + coefficients
        units = cfg.num_txs if scheme == "no-share" else cfg.num_stripes
        assert len(mats) == units * 2
        assert all(m.shape == (3, 3) for m in mats)

    def test_no_stats_dump_without_team_coupling(self, tmp_path):
        cfg = small_config(drops=1, schemes=("centralized", "local-mmse"), dump_stats=True)
        run(cfg, out_dir=str(tmp_path / "out"))
        assert not list((tmp_path / "out").glob("stats_*.bin"))


class TestCdf:
    def test_single_record(self):
        rows = [(0, 0, "uni", "sum", 1.5)]
        assert emit_cdf(rows) == [("uni", "sum", 1.5, 1.0)]

    def test_duplicates_nondecreasing_final_one(self):
        rows = [(0, 0, "uni", "sum", 2.0), (0, 1, "uni", "sum", 2.0), (0, 2, "uni", "sum", 1.0)]
        out = emit_cdf(rows)
        levels = [lv for *_, lv in out]
        rates = [r for _, _, r, _ in out]
        assert rates == sorted(rates)
        assert levels == sorted(levels)
        assert levels[-1] == 1.0

    def test_groups_are_independent(self):
        rows = [(0, 0, "uni", "sum", 1.0), (0, 0, "bi", "sum", 3.0)]
        out = emit_cdf(rows)
        assert ("bi", "sum", 3.0, 1.0) in out and ("uni", "sum", 1.0, 1.0) in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_cdf([])

    def test_cdf_csv(self, tmp_path):
        path = tmp_path / "cdf.csv"
        write_cdf_csv(path, [("uni", "sum", 1.25, 0.5)])
        assert path.read_text().splitlines()[1] == "uni,sum,1.25,0.5"


class TestFlagsAndEnv:
    def test_flags_override_env_override_file(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(small_config(drops=7).to_dict()))
        monkeypatch.setenv("TMMSE_DROPS", "5")
        monkeypatch.setenv("TMMSE_SEED", "123")
        parser = build_parser()
        args = parser.parse_args(["--config", str(cfg_path), "--drops", "3"])
        cfg = resolve_config(args)
        assert cfg.drops == 3  # flag wins
        assert cfg.base_seed == 123  # env fills the gap
        assert cfg.num_users == 3  # from file

    def test_env_flags(self, monkeypatch):
        monkeypatch.setenv("TMMSE_STRICT", "1")
        monkeypatch.setenv("TMMSE_POWER_MODE", "sum")
        args = build_parser().parse_args([])
        cfg = resolve_config(args)
        assert cfg.strict is True
        assert cfg.power_modes == ("sum",)

    def test_scheme_list_parsing(self):
        args = build_parser().parse_args(["--schemes", "uni, bi"])
        cfg = resolve_config(args)
        assert cfg.schemes == ("uni", "bi")

    def test_main_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(
            json.dumps(
                small_config(
                    drops=1, schemes=("no-share",), power_modes=("sum",),
                    output_dir=str(tmp_path / "out"),
                ).to_dict()
            )
        )
        code = main(["--config", str(cfg_path), "--emit-cdf"])
        assert code == 0
        assert (tmp_path / "out" / "cdf.csv").exists()
        assert "1 drops" in capsys.readouterr().out
