import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from tests.conftest import forked_exit_code
import tmmse.channel as channel
import tmmse.cli as cli
import tmmse.parallel as parallel
import tmmse.precoding as precoding
from tmmse.cli import (
    ScenarioConfig,
    build_parser,
    emit_cdf,
    main,
    read_rates_csv,
    resolve_config,
    run,
    run_drop,
    write_cdf_csv,
)
from tmmse.topology import build_grid_deployment


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Run after the variables are set or unset: imports tmmse first, as the tmmse
# command does, then prints the variables and OpenBLAS's own thread count
# ("unknown" where numpy's BLAS is not an OpenBLAS whose getter is found).
BLAS_PROBE = f"""
import ctypes, os
import tmmse
print(*(os.environ.get(v) for v in {BLAS_VARS!r}))
maps = "/proc/self/maps"
libs = {{line.split()[-1] for line in open(maps) if "openblas" in line}} if os.path.exists(maps) else ()
getters = [getattr(ctypes.CDLL(lib), prefix + "openblas_get_num_threads" + suffix, None)
           for lib in sorted(libs) for prefix in ("", "scipy_") for suffix in ("", "64_")]
print(next((get() for get in getters if get), "unknown"))
"""


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

    @pytest.mark.parametrize("field, value", [
        ("schemes", []), ("schemes", ["bi", "bi"]), ("schemes", ["uni", "bi", "uni"]),
        ("power_modes", []), ("power_modes", ["sum", "sum"]),
    ])
    def test_empty_or_repeated_list_rejected_at_load(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig.from_dict({field: value})

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
            ({"area_m": 5}, "area_m"),
            ({"area_m": None}, "area_m"),
            ({"weights": 0.5}, "weights"),
            ({"power_modes": 3}, "power_modes"),
            ({"schemes": "uni"}, "schemes"),
            ([1, 2], "config"),
            ({"strict": "no"}, "strict"),
            ({"dump_stats": "false"}, "dump_stats"),
            ({"output_dir": 5}, "output_dir"),
            ({"rate_units": 2}, "rate_units"),
            ({"base_seed": -3}, "base_seed"),
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

    def test_outputs_independent_of_worker_count(self, tmp_path, monkeypatch):
        # 300 samples per pool span three sample blocks, the last one partial
        cfg = small_config(statistics_samples=300, evaluation_samples=300, dump_stats=True)
        outputs = []
        for n_workers in (1, 2):
            monkeypatch.setattr(parallel, "workers", lambda n=n_workers: n)
            out = tmp_path / f"workers{n_workers}"
            assert not run(cfg, out_dir=str(out)).failures
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "manifest.json"})  # the manifest holds timings
        assert "rates.csv" in outputs[0] and "stats_drop1_bi.bin" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_forked_child_runs_a_drop_after_the_parent_ran_one(self, tmp_path, monkeypatch):
        # the shared thread pool does not survive a fork; the child starts its own
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        cfg = small_config(drops=1, statistics_samples=300, evaluation_samples=300)
        assert not run(cfg, out_dir=str(tmp_path / "parent")).failures

        def child():
            return not run(cfg, out_dir=str(tmp_path / "child")).failures

        assert forked_exit_code(child, alarm_s=60) == 0
        assert ((tmp_path / "child" / "rates.csv").read_bytes()
                == (tmp_path / "parent" / "rates.csv").read_bytes())

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

    def test_manifest_written_before_and_after(self, tmp_path, monkeypatch):
        drops = []

        def kept_run_drop(*args):
            drops.append(run_drop(*args))
            return drops[-1]

        monkeypatch.setattr(cli, "run_drop", kept_run_drop)
        cfg = small_config(schemes=("centralized",))
        result = run(cfg, out_dir=str(tmp_path / "out"))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["num_users"] == 3
        # per stage the sum over the drops, plus the run's total
        assert len(drops) == cfg.drops and manifest["timings_s"] == {
            **{stage: round(sum(d.timings[stage] for d in drops), 6) for stage in cli.STAGES},
            "total": round(result.timings["total"], 6)}
        assert manifest["timings_s"]["total"] > 0
        assert manifest["failures"] == []

    def test_manifest_config_loads_back(self, tmp_path):
        # the manifest's config, written back as a config file, is the run's config
        cfg = small_config(drops=1, schemes=("local-mmse",), power_modes=("sum",),
                           weights=[0.5, 0.25, 0.25], sum_power_mw=12.0, dump_gains=True)
        run(cfg, out_dir=str(tmp_path / "out"))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(manifest["config"]))
        assert cli.load_config(cfg_path) == cfg

    def test_rates_csv_round_trip(self, tmp_path):
        cfg = small_config(drops=1, schemes=("uni",), power_modes=("sum",))
        result = run(cfg, out_dir=str(tmp_path / "out"))
        back = read_rates_csv(tmp_path / "out" / "rates.csv")
        assert len(back) == len(result.rate_rows)
        for row, orig in zip(back, result.rate_rows):
            assert row[:4] == orig[:4]
            assert row[4] == pytest.approx(orig[4], rel=1e-11)

    def test_nats_rate_column(self, tmp_path):
        cfg = small_config(drops=1, schemes=("uni",), rate_units="nats",
                           output_dir=str(tmp_path / "out"))
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["--config", str(cfg_path), "--emit-cdf"]) == 0
        rates_csv = tmp_path / "out" / "rates.csv"
        assert rates_csv.read_text().splitlines()[0] == "drop,user,scheme,power_mode,rate_npcu"
        cdf_header = (tmp_path / "out" / "cdf.csv").read_text().splitlines()[0]
        assert cdf_header == "scheme,power_mode,rate_npcu,cdf"
        rows = run(cfg, out_dir=str(tmp_path / "again")).rate_rows
        back = read_rates_csv(rates_csv)
        assert [r[:4] for r in back] == [r[:4] for r in rows]
        np.testing.assert_allclose([r[4] for r in back], [r[4] for r in rows], rtol=1e-11)

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


def failing_when(real, when, message):
    """real, but raising RuntimeError(message(*args)) on the calls where when(*args)."""
    def call(*args, **kwargs):
        if when(*args):
            raise RuntimeError(message(*args))
        return real(*args, **kwargs)
    return call


def failing_schemes(real, when, message):
    """real, a joint call of a drop (fit_schemes or evaluate_states) with one
    result per scheme, but with RuntimeError(message(scheme)) as the result
    of each scheme where when(scheme)."""
    def call(*args):
        schemes = args[0] if real.__name__ == "fit_schemes" else [s.scheme for s in args[1]]
        return [RuntimeError(message(s)) if when(s) else r for s, r in zip(schemes, real(*args))]
    return call


def deployment_of(cfg):
    return build_grid_deployment(
        cfg.num_stripes, cfg.txs_per_stripe, cfg.area_m, cfg.height_m, cfg.antennas_per_tx
    )


class TestRunDrop:
    def test_run_concatenates_drops(self, tmp_path):
        cfg = small_config()
        whole = run(cfg, out_dir=str(tmp_path / "out"))
        dep = deployment_of(cfg)
        drops = [run_drop(cfg, dep, d) for d in range(cfg.drops)]
        for field in ("rate_rows", "records", "failures"):
            assert getattr(whole, field) == [x for d in drops for x in getattr(d, field)]
        assert dep.num_users == 0 and cfg == small_config()  # arguments untouched

    @pytest.mark.parametrize("target, failing", [
        ("fit_schemes", ("bi",)),
        ("evaluate_states", ("bi",)),
        ("fit_schemes", ("bi", "uni")),
    ], ids=["fit-bi", "evaluation-bi", "fit-bi-uni"])
    def test_failed_scheme_is_recorded_and_other_schemes_run(self, tmp_path, monkeypatch,
                                                             target, failing):
        # a failing fit or evaluation loses only its scheme's rows; under strict
        # the first failing scheme in scheme order is the one raised
        monkeypatch.setattr(cli, target, failing_schemes(
            getattr(cli, target), lambda scheme: scheme in failing,
            lambda scheme: f"{scheme} {target} failed"))
        cfg = small_config()
        result = run(cfg, out_dir=str(tmp_path / "out"))
        assert [(f["drop"], f["scheme"], f["stage"]) for f in result.failures] == [
            (drop, s, "precoding") for drop in range(cfg.drops) for s in failing]
        kept = {(scheme, mode) for _, _, scheme, mode, _ in result.rate_rows}
        assert kept == {(s, m) for s in cfg.schemes if s not in failing for m in cfg.power_modes}
        assert len(result.rate_rows) == (
            cfg.drops * (len(cfg.schemes) - len(failing)) * 2 * cfg.num_users)
        with pytest.raises(RuntimeError, match=f"^{failing[0]} {target} failed$"):
            run(dataclasses.replace(cfg, strict=True), out_dir=str(tmp_path / "strict"))

    def test_a_failing_block_part_is_one_record_of_its_scheme(self, monkeypatch):
        # no-share's block parts raise inside the joint fit (bi's stripe units
        # take the same function with size > 1): only no-share loses its rows,
        # and strict raises its error
        real = precoding._coupling_part

        def coupling_part(ensemble, stripes, size, *args):
            if size == 1:
                raise RuntimeError("no-share block failed")
            return real(ensemble, stripes, size, *args)

        monkeypatch.setattr(precoding, "_coupling_part", coupling_part)
        cfg = small_config(drops=1)
        result = run_drop(cfg, deployment_of(cfg), 0)
        assert result.failures == [{"drop": 0, "scheme": "no-share", "stage": "precoding",
                                    "error": "no-share block failed"}]
        assert {scheme for _, _, scheme, _, _ in result.rate_rows} == set(cfg.schemes) - {
            "no-share"}
        with pytest.raises(RuntimeError, match="^no-share block failed$"):
            run_drop(dataclasses.replace(cfg, strict=True), deployment_of(cfg), 0)

    def test_a_failing_joint_call_is_one_record_per_scheme(self, monkeypatch):
        # a check that every scheme shares (Psi, P, the stripes) raises out of
        # the joint fit: each scheme gets its record, in scheme order
        def fit_schemes(*args):
            raise ValueError("Psi must be finite")

        monkeypatch.setattr(cli, "fit_schemes", fit_schemes)
        cfg = small_config(drops=1, schemes=("uni", "bi"))
        result = run_drop(cfg, deployment_of(cfg), 0)
        assert [(f["scheme"], f["stage"], f["error"]) for f in result.failures] == [
            (s, "precoding", "Psi must be finite") for s in ("uni", "bi")]
        assert not result.rate_rows and result.timings["evaluation"] == 0

    def test_failed_allocation_keeps_other_mode(self, monkeypatch):
        real = cli.allocate

        def allocate(moments, mse, mode, *args, **kwargs):
            if mode == "per-tx":
                raise RuntimeError("per-tx allocation failed")
            return real(moments, mse, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "allocate", allocate)
        cfg = small_config(drops=1)
        result = run_drop(cfg, deployment_of(cfg), 0)
        assert sorted((f["scheme"], f["stage"]) for f in result.failures) == sorted(
            (s, "allocation[per-tx]") for s in cfg.schemes)
        assert {mode for _, _, _, mode, _ in result.rate_rows} == {"sum"}
        assert len(result.rate_rows) == len(cfg.schemes) * cfg.num_users

    def test_failed_stats_dump_keeps_rates(self, tmp_path, monkeypatch):
        def dump(path, matrices):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_matrix_dump", dump)
        cfg = small_config(drops=1, schemes=("uni",), dump_stats=True)
        result = run_drop(cfg, deployment_of(cfg), 0, out_dir=str(tmp_path))
        assert [(f["scheme"], f["stage"]) for f in result.failures] == [("uni", "dump")]
        kept = {(scheme, mode) for _, _, scheme, mode, _ in result.rate_rows}
        assert kept == {("uni", mode) for mode in cfg.power_modes}
        assert len(result.rate_rows) == len(cfg.power_modes) * cfg.num_users
        with pytest.raises(OSError, match="disk full"):
            run_drop(dataclasses.replace(cfg, strict=True), deployment_of(cfg), 0,
                     out_dir=str(tmp_path))

    @pytest.mark.parametrize("failing, expected", [
        ({"draw_ensemble": lambda *args: True}, [(None, "drop", "draw_ensemble")]),
        ({"fit_schemes": lambda scheme: scheme == "bi",
          "draw_ensemble": lambda *args: args[3].spawn_key[-1] == cli.PHASE_EVAL},
         [("bi", "precoding", "fit_schemes"), (None, "drop", "draw_ensemble")]),
        ({"_write_csv": lambda path, *args: "gains_drop" in path},
         [(None, "drop", "_write_csv")]),
    ], ids=["draw", "bi-fit-then-evaluation-draw", "gains-dump"])
    def test_failed_drop_is_recorded(self, tmp_path, monkeypatch, failing, expected):
        # a failed setting or pool draw ends the drop: no rate rows, and the
        # failures before it are kept in order
        for name, when in failing.items():
            fail = failing_schemes if name == "fit_schemes" else failing_when
            monkeypatch.setattr(cli, name, fail(
                getattr(cli, name), when, lambda *args, name=name: f"{name} failed"))
        cfg = small_config(drops=1, dump_gains=True)
        result = run_drop(cfg, deployment_of(cfg), 0, out_dir=str(tmp_path))
        assert result.rate_rows == [] and result.records == []
        assert result.failures == [
            {"drop": 0, "scheme": scheme, "stage": stage, "error": f"{name} failed"}
            for scheme, stage, name in expected]
        with pytest.raises(RuntimeError, match=f"^{expected[0][2]} failed$"):
            run_drop(dataclasses.replace(cfg, strict=True), deployment_of(cfg), 0,
                     out_dir=str(tmp_path))

    def test_each_step_is_timed_under_its_stage(self, monkeypatch):
        # each step's wall time goes to its stage, a failed step's included
        cfg = small_config(drops=1)
        timings = run_drop(cfg, deployment_of(cfg), 0).timings
        assert list(timings) == list(cli.STAGES) and all(t > 0 for t in timings.values())
        monkeypatch.setattr(cli, "fit_schemes", failing_schemes(
            cli.fit_schemes, lambda scheme: True, lambda scheme: "fit failed"))
        result = run_drop(cfg, deployment_of(cfg), 0)
        assert len(result.failures) == len(cfg.schemes) and not result.rate_rows
        assert list(result.timings) == list(cli.STAGES)
        assert result.timings["channel"] > 0 and result.timings["statistics"] > 0
        assert result.timings["evaluation"] == result.timings["allocation"] == 0

    def test_statistics_pool_released_before_evaluation_draw(self, monkeypatch):
        real = cli.draw_ensemble
        pools, stats_pool_alive = {}, []

        def draw(stats, csi, n_samples, seed_seq):
            phase = seed_seq.spawn_key[-1]
            if phase == cli.PHASE_EVAL:
                stats_pool_alive.append(pools[cli.PHASE_STATS]() is not None)
            pool = real(stats, csi, n_samples, seed_seq)
            pools[phase] = weakref.ref(pool)
            return pool

        monkeypatch.setattr(cli, "draw_ensemble", draw)
        cfg = small_config(drops=1)
        result = run_drop(cfg, deployment_of(cfg), 0)
        assert not result.failures and stats_pool_alive == [False]


class TestEvaluationMemory:
    @staticmethod
    def _evaluation_peak(cfg, monkeypatch, workers):
        """numpy memory taken between the evaluation pool's draw and the first
        allocation, above what was live at the draw, on the given number of
        pool threads."""
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        real_draw, real_allocate = cli.draw_ensemble, cli.allocate
        live, peaks = [], []

        def draw(stats, csi, n_samples, seed_seq):
            pool = real_draw(stats, csi, n_samples, seed_seq)
            if seed_seq.spawn_key[-1] == cli.PHASE_EVAL:
                tracemalloc.reset_peak()
                live.append(tracemalloc.get_traced_memory()[0])
            return pool

        def allocate(*args, **kwargs):
            if not peaks:
                peaks.append(tracemalloc.get_traced_memory()[1])
            return real_allocate(*args, **kwargs)

        monkeypatch.setattr(cli, "draw_ensemble", draw)
        monkeypatch.setattr(cli, "allocate", allocate)
        tracemalloc.start()
        try:
            result = run_drop(cfg, deployment_of(cfg), 0)
        finally:
            tracemalloc.stop()
        assert not result.failures
        return peaks[0] - live[0]

    @pytest.mark.parametrize("schemes", [(scheme,) for scheme in cli.SCHEMES] + [cli.SCHEMES],
                             ids=[*cli.SCHEMES, "all"])
    def test_evaluation_holds_no_precoder_stack(self, schemes, monkeypatch):
        # Ten stripes, so that a stripe's working set (a few stripe-sized
        # arrays) is well below one (S, N*L, K) precoder stack, which is what
        # the guard looks for.  Two workers, so two sample blocks of the pool
        # are in flight at once.  The schemes' evaluations are one map, and no
        # scheme's z = H t (S, K, K) outlives its sample block.
        cfg = small_config(num_stripes=10, txs_per_stripe=4, num_users=3, drops=1,
                           statistics_samples=400, evaluation_samples=400, schemes=schemes)
        stack_bytes = cfg.evaluation_samples * cfg.num_txs * cfg.num_users * 16  # complex
        assert self._evaluation_peak(cfg, monkeypatch, 2) < stack_bytes

    def test_all_schemes_hold_what_one_does_where_z_outweighs_a_stack(self, monkeypatch):
        # K = 8 users on four single-antenna TXs: z = H t (S, K, K) is twice
        # an (S, N*L, K) stack, so a map that kept each scheme's z until it
        # ended would hold five of them.  One worker: on two, the peak is
        # the sum of two blocks' and moves with how they overlap in time.
        peaks = {}
        for schemes in [(scheme,) for scheme in cli.SCHEMES] + [cli.SCHEMES]:
            cfg = small_config(num_stripes=2, txs_per_stripe=2, num_users=8, drops=1,
                               statistics_samples=400, evaluation_samples=400, schemes=schemes)
            peaks[schemes] = self._evaluation_peak(cfg, monkeypatch, 1)
        one = max(peak for schemes, peak in peaks.items() if len(schemes) == 1)
        assert peaks[cli.SCHEMES] <= 1.25 * one, peaks

    def test_bi_holds_no_more_than_the_other_schemes(self, monkeypatch):
        # The shape above, one scheme at a time: bi's kernel (I + G_u)^-1
        # (S, K, K) is let go once (I + G_u)^-1 c_u is formed, so it is not
        # held beside it while the stripes' rows are made.
        peaks = {}
        for scheme in cli.SCHEMES:
            cfg = small_config(num_stripes=2, txs_per_stripe=2, num_users=8, drops=1,
                               statistics_samples=400, evaluation_samples=400,
                               schemes=(scheme,))
            peaks[scheme] = self._evaluation_peak(cfg, monkeypatch, 1)
        others = max(peak for scheme, peak in peaks.items() if scheme != "bi")
        assert peaks["bi"] <= 1.15 * others, peaks


class TestPoolFootprint:
    """A drawn pool holds its channels h alone; the local estimate is formed
    where it is read, a stripe at a time."""

    def test_drawn_pool_holds_h_alone(self, monkeypatch):
        # One worker, whose one block buffer of normals is 1/8 of h at 1000
        # samples; the pool's substreams (SeedSequence objects) are live
        # during the draw too.  Four antennas per TX make h outweigh them.
        monkeypatch.setattr(parallel, "workers", lambda: 1)
        cfg = small_config(num_stripes=2, txs_per_stripe=4, antennas_per_tx=4, num_users=8,
                           drops=1)
        w = cfg.resolved_weights()
        _, stats, csi, _, _ = cli._drop_setting(cfg, deployment_of(cfg), 0, w, None)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pool = cli.draw_ensemble(stats, csi, 1000, cli.phase_seed(cfg.base_seed, 0,
                                                                       cli.PHASE_STATS))
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert live - before <= 1.1 * pool.h.nbytes
        assert peak - before < 1.5 * pool.h.nbytes

    def test_run_drop_never_forms_a_whole_estimate(self, monkeypatch):
        real, columns = channel.LocalCsiModel.estimate, []

        def estimate(self, h, *args):
            out = real(self, h, *args)
            columns.append((out.shape[-1], h.shape[-1]))
            return out

        monkeypatch.setattr(channel.LocalCsiModel, "estimate", estimate)
        cfg = small_config(drops=1)
        result = run_drop(cfg, deployment_of(cfg), 0)
        assert not result.failures and columns
        assert all(formed < whole for formed, whole in columns), columns


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


# every option but --progress and --help reads TMMSE_<FLAG>, dashes as underscores
ENV_OPTIONS = [
    opt for action in build_parser()._actions for opt in action.option_strings
    if opt.startswith("--") and opt not in ("--help", "--progress")
]
ENV_VALUES = {  # option -> (variable value, config field, resolved value)
    "--seed": ("123", "base_seed", 123),
    "--drops": ("5", "drops", 5),
    "--samples-stats": ("70", "statistics_samples", 70),
    "--samples-eval": ("80", "evaluation_samples", 80),
    "--schemes": ("uni,bi", "schemes", ("uni", "bi")),
    "--power-mode": ("per-tx", "power_modes", ("per-tx",)),
    "--out": ("elsewhere", "output_dir", "elsewhere"),
    "--strict": ("1", "strict", True),
    "--clamp-negative-powers": ("yes", "clamp_negative_powers", True),
    "--dump-gains": ("true", "dump_gains", True),
    "--dump-stats": ("1", "dump_stats", True),
}


class TestFlagsAndEnv:
    @pytest.mark.parametrize("option", ENV_OPTIONS)
    def test_every_option_reads_its_environment_variable(self, option, tmp_path, monkeypatch):
        name = "TMMSE_" + option[2:].upper().replace("-", "_")
        cfg_path = tmp_path / "scenario.json"
        out = tmp_path / "out"
        cfg_path.write_text(json.dumps(small_config(
            drops=1, schemes=("no-share",), power_modes=("sum",), output_dir=str(out),
        ).to_dict()))
        if option == "--config":
            monkeypatch.setenv(name, str(cfg_path))
            assert resolve_config(build_parser().parse_args([])).num_users == 3
        elif option == "--emit-cdf":
            main(["--config", str(cfg_path)])
            assert not (out / "cdf.csv").exists()
            monkeypatch.setenv(name, "1")
            main(["--config", str(cfg_path)])
            assert (out / "cdf.csv").exists()
        else:
            value, field, expected = ENV_VALUES[option]
            assert getattr(ScenarioConfig(), field) != expected
            monkeypatch.setenv(name, value)
            assert getattr(resolve_config(build_parser().parse_args([])), field) == expected

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

    @pytest.mark.parametrize(
        "name, value, field",
        [("DROPS", "abc", "drops"), ("SEED", "1.5", "base_seed"),
         ("SAMPLES_STATS", "", "statistics_samples")],
    )
    def test_bad_env_value_names_variable_and_field(self, monkeypatch, name, value, field):
        monkeypatch.setenv(f"TMMSE_{name}", value)
        with pytest.raises(ValueError, match=f"TMMSE_{name}.*{field}"):
            resolve_config(build_parser().parse_args([]))

    def test_scheme_list_parsing(self):
        args = build_parser().parse_args(["--schemes", "uni, bi"])
        cfg = resolve_config(args)
        assert cfg.schemes == ("uni", "bi")

    @pytest.mark.parametrize("value", [",", "bi,bi"])
    def test_empty_or_repeated_scheme_flag_rejected(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--schemes", value, "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert "tmmse: error: schemes must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message, config", [
        (["--drops", "0"], "drops, statistics_samples and evaluation_samples must be >= 1", None),
        (["--schemes", ","], "schemes must be a non-empty list without repeats", None),
        ([], "area_m must be a list", '{"area_m": 5}'),
        ([], "weights must be a list", '{"weights": 0.5}'),
        ([], "power_modes must be a list", '{"power_modes": 3}'),
        ([], "schemes must be a list", '{"schemes": "uni"}'),
        ([], "config must be a JSON object", "[1, 2]"),
        ([], "strict must be true or false", '{"strict": "no"}'),
    ])
    def test_bad_config_is_one_error_line_not_a_traceback(self, argv, message, config, tmp_path,
                                                          tmp_path_factory):
        if config is not None:  # the config file lives outside the output directory
            path = tmp_path_factory.mktemp("config") / "scenario.json"
            path.write_text(config)
            argv = [*argv, "--config", str(path)]
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run([sys.executable, "-m", "tmmse", *argv, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines()[-1].startswith(f"tmmse: error: {message}")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", [" , ", "no-share,uni,no-share"])
    def test_empty_or_repeated_scheme_env_rejected(self, value, monkeypatch):
        monkeypatch.setenv("TMMSE_SCHEMES", value)
        with pytest.raises(ValueError, match="schemes"):
            resolve_config(build_parser().parse_args([])).validate()

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

    def test_emit_cdf_without_output_directory_writes_nothing(self, tmp_path, monkeypatch):
        # an empty --out means no output directory: run writes no file, and
        # neither may main write cdf.csv into the working directory
        monkeypatch.chdir(tmp_path)
        assert main(["--drops", "1", "--samples-stats", "16", "--samples-eval", "16",
                     "--schemes", "uni", "--out", "", "--emit-cdf"]) == 0
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", [None, "2"])
    def test_blas_threads_default_to_one_and_a_set_value_is_kept(self, value):
        # unset: one BLAS thread per pool thread; set by the user: kept
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env["PYTHONPATH"] = os.path.abspath(src)
        if value:
            env.update(dict.fromkeys(BLAS_VARS, value))
        done = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        variables, threads = done.stdout.splitlines()
        assert variables.split() == [value or "1"] * len(BLAS_VARS)
        assert threads in (value or "1", "unknown")

    def test_python_m_tmmse_help(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run([sys.executable, "-m", "tmmse", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert "usage: tmmse" in done.stdout
