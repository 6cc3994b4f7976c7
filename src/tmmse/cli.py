"""Experiment runner: scenario config, deterministic seeding, results emission.

Seed derivation: base seed -> per-drop, per-phase SeedSequence spawn keys
(positions, shadow, statistics pool, evaluation pool) -> per-realization
substreams inside each pool.  The statistics and evaluation pools are
therefore independent, and any (drop, realization) draw is reproducible in
isolation.  Reruns with identical config and seed produce byte-identical
rates.csv.

A drop (run_drop) is a straight sequence of steps: the setting (users,
statistics, Psi, stripes and the optional gains dump), the statistics pool
and the fits (fit_schemes), then, that pool released, the evaluation pool
and the evaluations (evaluate_states), and per fitted scheme its
allocations and optional stats dump.  Each step's wall time goes to its
stage in STAGES (the setting, so also a gains dump, and the draws to
channel); a stats dump is not timed.  A failing step becomes a failure
record (re-raised under config.strict) and skips only what depends on it;
a failed setting or pool draw ends the drop.  The fits and evaluations
fail per scheme, one record per failing scheme in scheme order.

Independent tasks run on one shared thread pool (parallel.map_ordered; as
many threads as usable CPUs, at most two): fixed sample blocks of the pool
for the draws, the fits' ensemble means and the evaluations, and uni's
stripes for its statistics sweeps; the fits of all schemes are one map,
their evaluations another.  The tasks do not depend on the thread count
and results are joined in task order, so rates.csv is byte-identical for
any number of usable CPUs.  The evaluation is streamed: a fitted state
holds its Psi, w and P and yields its precoders one stripe at a time per
sample block, and evaluate_states sums z = H t over them and reduces it at
once to the block's sums of the moments, per-TX powers and MSE, so a drop
holds one pool and a stripe's working set per block in flight, never an
(S, N*L, K) stack nor a scheme's z past its block.  run concatenates drops.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channel import build_statistics, draw_ensemble, gains_table
from .evaluation import allocate, evaluate_states
from .parallel import captured
from .precoding import SCHEMES, fit_schemes, write_matrix_dump
from .topology import assign_serving_stripes, build_grid_deployment

SCHEMA_VERSION = 1
ENV_PREFIX = "TMMSE_"
POWER_MODES = ("sum", "per-tx")
STAGES = ("channel", "statistics", "evaluation", "allocation")  # manifest timings
RATE_COLUMNS = {"bits": "rate_bpcu", "nats": "rate_npcu"}  # rate_units -> CSV column

# spawn-key phases under each (base_seed, drop)
PHASE_POSITIONS, PHASE_SHADOW, PHASE_STATS, PHASE_EVAL = range(4)


def phase_seed(base_seed, drop, phase):
    return np.random.SeedSequence(base_seed, spawn_key=(drop, phase))


@dataclass
class ScenarioConfig:
    """Scenario and experiment parameters (defaults: the IIoT case study)."""

    num_stripes: int = 5
    txs_per_stripe: int = 20
    antennas_per_tx: int = 1
    num_users: int = 10
    area_m: tuple = (100.0, 50.0)
    height_m: float = 7.0
    ricean_kappa: float = 6.0
    carrier_ghz: float = 4.9
    bandwidth_hz: float = 100e6
    noise_figure_db: float = 7.0
    shadow_std_db: float = 4.0
    serving_stripes_per_user: int = 2
    weights: list = None  # None -> uniform 1/K
    per_tx_power_mw: float = 1.0
    sum_power_mw: float = None  # overrides per_tx_power_mw * L when set
    drops: int = 100
    statistics_samples: int = 1000
    evaluation_samples: int = 1000
    base_seed: int = 1
    schemes: tuple = SCHEMES
    power_modes: tuple = POWER_MODES
    rate_units: str = "bits"
    output_dir: str = "results"
    strict: bool = False
    clamp_negative_powers: bool = False
    dump_gains: bool = False
    dump_stats: bool = False

    @property
    def num_txs(self):
        return self.num_stripes * self.txs_per_stripe

    def resolved_weights(self):
        if self.weights is None:
            return np.full(self.num_users, 1.0 / self.num_users)
        return np.asarray(self.weights, dtype=float)

    def tx_budgets(self):
        """Per-TX power budgets in mW (symmetric)."""
        if self.sum_power_mw is not None:
            return np.full(self.num_txs, self.sum_power_mw / self.num_txs)
        return np.full(self.num_txs, self.per_tx_power_mw)

    def total_power(self):
        return float(self.tx_budgets().sum())

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", "float") and not (value is None and f.default is None):
                _require_number(f.name, value, integral=f.type == "int")
        for name in ("area_m", "weights", "schemes", "power_modes"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) and not (name == "weights" and value is None):
                raise ValueError(f"{name} must be a list, got {value!r}")
        for name in ("area_m", "weights"):
            for x in getattr(self, name) or ():
                _require_number(name, x)
        if min(self.num_stripes, self.txs_per_stripe, self.antennas_per_tx) < 1:
            raise ValueError("num_stripes, txs_per_stripe and antennas_per_tx must be >= 1")
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if not 1 <= self.serving_stripes_per_user <= self.num_stripes:
            raise ValueError("serving_stripes_per_user must lie in 1..num_stripes")
        if len(self.area_m) != 2 or min(self.area_m) <= 0:
            raise ValueError("area_m must be two positive dimensions")
        for name in ("height_m", "carrier_ghz", "bandwidth_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.ricean_kappa < 0 or self.shadow_std_db < 0:
            raise ValueError("ricean_kappa and shadow_std_db must be >= 0")
        w = self.resolved_weights()
        if len(w) != self.num_users or (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must lie on the simplex over the users")
        if self.total_power() <= 0:
            raise ValueError("per_tx_power_mw or sum_power_mw must give a positive budget")
        if self.drops < 1 or self.statistics_samples < 1 or self.evaluation_samples < 1:
            raise ValueError("drops, statistics_samples and evaluation_samples must be >= 1")
        for name in ("schemes", "power_modes"):
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ValueError(f"{name} must be a non-empty list without repeats, "
                                 f"got {list(values)}")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; expected one of {SCHEMES}")
        for m in self.power_modes:
            if m not in POWER_MODES:
                raise ValueError(f"unknown power mode {m!r}")
        if self.rate_units not in RATE_COLUMNS:
            raise ValueError("rate_units must be 'bits' or 'nats'")
        return self

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["area_m"] = list(self.area_m)
        d["schemes"] = list(self.schemes)
        d["power_modes"] = list(self.power_modes)
        d["schema_version"] = SCHEMA_VERSION
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        d = dict(d)
        d.pop("schema_version", None)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(d.get("area_m"), (list, tuple)):
            d["area_m"] = tuple(float(_require_number("area_m", x)) for x in d["area_m"])
        for key in ("schemes", "power_modes"):
            if isinstance(d.get(key), (list, tuple)):
                d[key] = tuple(d[key])
        return cls(**d).validate()


def _require_number(name, value, integral=False):
    """Return value if it is a finite real number (an integer if integral), not a bool."""
    kind = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite {'integer' if integral else 'number'}, "
                         f"got {value!r}")
    return value


def load_config(path):
    with open(path) as f:
        return ScenarioConfig.from_dict(json.load(f))


@dataclass
class RunResult:
    rate_rows: list  # (drop, user, scheme, power_mode, rate)
    records: list  # per (drop, scheme, mode) dicts
    failures: list
    timings: dict
    out_dir: str = None


def _drop_setting(config, deployment, drop, w, out_dir):
    """The drop's users and everything drawn from them: association,
    statistics, CSI model, Psi and stripes; writes the gains dump when asked."""
    rng_pos = np.random.default_rng(phase_seed(config.base_seed, drop, PHASE_POSITIONS))
    rx_xy = rng_pos.uniform((0.0, 0.0), config.area_m, size=(config.num_users, 2))
    dep = deployment.place_users(rx_xy)
    assoc = assign_serving_stripes(dep, config.serving_stripes_per_user)
    stats = build_statistics(
        dep, assoc, config.ricean_kappa, config.carrier_ghz, config.bandwidth_hz,
        config.noise_figure_db, config.shadow_std_db,
        np.random.default_rng(phase_seed(config.base_seed, drop, PHASE_SHADOW)),
    )
    csi = stats.csi_model()
    setting = assoc, stats, csi, csi.psi_stack(w), dep.stripes()
    if config.dump_gains and out_dir:
        _write_csv(os.path.join(out_dir, f"gains_drop{drop}.csv"),
                   ["l", "k", "distance_m", "PL_dB", "rho2"], gains_table(stats))
    return setting


def run_drop(config, deployment, drop, out_dir=None):
    """One drop as a RunResult, its steps timed and their failures recorded as
    the module docstring says; with out_dir set, the drop's gain and
    statistics dumps are written there."""
    w = config.resolved_weights()
    total_power = config.total_power()
    budgets = config.tx_budgets()
    result = RunResult([], [], [], dict.fromkeys(STAGES, 0.0), out_dir)

    def failed(scheme, stage, out):  # records out if it is an exception, raised under strict
        if isinstance(out, Exception):
            result.failures.append(
                {"drop": drop, "scheme": scheme, "stage": stage, "error": str(out)})
            if config.strict:
                raise out
        return isinstance(out, Exception)

    def attempt(timing, stage, scheme, fn, *args):  # fn(*args), or None if it failed
        t0 = time.perf_counter()
        out = captured(fn, *args)
        if timing:
            result.timings[timing] += time.perf_counter() - t0
        return None if failed(scheme, stage, out) else out

    def each_scheme(timing, schemes, fn, *args):  # fn(*args): a result or exception per scheme
        if not schemes:
            return []
        t0 = time.perf_counter()
        out = captured(fn, *args)  # a raise is every scheme's failure
        result.timings[timing] += time.perf_counter() - t0
        return [out] * len(schemes) if isinstance(out, Exception) else out

    setting = attempt("channel", "drop", None, _drop_setting, config, deployment, drop, w,
                      out_dir)
    if setting is None:
        return result
    assoc, stats, csi, psi, stripes = setting
    pool = attempt("channel", "drop", None, draw_ensemble, stats, csi,
                   config.statistics_samples, phase_seed(config.base_seed, drop, PHASE_STATS))
    if pool is None:
        return result
    fits = each_scheme("statistics", config.schemes, fit_schemes, config.schemes, pool, assoc,
                       stripes, psi, w, total_power)
    fits = [(scheme, state) for scheme, state in zip(config.schemes, fits)
            if not failed(scheme, "precoding", state)]
    del pool  # no state holds the statistics pool: it goes before the next draw
    pool = attempt("channel", "drop", None, draw_ensemble, stats, csi,
                   config.evaluation_samples, phase_seed(config.base_seed, drop, PHASE_EVAL))
    if pool is None:
        return result

    evaluated = each_scheme("evaluation", fits, evaluate_states, pool,
                            [state for _, state in fits])
    for (scheme, state), moments_mse in zip(fits, evaluated):
        if failed(scheme, "precoding", moments_mse):
            continue
        moments, mse = moments_mse
        for mode in config.power_modes:
            allocated = attempt("allocation", f"allocation[{mode}]", scheme, allocate, moments,
                                mse, mode, budgets, config.clamp_negative_powers,
                                config.rate_units)
            if allocated is None:
                continue
            rates, solution = allocated
            result.rate_rows.extend((drop, k, scheme, mode, float(r)) for k, r in enumerate(rates))
            solution_fields = solution.to_dict()
            solution_fields.pop("mode")
            result.records.append(
                {
                    "drop": drop,
                    "scheme": scheme,
                    "power_mode": mode,
                    "rates": [float(r) for r in rates],
                    "mse": [float(m) for m in mse],
                    **solution_fields,
                }
            )
        mats = state.dump_matrices()
        if config.dump_stats and out_dir and mats:
            attempt(None, "dump", scheme, write_matrix_dump,
                    os.path.join(out_dir, f"stats_drop{drop}_{scheme}.bin"), mats)
    return result


def run(config, out_dir=None, progress=False):
    """Execute the experiment; write rates.csv / report.json / manifest.json."""
    config.validate()
    out_dir = out_dir or config.output_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "config": config.to_dict(),
        "seed_rule": (
            "SeedSequence(base_seed, spawn_key=(drop, phase)) with phases "
            "positions=0, shadow=1, statistics=2, evaluation=3; one spawned "
            "substream per realization inside each pool"
        ),
        "timings_s": {},
        "failures": [],
    }
    if out_dir:
        _write_json(os.path.join(out_dir, "manifest.json"), manifest)

    deployment = build_grid_deployment(
        config.num_stripes,
        config.txs_per_stripe,
        config.area_m,
        config.height_m,
        config.antennas_per_tx,
    )
    started = time.perf_counter()
    drops = []
    for drop in range(config.drops):
        drops.append(run_drop(config, deployment, drop, out_dir))
        if progress:
            print(f"drop {drop + 1}/{config.drops}", file=sys.stderr)
    timings = {stage: sum(d.timings[stage] for d in drops) for stage in STAGES}
    timings["total"] = time.perf_counter() - started
    rows = [row for d in drops for row in d.rate_rows]
    records = [rec for d in drops for rec in d.records]
    failures = [f for d in drops for f in d.failures]

    manifest["timings_s"] = {k: round(v, 6) for k, v in timings.items()}
    manifest["failures"] = failures
    if out_dir:
        _write_csv(os.path.join(out_dir, "rates.csv"),
                   ["drop", "user", "scheme", "power_mode", RATE_COLUMNS[config.rate_units]], rows)
        _write_json(
            os.path.join(out_dir, "report.json"),
            {"schema_version": SCHEMA_VERSION, "records": records},
        )
        _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return RunResult(rate_rows=rows, records=records, failures=failures,
                     timings=timings, out_dir=out_dir)


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")


def _write_csv(path, header, rows):
    """CSV with a header row; floats are written with 12 significant digits."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.12g}" if isinstance(x, float) else x for x in row])


def emit_cdf(rows):
    """Empirical CDF per (scheme, power mode): sorted rates with i/n levels."""
    if not rows:
        raise ValueError("no rate records")
    groups = {}
    for _, _, scheme, mode, rate in rows:
        groups.setdefault((scheme, mode), []).append(rate)
    out = []
    for (scheme, mode) in sorted(groups):
        rates = sorted(groups[(scheme, mode)])
        n = len(rates)
        for i, r in enumerate(rates, start=1):
            out.append((scheme, mode, r, i / n))
    return out


def read_rates_csv(path):
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        column = next((c for c in RATE_COLUMNS.values() if c in (reader.fieldnames or ())),
                      RATE_COLUMNS["bits"])  # either unit's column
        for rec in reader:
            rows.append(
                (
                    int(rec["drop"]),
                    int(rec["user"]),
                    rec["scheme"],
                    rec["power_mode"],
                    float(rec[column]),
                )
            )
    return rows


def write_cdf_csv(path, cdf_rows, rate_units="bits"):
    _write_csv(path, ["scheme", "power_mode", RATE_COLUMNS[rate_units], "cdf"], cdf_rows)


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------

def _env(name, default=None):
    return os.environ.get(ENV_PREFIX + name, default)


def _env_flag(name):
    val = _env(name)
    return val is not None and val.lower() not in ("", "0", "false", "no")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tmmse",
        description=(
            "Distributed team-MMSE precoding simulator for radio-stripe "
            "cell-free networks. Flags override TMMSE_* environment "
            "variables, which override the config file."
        ),
    )
    parser.add_argument("--config", help="scenario JSON path")
    parser.add_argument("--seed", type=int, help="base seed (env TMMSE_SEED)")
    parser.add_argument("--drops", type=int, help="number of user drops")
    parser.add_argument("--samples-stats", type=int, help="statistics pool size")
    parser.add_argument("--samples-eval", type=int, help="evaluation pool size")
    parser.add_argument("--schemes", help="comma list of "
                        f"{','.join(SCHEMES)}")
    parser.add_argument("--power-mode", choices=["sum", "per-tx", "both"],
                        help="power constraint mode")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--strict", action="store_true", default=None,
                        help="abort on the first per-drop failure")
    parser.add_argument("--clamp-negative-powers", action="store_true", default=None,
                        help="zero out infeasible duality powers instead of failing")
    parser.add_argument("--emit-cdf", action="store_true", default=None,
                        help="also write cdf.csv from the rate records")
    parser.add_argument("--dump-gains", action="store_true", default=None,
                        help="write per-pair gain CSVs")
    parser.add_argument("--dump-stats", action="store_true", default=None,
                        help="write binary dumps of Pi matrices and coefficients")
    parser.add_argument("--progress", action="store_true", help="print drop progress")
    return parser


def resolve_config(args):
    """Merge precedence: CLI flag > environment variable > config file > default."""
    config_path = args.config or _env("CONFIG")
    config = load_config(config_path) if config_path else ScenarioConfig()
    updates = {}

    def split_list(text):
        return tuple(s.strip() for s in text.split(",") if s.strip())

    for flag, env_name, key, parse in (
        (args.seed, "SEED", "base_seed", int),
        (args.drops, "DROPS", "drops", int),
        (args.samples_stats, "SAMPLES_STATS", "statistics_samples", int),
        (args.samples_eval, "SAMPLES_EVAL", "evaluation_samples", int),
        (args.schemes, "SCHEMES", "schemes", split_list),
        (args.power_mode, "POWER_MODE", "power_modes",
         lambda mode: POWER_MODES if mode == "both" else (mode,)),
        (args.out, "OUT", "output_dir", str),
    ):
        value = flag if flag is not None else _env(env_name)
        if value is not None:
            try:
                updates[key] = parse(value)
            except ValueError as exc:
                raise ValueError(f"{ENV_PREFIX}{env_name}={value!r}: bad {key}: {exc}") from None
    for flag, env_name, key in (
        (args.strict, "STRICT", "strict"),
        (args.clamp_negative_powers, "CLAMP_NEGATIVE_POWERS", "clamp_negative_powers"),
        (args.dump_gains, "DUMP_GAINS", "dump_gains"),
        (args.dump_stats, "DUMP_STATS", "dump_stats"),
    ):
        if flag is not None:
            updates[key] = flag
        elif _env_flag(env_name):
            updates[key] = True
    if updates:
        config = dataclasses.replace(config, **updates)
    return config


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args).validate()
    except ValueError as exc:  # a bad flag, variable or config file: one line, exit status 2
        parser.error(str(exc))
    result = run(config, progress=args.progress)
    want_cdf = args.emit_cdf if args.emit_cdf is not None else _env_flag("EMIT_CDF")
    if want_cdf and result.rate_rows and result.out_dir:  # no output directory, no files
        write_cdf_csv(os.path.join(result.out_dir, "cdf.csv"), emit_cdf(result.rate_rows),
                      config.rate_units)
    n_rates = len(result.rate_rows)
    print(
        f"completed {config.drops} drops, {n_rates} rate records, "
        f"{len(result.failures)} failures -> {result.out_dir}"
    )
    return 0 if not result.failures else 1
