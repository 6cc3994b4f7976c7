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
(S, N*L, K) stack nor a scheme's z past its block.  A pool holds its
channels (S, K, N*L) alone: the local estimate is an elementwise function
of them, formed a stripe at a time inside each block where the precoders
read it.  run concatenates drops.
"""

import argparse
import csv
import dataclasses
import json
import math
import numbers
import os
import sys
import time
import typing
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
    area_m: tuple[float, ...] = (100.0, 50.0)
    height_m: float = 7.0
    ricean_kappa: float = 6.0
    carrier_ghz: float = 4.9
    bandwidth_hz: float = 100e6
    noise_figure_db: float = 7.0
    shadow_std_db: float = 4.0
    serving_stripes_per_user: int = 2
    weights: list[float] = None  # None -> uniform 1/K
    per_tx_power_mw: float = 1.0
    sum_power_mw: float = None  # overrides per_tx_power_mw * L when set
    drops: int = 100
    statistics_samples: int = 1000
    evaluation_samples: int = 1000
    base_seed: int = 1
    schemes: tuple[str, ...] = SCHEMES
    power_modes: tuple[str, ...] = POWER_MODES
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
        """Check every field against its declared type (a None default may stay
        None), then the ranges; raise ValueError naming the field."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not (value is None and f.default is None):
                _require_type(f.name, value, f.type)
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
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
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
        return {**dataclasses.asdict(self), "schema_version": SCHEMA_VERSION}

    @classmethod
    def from_dict(cls, d):
        """A validated config from a JSON object; JSON lists become the tuples
        that tuple-typed fields hold."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        d = dict(d)
        d.pop("schema_version", None)
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(d) - set(fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for name, value in d.items():
            if typing.get_origin(fields[name]) is tuple and isinstance(value, list):
                d[name] = tuple(value)
        return cls(**d).validate()


_JSON_KINDS = {int: "a finite integer", float: "a finite number", bool: "true or false",
               str: "a string", tuple: "a list", list: "a list"}  # field type -> what it takes


def _require_type(name, value, kind):
    """Raise ValueError unless value is of the field type kind as JSON gives it:
    numbers finite and not booleans (integers for int), a list (or tuple)
    whose entries are of its entry type."""
    origin = typing.get_origin(kind) or kind
    sequence = origin in (list, tuple)
    if origin in (int, float):
        ok = (isinstance(value, numbers.Integral if origin is int else numbers.Real)
              and not isinstance(value, bool) and math.isfinite(value))
    else:
        ok = isinstance(value, (list, tuple) if sequence else origin)
    if not ok:
        raise ValueError(f"{name} must be {_JSON_KINDS[origin]}, got {value!r}")
    for entry in value if sequence else ():
        _require_type(name, entry, typing.get_args(kind)[0])


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

def _switch(text):  # a switch's variable: on unless empty, 0, false or no
    return text.lower() not in ("", "0", "false", "no")


def build_parser():
    """The command line.  Each option's dest is the config field it sets
    (--config, --emit-cdf and --progress set none)."""
    parser = argparse.ArgumentParser(
        prog="tmmse",
        description=(
            "Distributed team-MMSE precoding simulator for radio-stripe "
            f"cell-free networks. An option left unset reads {ENV_PREFIX}<OPTION> "
            "(dashes as underscores); flags override those variables, which "
            "override the config file."
        ),
    )
    parser.add_argument("--config", help="scenario JSON path")
    parser.add_argument("--seed", dest="base_seed", type=int, help="base seed")
    parser.add_argument("--drops", type=int, help="number of user drops")
    parser.add_argument("--samples-stats", dest="statistics_samples", type=int,
                        help="statistics pool size")
    parser.add_argument("--samples-eval", dest="evaluation_samples", type=int,
                        help="evaluation pool size")
    parser.add_argument("--schemes", help=f"comma list of {','.join(SCHEMES)}",
                        type=lambda text: tuple(s.strip() for s in text.split(",") if s.strip()))
    parser.add_argument("--power-mode", dest="power_modes", metavar="{sum,per-tx,both}",
                        type=lambda mode: POWER_MODES if mode == "both" else (mode,),
                        help="power constraint mode")
    parser.add_argument("--out", dest="output_dir", help="output directory")
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
    """Merge precedence: CLI flag > environment variable > config file > default.

    Each option the command line left unset (None; --help and --progress
    have defaults of their own) is set in args from its variable, ENV_PREFIX
    plus the option's name in capitals with dashes as underscores, parsed by
    the option's type (a switch's by _switch).  Then every option whose dest
    is a config field overrides the file's value."""
    for action in build_parser()._actions:
        if action.default is not None or getattr(args, action.dest) is not None:
            continue
        name = ENV_PREFIX + action.option_strings[0][2:].upper().replace("-", "_")
        value = os.environ.get(name)
        if value is not None:
            parse = _switch if action.nargs == 0 else action.type or str
            try:
                setattr(args, action.dest, parse(value))
            except ValueError as exc:
                raise ValueError(f"{name}={value!r}: bad {action.dest}: {exc}") from None
    config = load_config(args.config) if args.config else ScenarioConfig()
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    return dataclasses.replace(config, **{
        field: value for field, value in vars(args).items()
        if field in fields and value is not None})


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args).validate()
    except ValueError as exc:  # a bad flag, variable or config file: one line, exit status 2
        parser.error(str(exc))
    result = run(config, progress=args.progress)
    if args.emit_cdf and result.rate_rows and result.out_dir:  # no output directory, no files
        write_cdf_csv(os.path.join(result.out_dir, "cdf.csv"), emit_cdf(result.rate_rows),
                      config.rate_units)
    n_rates = len(result.rate_rows)
    print(
        f"completed {config.drops} drops, {n_rates} rate records, "
        f"{len(result.failures)} failures -> {result.out_dir}"
    )
    return 0 if not result.failures else 1
