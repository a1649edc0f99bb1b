"""Monte Carlo trial harness, bundled benchmark instances, and the
acceptance suite.

Every estimator in the package carries a contract of the shape "within
eps of the truth with probability at least 2/3". This module makes the
contracts executable: a :class:`TrialConfig` names an algorithm and an
instance family from the bundled registry, :func:`run_trials` replays it
``trials`` times with derived seeds against an exact truth oracle, and
:func:`run_acceptance` checks observed success counts against the
contract probability minus a 95% one-sided binomial slack (57 of 100
trials for 2/3; 50 of 100 for the star reduction's 3/5).

Reports are deterministic for a fixed config, including across worker
counts, except for the wall-clock ``millis`` column.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .active_reduction import active_sample_size
from .bandit import (
    ArmSet,
    aga_schedule,
    build_star_instance_hard,
    good_arm_means,
    natural_aga,
    recover_good_fraction,
)
from .composition import (
    TruncatedBudget,
    at_most_k_ones_spec,
    composition_da,
    composition_plan,
    disjoint_union_da,
    disjoint_union_plan,
    distance_to_truncated_composition,
)
from .core import (
    ActivePool,
    Distribution,
    LabelOracle,
    Receipt,
    TargetFunction,
    WeightedSample,
    chernoff_iterations,
    relative_entropy,
    spawn_seeds,
)
from .intervals import (
    exact_distance_to_intervals,
    interval_block_spec,
    interval_da,
    interval_da_uniform,
    _merge_curve,
)
from .knn import (
    KnnInstance,
    MetricSpace,
    best_k,
    best_k_grid,
    estimate_hard_error,
    estimate_soft_loss_pth,
    exact_hard_error,
    exact_soft_loss,
    exact_soft_loss_table,
    id_distribution,
    loss_stability_bound,
)

__all__ = [
    "TrialConfig",
    "TrialRow",
    "TrialReport",
    "run_trials",
    "registered_algorithms",
    "check_params",
    "noisy_interval_target",
    "grid_interval_sample",
    "block_noise_target",
    "composition_segment_sample",
    "striped_union_target",
    "exact_interval_block_da",
    "bundled_best_k",
    "CriterionResult",
    "ACCEPTANCE_CRITERIA",
    "run_acceptance",
    "acceptance_passed",
]

ENUMERATION_LIMIT = 100_000


# ---------------------------------------------------------------------------
# configuration and report types


@dataclass(frozen=True)
class TrialConfig:
    """One batch experiment: an algorithm id, its accuracy, and a seed.

    ``params`` selects and sizes the bundled instance family and is checked
    against the algorithm's declared table (:func:`check_params`) when the
    bundle is built; ``tolerance`` overrides the success threshold, which
    defaults to ``eps`` (the star reduction installs its own wider default).
    The numeric fields are typed as a params key is: ``eps`` in (0, 1),
    ``trials`` >= 1, ``seed`` >= 0, and a finite positive ``tolerance``.
    """

    algorithm: str
    eps: float
    trials: int = 1
    seed: int = 0
    tolerance: float | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise ValueError("invalid parameter")
        if not isinstance(self.params, dict):
            raise ValueError("invalid parameter")
        # typed as check_params types a key; a non-None default rejects None
        eps = _typed("eps", self.eps, float, 0.0)
        trials = _typed("trials", self.trials, int, 1)
        seed = _typed("seed", self.seed, int, 0)
        tolerance = _typed("tolerance", self.tolerance, float, None)
        if not (0.0 < eps < 1.0) or trials < 1 or seed < 0:
            raise ValueError("invalid parameter")
        if tolerance is not None and tolerance <= 0.0:
            raise ValueError("invalid parameter")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "params", dict(self.params))

    def to_json(self) -> str:
        return json.dumps(
            {
                "algorithm": self.algorithm,
                "eps": self.eps,
                "trials": self.trials,
                "seed": self.seed,
                "tolerance": self.tolerance,
                "params": self.params,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TrialConfig":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("invalid parameter")
        known = {"algorithm", "eps", "trials", "seed", "tolerance", "params"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"invalid parameter: {sorted(unknown)[0]}")
        if "algorithm" not in obj or "eps" not in obj:
            raise ValueError("invalid parameter")
        return cls(
            algorithm=obj["algorithm"],
            eps=obj["eps"],
            trials=obj.get("trials", 1),
            seed=obj.get("seed", 0),
            tolerance=obj.get("tolerance"),
            params=obj.get("params", {}),
        )


@dataclass(frozen=True, slots=True)
class TrialRow:
    trial: int
    output: float
    truth: float
    abs_error: float
    success: bool
    queries: int
    unlabeled: int
    millis: float


_CSV_COLUMNS = tuple(f.name for f in fields(TrialRow))


def _wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval, without continuity correction,
    for k successes in n trials: scipy's ``binomtest(k, n).proportion_ci(
    method="wilson")`` (Newcombe 1998) transcribed, to the bit."""
    z = float.fromhex("0x1.f5c0331eeff84p+0")  # scipy.special.ndtri(0.975)
    p = k / n
    denom = 2 * (n + z**2)
    center = (2 * n * p + z**2) / denom
    delta = z / denom * math.sqrt(4 * n * p * (1 - p) + z**2)
    return (0.0 if k == 0 else center - delta, 1.0 if k == n else center + delta)


def _csv_cell(key: str, val) -> str:
    if key == "millis":
        return f"{val:.3f}"
    return str(int(val)) if isinstance(val, bool) else repr(val)


@dataclass
class TrialReport:
    """Per-trial rows plus a deterministic aggregate."""

    config: TrialConfig
    tolerance: float
    rows: list[TrialRow]

    @property
    def successes(self) -> int:
        return sum(1 for r in self.rows if r.success)

    @property
    def success_rate(self) -> float:
        return self.successes / len(self.rows)

    def aggregate(self) -> dict:
        n = len(self.rows)
        ci_low, ci_high = _wilson_interval(self.successes, n)
        return {
            "trials": n,
            "successes": self.successes,
            "success_rate": self.successes / n,
            "ci_low": ci_low,
            "ci_high": ci_high,
            "tolerance": self.tolerance,
            "mean_abs_error": float(np.mean([r.abs_error for r in self.rows])),
            "total_queries": int(sum(r.queries for r in self.rows)),
            "total_unlabeled": int(sum(r.unlabeled for r in self.rows)),
        }

    def to_csv(self) -> str:
        lines = [",".join(_CSV_COLUMNS)]
        for r in self.rows:
            lines.append(",".join(_csv_cell(k, v) for k, v in asdict(r).items()))
        agg = self.aggregate()
        lines.append("# aggregate " + " ".join(f"{k}={agg[k]!r}" for k in sorted(agg)))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": json.loads(self.config.to_json()),
                "rows": [asdict(r) for r in self.rows],
                "aggregate": self.aggregate(),
            },
            sort_keys=True,
            indent=2,
        )

    def write(self, path) -> None:
        path = Path(path)
        if path.suffix == ".csv":
            path.write_text(self.to_csv())
        elif path.suffix == ".json":
            path.write_text(self.to_json())
        else:
            raise ValueError("unknown output format")


# ---------------------------------------------------------------------------
# bundled instance families


def noisy_interval_target(d: int, flips: bool = True) -> TargetFunction:
    """Union of d intervals, one per period of width 1/d, each period
    optionally carrying a detached noise stripe.

    The stripe covers 15% of its period and sits at least 25% of a period
    from both neighboring intervals, farther than its own width and
    narrower than the intervals, so the cheapest repair into a d-interval
    union drops every stripe: the distance is exactly 0.15.
    """
    if d < 1:
        raise ValueError("invalid class parameter")

    def many(points):
        frac = np.array(points, dtype=float)
        frac *= d
        # the fraction in place, floor taken a block at a time: labeling
        # makes no second point-sized float array
        flat = frac.reshape(-1)
        for a in range(0, flat.shape[0], 4096):
            part = flat[a : a + 4096]
            part -= np.floor(part)
        ones = frac >= 0.05
        ones &= frac < 0.40
        if flips:
            band = frac >= 0.65
            band &= frac < 0.80
            ones |= band
        return ones.view(np.int8)

    return TargetFunction(many)


def grid_interval_sample(target: TargetFunction, grid_points: int = 100_000) -> WeightedSample:
    """Uniform [0,1) discretized to cell midpoints with equal weights;
    exact for targets constant on every cell. The weights are one
    read-only broadcast of 1/grid_points, so writing into
    ``sample.weights`` raises."""
    if grid_points < 1:
        raise ValueError("invalid parameter")
    mids = np.arange(grid_points, dtype=float)
    mids += 0.5
    mids /= grid_points
    weights = np.broadcast_to(1.0 / grid_points, mids.shape)
    return WeightedSample(mids, weights, target.eval_many(mids))


# In-block geometry of the composition benchmark, in fractions of a block:
# two clean intervals and, in marked blocks, 25 detached stripes between
# them. Stripes are narrower than every gap they could merge across, so no
# reshaping of a within-budget cover absorbs one for free.
_BASES = ((0.08, 0.28), (0.72, 0.92))
_SEG_START = 0.32
_SEG_STEP = 0.0136
_SEG_WIDTH = 0.004
_SEG_COUNT = 25


def block_noise_target(m: int, noisy_mask) -> TargetFunction:
    """Blockwise target on [0,1): every block holds the two clean intervals;
    blocks with ``noisy_mask`` set add the 25 stripes.

    At per-block rate 2 the total budget is exactly consumed by the clean
    intervals, so the truncated distance at budget 2m equals the stripe
    mass: 0.1 of each marked block.
    """
    mask = np.asarray(noisy_mask, dtype=bool)
    if mask.shape != (m,):
        raise ValueError("invalid parameter")

    def many(points):
        x = np.asarray(points, dtype=float)
        frac = x * m
        frac = frac - np.floor(frac)
        ones = np.zeros(x.shape, dtype=bool)
        for lo, hi in _BASES:
            ones |= (lo <= frac) & (frac < hi)
        off = frac - _SEG_START
        j = np.floor(off / _SEG_STEP)
        in_seg = (off >= 0.0) & (j < _SEG_COUNT) & (off - j * _SEG_STEP < _SEG_WIDTH)
        blk = np.clip(np.ceil(x * m).astype(np.intp) - 1, 0, m - 1)
        ones |= in_seg & mask[blk]
        return ones.astype(np.int8)

    return TargetFunction(many)


def composition_segment_sample(
    m: int, target: TargetFunction
) -> tuple[WeightedSample, np.ndarray]:
    """Segment-exact weighted sample of the composition benchmark plus its
    block ids: one atom per constant cell, so exact solvers on it equal the
    continuous distances."""
    edges = [0.0, _BASES[0][0], _BASES[0][1]]
    for j in range(_SEG_COUNT):
        lo = _SEG_START + j * _SEG_STEP
        edges += [lo, lo + _SEG_WIDTH]
    edges += [_BASES[1][0], _BASES[1][1], 1.0]
    edges = np.asarray(edges)
    mids = (edges[:-1] + edges[1:]) / 2.0
    widths = edges[1:] - edges[:-1]
    cells = mids.shape[0]
    points = ((np.arange(m)[:, None] + mids[None, :]) / m).ravel()
    weights = np.tile(widths / m, m)
    ids = np.repeat(np.arange(m, dtype=np.intp), cells)
    return WeightedSample(points, weights, target.eval_many(points)), ids


def striped_union_target() -> TargetFunction:
    """Two equal-mass halves of [0,1): the left half is all zeros; the right
    half is five equal stripes labeled 1,0,1,0,1, whose conditional distance
    to a single interval is exactly 0.4. The stripe parity is an integer
    bit test: on [0,1) the stripe index is a small whole number."""

    def many(points):
        x = np.asarray(points, dtype=float)
        s = x - 0.5
        s /= 0.1
        odd = np.floor(s, out=s).astype(np.int64)
        odd &= 1
        return ((x >= 0.5) & (odd == 0)).view(np.int8)

    return TargetFunction(many)


def _union_block_of(points) -> np.ndarray:
    return (np.asarray(points, dtype=float) >= 0.5).view(np.int8)


def exact_interval_block_da(d: int = 1) -> Callable:
    """Per-block estimator for :func:`disjoint_union_da`: labels the whole
    block pool in one call and solves each repetition's slice exactly, as
    one row of the interval kernel, all rows in one kernel call. Returns
    each row's cost at d intervals, which equals
    `exact_distance_to_intervals` on that slice alone."""

    def run(block_pool: ActivePool, reps: int, eps: float, rng) -> np.ndarray:
        pts, idx = block_pool.take_rest()
        labels = block_pool.label(idx)
        n = pts.shape[0] // reps
        weights = np.broadcast_to(1.0 / max(n, 1), pts.shape)
        return _merge_curve(pts, weights, labels, np.arange(reps + 1) * n, d).at_stop()

    return run


# ---------------------------------------------------------------------------
# algorithm registry


@dataclass
class _Bundle:
    """A built benchmark: its exact truth and a per-trial runner returning
    the estimator's receipt."""

    truth: float
    run_trial: Callable[[np.random.Generator], Receipt]
    default_tolerance: float | None = None
    info: dict = field(default_factory=dict)


class _Algorithm(NamedTuple):
    """A registry entry: the checked bundle builder, its declared parameters
    ``{key: (type, default)}`` (default ``None`` means derived), the CLI's
    default eps and one-line help, and optional extra lines the CLI prints
    before the report."""

    build: Callable[[float, dict, np.random.Generator], _Bundle]
    params: dict[str, tuple[type, object]]
    eps: float
    help: str
    notes: Callable[[TrialConfig], list[str]] | None = None


_REGISTRY: dict[str, _Algorithm] = {}


def _typed(key: str, val, typ: type, default):
    if val is None and default is None:
        return None
    if isinstance(val, numbers.Real):
        if typ is bool:
            if val in (0, 1):
                return bool(val)
        elif not isinstance(val, bool):
            if typ is float:
                if math.isfinite(val):
                    return float(val)
            if isinstance(val, numbers.Integral) or float(val).is_integer():
                return int(val)
    raise ValueError(f"invalid parameter: {key}")


def check_params(algorithm: str, params: dict) -> dict:
    """``params`` typed against ``algorithm``'s declared table: an int key
    takes an int or an integral float, a bool key 0/1 or True/False, a float
    key any finite real, and a key whose default is derived also takes None;
    an unknown key or any other value raises ``invalid parameter: <key>``."""
    if algorithm not in _REGISTRY:
        raise ValueError("unknown algorithm")
    table = _REGISTRY[algorithm].params
    out = {}
    for key, val in params.items():
        if key not in table:
            raise ValueError(f"invalid parameter: {key}")
        out[key] = _typed(key, val, *table[key])
    return out


def _algorithm(name: str, cli_eps: float, help: str, notes=None, /, **params):
    """Register the decorated builder under ``name`` with its declared
    parameters ``key=(type, default)``, the CLI's default eps, one-line help
    and optional notes. The registered (and returned) builder fills in the
    defaults and type-checks the raw params once, so the builder body reads
    a complete, typed dict."""

    def register(build):
        def checked(eps: float, given: dict, rng: np.random.Generator) -> _Bundle:
            typed = {key: default for key, (_, default) in params.items()}
            typed.update(check_params(name, given))
            return build(eps, typed, rng)

        _REGISTRY[name] = _Algorithm(checked, params, cli_eps, help, notes)
        return checked

    return register


@_algorithm(
    "intervals-da", 0.1, "interval-union distance approximation",
    d=(int, 100), grid=(int, None), flips=(bool, True),
)
def _build_intervals_da(eps: float, p: dict, rng: np.random.Generator) -> _Bundle:
    d = p["d"]
    target = noisy_interval_target(d, flips=p["flips"])
    # the target's edges sit at multiples of 1/20 of a period, so a grid of
    # 20*d*j cells puts each on a cell boundary and the grid truth is exact
    period_cells = 20 * d
    grid = p["grid"]
    if grid is None:
        grid = period_cells * math.ceil(100_000 / period_cells)
    elif grid < 1 or grid % period_cells:
        raise ValueError("invalid parameter")
    truth, _ = exact_distance_to_intervals(grid_interval_sample(target, grid), d)

    def run(trial_rng: np.random.Generator):
        return interval_da(Distribution.uniform01(), target, eps, d, seed=trial_rng)

    return _Bundle(float(truth), run)


@_algorithm(
    "compose-da", 0.15, "blockwise composition distance approximation",
    m=(int, 40), lam=(float, 2.0), mu=(float, 0.5), noisy_blocks=(int, None), pool=(int, None),
)
def _build_compose_da(eps: float, p: dict, rng: np.random.Generator) -> _Bundle:
    m, lam, mu, pool_size = p["m"], p["lam"], p["mu"], p["pool"]
    noisy = m // 2 if p["noisy_blocks"] is None else p["noisy_blocks"]
    if not (0 <= noisy <= m):
        raise ValueError("invalid parameter")
    if pool_size is not None and pool_size < 0:
        raise ValueError("invalid parameter: pool")
    plan = composition_plan(m, lam, eps, mu)
    mask = np.zeros(m, dtype=bool)
    if noisy:
        mask[np.linspace(0, m - 1, noisy).astype(int)] = True
    target = block_noise_target(m, mask)
    spec = interval_block_spec(m)
    sample, ids = composition_segment_sample(m, target)
    truth = distance_to_truncated_composition(
        sample, ids, spec, TruncatedBudget(total=lam * m, cap=plan["cap"])
    )
    if pool_size is None:
        reps, erm = plan["repetitions"], plan["erm_samples"]
        pool_size = math.ceil(1.35 * reps * erm * m / plan["l"]) + 256

    def run(trial_rng: np.random.Generator):
        pool = ActivePool(trial_rng.random(pool_size), LabelOracle(target))
        return composition_da(pool, spec, lam, eps, mu, seed=trial_rng)

    return _Bundle(float(truth), run, info={"pool": pool_size})


@_algorithm(
    "union-da", 0.1, "disjoint-union distance approximation",
    block_pool=(int, 300), pool=(int, None),
)
def _build_union_da(eps: float, p: dict, rng: np.random.Generator) -> _Bundle:
    block_pool, pool_size = p["block_pool"], p["pool"]
    if block_pool < 1:
        raise ValueError("invalid parameter: block_pool")
    if pool_size is not None and pool_size < 0:
        raise ValueError("invalid parameter: pool")
    target = striped_union_target()
    stripes = WeightedSample(
        0.55 + 0.1 * np.arange(5), np.full(5, 0.2), np.array([1, 0, 1, 0, 1], dtype=np.int8)
    )
    d1, _ = exact_distance_to_intervals(stripes, 1)
    truth = 0.5 * 0.0 + 0.5 * float(d1)
    s, reps = disjoint_union_plan(eps, 2)
    if pool_size is None:
        pool_size = s + math.ceil(2.12 * reps * block_pool) + 512

    def run(trial_rng: np.random.Generator):
        pool = ActivePool(trial_rng.random(pool_size), LabelOracle(target))
        return disjoint_union_da(
            pool,
            exact_interval_block_da(1),
            eps,
            num_blocks=2,
            block_of=_union_block_of,
            block_pool_size=block_pool,
            seed=trial_rng,
        )

    return _Bundle(float(truth), run, info={"s": s, "reps": reps, "pool": pool_size})


def _check_flip(p: dict) -> None:
    # The label-flip probability, checked before the builder draws.
    if not 0.0 <= p["flip"] <= 1.0:
        raise ValueError("invalid parameter: flip")


def _threshold_labels(coords: np.ndarray, flip: float, rng: np.random.Generator):
    base = (coords > 0.5).astype(np.int8)
    return base ^ (rng.random(coords.shape[0]) < flip).astype(np.int8)


@_algorithm(
    "knn-soft", 0.1, "soft k-NN p-th power loss estimation",
    n=(int, 500), k=(int, 25), p=(int, 2), flip=(float, 0.2),
)
def _build_knn_soft(eps: float, p: dict, rng: np.random.Generator) -> _Bundle:
    n, k, power = p["n"], p["k"], p["p"]
    if n > ENUMERATION_LIMIT:
        raise ValueError("truth oracle unavailable")
    _check_flip(p)
    coords = rng.random(n)
    labels = _threshold_labels(coords, p["flip"], rng)
    space = MetricSpace.euclidean1d(coords)
    ids = np.arange(n)
    tf = TargetFunction.from_labels(labels)
    inst = KnnInstance(space, ids, tf)
    test_dist = id_distribution(ids)
    truth = exact_soft_loss(inst, test_dist, k, power)

    def run(trial_rng: np.random.Generator):
        trial = inst.with_oracle(tf)
        return estimate_soft_loss_pth(trial, test_dist, k, power, eps, seed=trial_rng)

    return _Bundle(float(truth), run)


@_algorithm("knn-hard", 0.1, "hard k-NN error estimation", n=(int, 500), k=(int, 25))
def _build_knn_hard(eps: float, p: dict, rng: np.random.Generator) -> _Bundle:
    n, k = p["n"], p["k"]
    if n > ENUMERATION_LIMIT:
        raise ValueError("truth oracle unavailable")
    if n < 2 or n % 2:
        raise ValueError("invalid parameter")
    coords = rng.random(n)
    # Labels equal membership in the neighbor pool, so the majority vote is
    # constant 1 and the exact error is the off-pool half: 0.5 on the nose.
    labels = np.zeros(n, dtype=np.int8)
    labels[: n // 2] = 1
    space = MetricSpace.euclidean1d(coords)
    ids = np.arange(n)
    pool = ids[: n // 2]
    tf = TargetFunction.from_labels(labels)
    inst = KnnInstance(space, pool, tf)
    test_dist = id_distribution(ids)
    truth = exact_hard_error(inst, test_dist, k)

    def run(trial_rng: np.random.Generator):
        return estimate_hard_error(inst.with_oracle(tf), test_dist, k, eps, seed=trial_rng)

    return _Bundle(float(truth), run)


def _best_k_search(config: TrialConfig) -> tuple[int, list[tuple[int, float]], float, float]:
    """One search on the bundled best-k instance with trial 0's seed: the
    chosen k, the (k, estimate) table, the exact loss at the choice and the
    exact best loss."""
    bundle, trial_seqs = _build_bundle(config)
    k_star, table, _ = bundle.info["search"](np.random.default_rng(trial_seqs[0]))
    return k_star, table, float(bundle.info["truth_table"][k_star - 1]), bundle.truth


def _best_k_notes(config: TrialConfig) -> list[str]:
    k_star, table, loss, best = _best_k_search(config)
    return [
        f"k_star={k_star} exact_loss_at_choice={loss:.4f} exact_best={best:.4f}",
        "grid table (k, estimate):",
    ] + [f"  {k:4d} {est:.4f}" for k, est in table]


@_algorithm(
    "best-k", 0.2, "search for a near-best neighbor count", _best_k_notes,
    n=(int, 200), p=(int, 2), flip=(float, 0.15),
)
def _build_best_k(eps: float, p: dict, rng: np.random.Generator) -> _Bundle:
    n, power = p["n"], p["p"]
    if 2 * n > ENUMERATION_LIMIT:
        raise ValueError("truth oracle unavailable")
    _check_flip(p)
    # Held-out test half: a point must not count itself among its own
    # neighbors, or k=1 would win every search with loss zero.
    coords = rng.random(2 * n)
    labels = _threshold_labels(coords, p["flip"], rng)
    space = MetricSpace.euclidean1d(coords)
    pool = np.arange(n)
    test_dist = id_distribution(np.arange(n, 2 * n))
    tf = TargetFunction.from_labels(labels)
    inst = KnnInstance(space, pool, tf)
    table = exact_soft_loss_table(inst, test_dist, power)
    truth = float(table.min())

    def search(trial_rng: np.random.Generator):
        trial = inst.with_oracle(tf)
        k_star, est_table = best_k(trial, test_dist, power, eps, seed=trial_rng)
        return k_star, est_table, trial.oracle.used

    def run(trial_rng: np.random.Generator):
        k_star, _, used = search(trial_rng)
        return Receipt(float(table[k_star - 1]), used)

    return _Bundle(truth, run, info={"n": n, "truth_table": table, "search": search})


@_algorithm(
    "aga", 0.05, "good-arm fraction estimation",
    n=(int, 200), gamma=(float, 0.1), good_frac=(float, 0.5),
)
def _build_aga(eps: float, p: dict, rng: np.random.Generator) -> _Bundle:
    n, gamma = p["n"], p["gamma"]
    means = good_arm_means(n, gamma, p["good_frac"])
    truth = np.count_nonzero(means > 0.5) / n

    def run(trial_rng: np.random.Generator):
        return natural_aga(ArmSet(means), gamma, eps, seed=trial_rng)

    return _Bundle(float(truth), run)


@_algorithm(
    "star-hard", 0.15, "good-arm fraction recovered from star-instance k-NN error",
    n=(int, 8), k=(int, 5), gamma=(float, 0.3), good_frac=(float, 0.5),
    c1=(float, 1.5), c2=(float, 0.01),
)
def _build_star_hard(eps: float, p: dict, rng: np.random.Generator) -> _Bundle:
    n, k = p["n"], p["k"]
    means = good_arm_means(n, p["gamma"], p["good_frac"])
    si = build_star_instance_hard(n, means, k, eps, (p["c1"], p["c2"]), seed=rng)
    if si.instance.space.n > 2 * ENUMERATION_LIMIT:
        raise ValueError("truth oracle unavailable")
    test_dist = id_distribution(np.arange(si.instance.space.n))
    exact = exact_hard_error(si.instance, test_dist, k)
    truth = recover_good_fraction(exact, si.b)

    def run(trial_rng: np.random.Generator):
        trial = si.instance.with_oracle(si.instance.oracle.target)
        est = estimate_hard_error(trial, test_dist, k, eps, seed=trial_rng)
        return replace(est, value=recover_good_fraction(est.value, si.b))

    return _Bundle(float(truth), run, default_tolerance=2.0 * eps)


def registered_algorithms() -> list[str]:
    return sorted(_REGISTRY)


def _build_bundle(config: TrialConfig) -> tuple[_Bundle, list]:
    if config.algorithm not in _REGISTRY:
        raise ValueError("unknown algorithm")
    seqs = spawn_seeds(config.seed, config.trials + 1)
    bundle = _REGISTRY[config.algorithm].build(
        config.eps, config.params, np.random.default_rng(seqs[0])
    )
    return bundle, seqs[1:]


def run_trials(config: TrialConfig, *, workers: int = 1) -> TrialReport:
    """Run the configured algorithm ``trials`` times against exact truth.

    The instance is built once from the config seed; each trial gets an
    independently derived generator. Rows are keyed by trial index, so the
    report does not depend on worker scheduling.
    """
    bundle, trial_seqs = _build_bundle(config)
    tolerance = (
        config.tolerance
        if config.tolerance is not None
        else (bundle.default_tolerance if bundle.default_tolerance is not None else config.eps)
    )

    def one(i: int) -> TrialRow:
        rng = np.random.default_rng(trial_seqs[i])
        t0 = time.perf_counter()
        receipt = bundle.run_trial(rng)
        millis = (time.perf_counter() - t0) * 1000.0
        err = abs(receipt.value - bundle.truth)
        return TrialRow(
            trial=i,
            output=float(receipt.value),
            truth=bundle.truth,
            abs_error=float(err),
            success=bool(err <= tolerance),
            queries=int(receipt.queries_used),
            unlabeled=int(receipt.unlabeled_used),
            millis=millis,
        )

    if workers > 1:
        # imported here: a single-worker run, the common case, skips the
        # thread pool's imports (about 0.6 MB resident)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(one, range(config.trials)))
    else:
        rows = [one(i) for i in range(config.trials)]
    return TrialReport(config=config, tolerance=float(tolerance), rows=rows)


def bundled_best_k(
    eps: float, p: int, seed: int = 0, n: int | None = None
) -> tuple[int, list[tuple[int, float]], float]:
    """Run one neighbor-count search on the bundled instance (``n`` points,
    the registry's default when None); returns the chosen k, the
    (k, estimate) table, and the exact loss at the choice."""
    params = {"p": p} if n is None else {"n": n, "p": p}
    return _best_k_search(TrialConfig("best-k", eps=eps, seed=seed, params=params))[:3]


# ---------------------------------------------------------------------------
# acceptance suite


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.number:2d} {self.name:<32} {self.detail} [{self.seconds:.1f}s]"


_SUITE_SEED = 108
_TRIALS = 100
# Contract probability minus a 95% one-sided binomial slack at 100 trials.
_NEED_TWO_THIRDS = 57
_NEED_THREE_FIFTHS = 50


def _crit_interval_accuracy() -> tuple[bool, str]:
    cfg = TrialConfig(
        "intervals-da", eps=0.1, trials=_TRIALS, seed=_SUITE_SEED + 1, params={"d": 100}
    )
    rep = run_trials(cfg)
    ok = rep.successes >= _NEED_TWO_THIRDS
    return ok, (
        f"{rep.successes}/{cfg.trials} within {cfg.eps} of grid truth "
        f"{rep.rows[0].truth:.4f} (need {_NEED_TWO_THIRDS})"
    )


def _crit_label_budget() -> tuple[bool, str]:
    eps = 0.2
    documented_c = 0.25
    target = noisy_interval_target(1024)
    queries, unlabeled, ok = [], [], True
    for d in (64, 256, 1024):
        rng = np.random.default_rng(_SUITE_SEED + 2)
        n = active_sample_size(2 * d, eps)
        pool = ActivePool(rng.random(n), LabelOracle(target))
        res = interval_da_uniform(pool, eps, d)
        bound = documented_c * (d / eps**2) * math.log(1.0 / eps)
        ok &= res.unlabeled_used <= bound
        queries.append(res.queries_used)
        unlabeled.append(res.unlabeled_used)
    ok &= len(set(queries)) == 1
    return ok, (
        f"queries {queries} identical across d; unlabeled {unlabeled} <= "
        f"{documented_c}*(d/eps^2)*ln(1/eps)"
    )


def _random_semiuniform_blocks(m: int, rng: np.random.Generator):
    pts, wts, labs, ids = [], [], [], []
    for i in range(m):
        nb = int(rng.integers(1, 7))
        w = rng.random(nb) + 0.05
        pts.append((i + np.sort(rng.random(nb))) / m)
        wts.append(w / (w.sum() * m))
        labs.append(rng.integers(0, 2, size=nb))
        ids.append(np.full(nb, i, dtype=np.intp))
    return (
        np.concatenate(pts),
        np.concatenate(wts),
        np.concatenate(labs).astype(np.int8),
        np.concatenate(ids),
    )


def _crit_truncation_containment() -> tuple[bool, str]:
    rng = np.random.default_rng(_SUITE_SEED + 3)
    worst = -np.inf
    for trial in range(200):
        m = int(rng.integers(1, 6))
        t = int(rng.integers(1, 4))
        d = int(rng.integers(0, 11))
        pts, wts, labs, ids = _random_semiuniform_blocks(m, rng)
        spec = interval_block_spec(m) if trial % 2 else at_most_k_ones_spec(m)
        sample = WeightedSample(pts, wts, labs)
        uncapped = distance_to_truncated_composition(
            sample, ids, spec, TruncatedBudget(total=d, cap=max(d, 1))
        )
        capped = distance_to_truncated_composition(
            sample, ids, spec, TruncatedBudget(total=d, cap=t)
        )
        if uncapped > capped + 1e-12:
            return False, f"trial {trial}: capped below uncapped"
        slack = capped - uncapped - d / (t * m)
        worst = max(worst, slack)
        if slack > 1e-12:
            return False, f"trial {trial}: truncation overshoots bound by {slack:.2e}"
    return True, f"200 instances contained; max bound slack {worst:.2e} <= 0"


def _brute_force_truncated(sample, ids, spec, total: int, cap: int) -> float:
    # each block's curve from a call on that block alone, read as flat
    # past its end, against the solver's one call over all blocks
    kmax = min(cap, total)
    curves = []
    for i in range(spec.num_blocks):
        mask = ids == i
        sub = WeightedSample(sample.points[mask], sample.weights[mask], sample.labels[mask])
        curves.append(spec.cost_curves(sub, np.array([0, len(sub)]), kmax)[0])
    allocs = np.indices((kmax + 1,) * spec.num_blocks).reshape(spec.num_blocks, -1)
    feasible = allocs.sum(axis=0) <= total
    costs = np.zeros(allocs.shape[1])
    for i in range(spec.num_blocks):
        costs += curves[i][np.minimum(allocs[i], len(curves[i]) - 1)]
    return float(costs[feasible].min())


def _crit_knapsack_exact() -> tuple[bool, str]:
    rng = np.random.default_rng(_SUITE_SEED + 4)
    worst = 0.0
    for trial in range(1000):
        m = int(rng.integers(1, 6))
        d = int(rng.integers(0, 7))
        t = int(rng.integers(1, 4))
        n = int(rng.integers(1, 19))
        pts = rng.random(n)
        wts = rng.random(n) + 1e-3
        labs = rng.integers(0, 2, size=n).astype(np.int8)
        ids = rng.integers(0, m, size=n).astype(np.intp)
        spec = interval_block_spec(m) if trial % 2 else at_most_k_ones_spec(m)
        sample = WeightedSample(pts, wts, labs)
        budget = TruncatedBudget(total=d, cap=t)
        dp = distance_to_truncated_composition(sample, ids, spec, budget)
        brute = _brute_force_truncated(sample, ids, spec, d, t)
        worst = max(worst, abs(dp - brute))
        if abs(dp - brute) > 1e-9:
            return False, f"trial {trial}: dp {dp!r} != brute force {brute!r}"
    return True, f"1000 instances equal; max |dp - brute| {worst:.2e}"


def _crit_composition_estimate() -> tuple[bool, str]:
    cfg = TrialConfig(
        "compose-da", eps=0.15, trials=_TRIALS, seed=_SUITE_SEED + 5, params={"m": 40, "lam": 2.0}
    )
    rep = run_trials(cfg)
    truth = rep.rows[0].truth
    ok = rep.successes >= _NEED_TWO_THIRDS and abs(truth - 0.05) <= 1e-9
    return ok, (
        f"{rep.successes}/{cfg.trials} within {cfg.eps} of knapsack truth "
        f"{truth:.4f} (constructed 0.05, need {_NEED_TWO_THIRDS})"
    )


def _enumerate_unbiasedness(rng: np.random.Generator) -> float:
    worst = 0.0
    for n in range(2, 9):
        coords = np.sort(rng.random(n))
        space = MetricSpace.euclidean1d(coords)
        ids = np.arange(n)
        test_dist = id_distribution(ids)
        if n <= 5:
            labelings = [
                np.array([(mask >> i) & 1 for i in range(n)], dtype=np.int8)
                for mask in range(2**n)
            ]
        else:
            labelings = [rng.integers(0, 2, size=n).astype(np.int8) for _ in range(8)]
        for labels in labelings:
            inst = KnnInstance(space, ids, LabelOracle(TargetFunction.from_labels(labels)))
            for k in sorted({1, max(1, n // 2), n}):
                nbr_labels = labels[inst.ranking(ids, k)]
                for p in (1, 2, 3):
                    per_point = np.empty(n)
                    for x in range(n):
                        a = np.abs(nbr_labels[x] - labels[x]).astype(float)
                        outcome = a.copy()
                        for _ in range(p - 1):
                            outcome = np.multiply.outer(outcome, a)
                        per_point[x] = outcome.mean()
                        worst = max(worst, abs(per_point[x] - a.mean() ** p))
                    exact = exact_soft_loss(inst, test_dist, k, p)
                    worst = max(worst, abs(per_point.mean() - exact))
    return worst


def _crit_soft_loss() -> tuple[bool, str]:
    worst = _enumerate_unbiasedness(np.random.default_rng(_SUITE_SEED + 6))
    cfg = TrialConfig(
        "knn-soft",
        eps=0.1,
        trials=_TRIALS,
        seed=_SUITE_SEED + 60,
        params={"n": 500, "k": 25, "p": 2},
    )
    rep = run_trials(cfg)
    t = chernoff_iterations(cfg.eps, 1.0 / 3.0)
    exact_budget = all(r.queries == t * 3 for r in rep.rows)
    ok = worst <= 1e-12 and rep.successes >= _NEED_TWO_THIRDS and exact_budget
    return ok, (
        f"enumerated bias {worst:.1e} <= 1e-12; {rep.successes}/{cfg.trials} within "
        f"{cfg.eps} (need {_NEED_TWO_THIRDS}); queries == {t}*(p+1) {exact_budget}"
    )


def _crit_stability() -> tuple[bool, str]:
    rng = np.random.default_rng(_SUITE_SEED + 7)
    worst = -np.inf
    for trial in range(100):
        n = int(rng.integers(2, 51))
        p = int(rng.integers(1, 4))
        coords = rng.random(n)
        labels = rng.integers(0, 2, size=n).astype(np.int8)
        inst = KnnInstance(
            MetricSpace.euclidean1d(coords),
            np.arange(n),
            LabelOracle(TargetFunction.from_labels(labels)),
        )
        table = exact_soft_loss_table(inst, id_distribution(np.arange(n)), p)
        ks = np.arange(1, n + 1, dtype=float)
        diffs = np.abs(table[:, None] - table[None, :])
        bounds = p * (1.0 - ks[:, None] / ks[None, :])
        upper = np.triu_indices(n, k=1)
        slack = (diffs[upper] - bounds[upper]).max() if upper[0].size else -np.inf
        worst = max(worst, slack)
        if slack > 1e-12:
            return False, f"trial {trial}: pairwise loss jump beats p(1-k1/k2) by {slack:.2e}"
    assert loss_stability_bound(2, 10, 20) == 2 * (1 - 0.5)
    return True, f"100 instances, all k1<k2 pairs within bound; max slack {worst:.2e}"


def _crit_best_k() -> tuple[bool, str]:
    ok = True
    notes = []
    for p in (1, 2):
        cfg = TrialConfig(
            "best-k", eps=0.2, trials=_TRIALS, seed=_SUITE_SEED + 80 + p, params={"p": p}
        )
        rep = run_trials(cfg)
        ok &= rep.successes >= _NEED_TWO_THIRDS
        r = p / (p - cfg.eps / 3.0)
        t = int(math.floor(math.log(200) / math.log(r)))
        cand = set()
        for i in range(t + 1):
            v = r**i
            cand.add(min(max(int(math.floor(v)), 1), 200))
            cand.add(min(max(int(math.ceil(v)), 1), 200))
        grid_ok = sorted(cand) == best_k_grid(200, p, cfg.eps)
        ok &= grid_ok
        notes.append(f"p={p}: {rep.successes}/{cfg.trials}, grid({len(cand)} pts, t={t}) {grid_ok}")
    return ok, "; ".join(notes) + f" (need {_NEED_TWO_THIRDS})"


def _crit_hard_error() -> tuple[bool, str]:
    cfg = TrialConfig(
        "knn-hard",
        eps=0.1,
        trials=_TRIALS,
        seed=_SUITE_SEED + 9,
        params={"n": 500, "k": 25},
    )
    rep = run_trials(cfg)
    t = chernoff_iterations(cfg.eps, 1.0 / 3.0)
    exact_budget = all(r.queries == t * 26 for r in rep.rows)
    # enumeration sums 500 weights of 1/500, so allow 1 ulp of drift
    truth_exact = abs(rep.rows[0].truth - 0.5) <= 1e-12
    ok = rep.successes >= _NEED_TWO_THIRDS and exact_budget and truth_exact
    return ok, (
        f"{rep.successes}/{cfg.trials} within {cfg.eps} of exact error 0.5 "
        f"(need {_NEED_TWO_THIRDS}); queries == {t}*(k+1) {exact_budget}; "
        f"enumerated truth matches construction {truth_exact}"
    )


def _crit_arm_fraction() -> tuple[bool, str]:
    cfg = TrialConfig(
        "aga",
        eps=0.05,
        trials=_TRIALS,
        seed=_SUITE_SEED + 10,
        params={"n": 200, "gamma": 0.1},
    )
    rep = run_trials(cfg)
    s, q = aga_schedule(cfg.eps, 0.1)
    exact_pulls = all(r.queries == s * q for r in rep.rows)
    ok = rep.successes >= _NEED_TWO_THIRDS and exact_pulls
    return ok, (
        f"{rep.successes}/{cfg.trials} within {cfg.eps} of 0.5 (need {_NEED_TWO_THIRDS}); "
        f"pulls == {s}*{q} {exact_pulls}"
    )


def _crit_star_recovery() -> tuple[bool, str]:
    cfg = TrialConfig(
        "star-hard",
        eps=0.15,
        trials=_TRIALS,
        seed=_SUITE_SEED + 11,
        params={"n": 8, "k": 5, "gamma": 0.3},
    )
    rep = run_trials(cfg)
    ok = rep.successes >= _NEED_THREE_FIFTHS
    return ok, (
        f"{rep.successes}/{cfg.trials} recovered within 2*eps of enumerated truth "
        f"{rep.rows[0].truth:.4f} (need {_NEED_THREE_FIFTHS})"
    )


def _crit_union() -> tuple[bool, str]:
    cfg = TrialConfig("union-da", eps=0.1, trials=_TRIALS, seed=_SUITE_SEED + 12)
    rep = run_trials(cfg)
    truth_exact = abs(rep.rows[0].truth - 0.2) <= 1e-12
    ok = rep.successes >= _NEED_TWO_THIRDS and truth_exact
    return ok, (
        f"{rep.successes}/{cfg.trials} within {cfg.eps} of 0.2 "
        f"(blockwise 0 and 0.4, need {_NEED_TWO_THIRDS})"
    )


def _crit_divergence_docs() -> tuple[bool, str]:
    from . import bandit as _bandit
    import activetest as _pkg

    grid = np.linspace(0.005, 0.995, 199)
    worst = np.inf
    for x in grid:
        for y in grid:
            worst = min(worst, relative_entropy(float(x), float(y)) - 2.0 * (x - y) ** 2)
    pinsker_ok = worst >= -1e-12
    doc = (_bandit.__doc__ or "").lower()
    documented = "lower-bound" in doc and "documentation only" in doc
    executables = [
        name for name in _pkg.__all__ if "lower" in name.lower() and "bound" in name.lower()
    ]
    ok = pinsker_ok and documented and not executables
    return ok, (
        f"divergence >= 2*gap^2 on 199^2 grid (min slack {worst:.2e}); "
        f"floors documented as not executable: {documented}; no floor callables: {not executables}"
    )


ACCEPTANCE_CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "interval-da-accuracy", _crit_interval_accuracy),
    (2, "interval-label-budget-d-free", _crit_label_budget),
    (3, "truncation-containment", _crit_truncation_containment),
    (4, "knapsack-brute-force-equality", _crit_knapsack_exact),
    (5, "composition-estimate", _crit_composition_estimate),
    (6, "soft-loss-estimator", _crit_soft_loss),
    (7, "loss-stability-bound", _crit_stability),
    (8, "best-k-search", _crit_best_k),
    (9, "hard-error-estimator", _crit_hard_error),
    (10, "arm-fraction-estimate", _crit_arm_fraction),
    (11, "star-reduction-recovery", _crit_star_recovery),
    (12, "union-estimate", _crit_union),
    (13, "divergence-floor-documentation", _crit_divergence_docs),
]


def run_acceptance(numbers=None, stream=None) -> list[CriterionResult]:
    """Run the acceptance criteria (all, or the given numbers) and return
    their results; prints one PASS/FAIL line per criterion to ``stream``."""
    results = []
    for number, name, fn in ACCEPTANCE_CRITERIA:
        if numbers is not None and number not in numbers:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        result = CriterionResult(number, name, passed, detail, time.perf_counter() - t0)
        results.append(result)
        if stream is not None:
            print(result.line(), file=stream, flush=True)
    return results


def acceptance_passed(results) -> bool:
    return all(r.passed for r in results)
