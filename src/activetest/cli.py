"""Command line interface: seeded benchmark runs, star instance
generation, and the acceptance suite.

One trial subcommand per algorithm in the harness registry, with its flags,
--constants keys and default eps taken from the algorithm's declaration.

Exit codes: 0 on success, 2 on configuration errors (including argparse
usage errors and a pool too small for the run), 3 when run-suite finds a
failing criterion.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bandit import (
    build_star_instance_hard,
    build_star_instance_soft,
    good_arm_means,
    star_instance_to_json,
    star_metadata,
)
from .core import InsufficientPoolError
from .harness import (
    _REGISTRY,
    TrialConfig,
    TrialReport,
    _typed,
    acceptance_passed,
    check_params,
    run_acceptance,
    run_trials,
)


def _parse_constants(text: str) -> dict[str, float]:
    """``key=value,key=value`` flag payload; every value must be numeric."""
    out: dict[str, float] = {}
    if not text:
        return out
    for part in text.split(","):
        key, sep, val = part.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"invalid constant: {part!r}")
        try:
            out[key] = float(val)
        except ValueError:
            raise ValueError(f"invalid constant: {part!r}") from None
    return out


# registry parameters with these names are trial flags; every other one is
# a --constants key
_FLAGS = ("d", "k", "p")

# gen-star-soft's --constants keys, typed as the registry's are
_SOFT_STAR_CONSTANTS = {
    "c1": (float, 1.0), "c2": (float, 1.0), "c3": (float, 0.05), "coin": (float, 0.5),
}


def _trial_config(args: argparse.Namespace) -> TrialConfig:
    declared = _REGISTRY[args.command].params
    consts = _parse_constants(args.constants)
    for key in consts:
        if key not in declared or key in _FLAGS:
            raise ValueError(f"unknown constant: {key}")
    params = check_params(args.command, consts)
    params.update({key: getattr(args, key) for key in _FLAGS if key in declared})
    return TrialConfig(
        args.command,
        eps=args.eps,
        trials=args.trials,
        seed=args.seed,
        params=params,
    )


def _print_report(rep: TrialReport) -> None:
    agg = rep.aggregate()
    cfg = rep.config
    print(
        f"{cfg.algorithm} eps={cfg.eps} trials={agg['trials']} seed={cfg.seed} "
        f"tolerance={rep.tolerance}"
    )
    print(
        f"success_rate={agg['success_rate']:.3f} ({agg['successes']}/{agg['trials']}, "
        f"wilson95 [{agg['ci_low']:.3f}, {agg['ci_high']:.3f}]) "
        f"mean_abs_error={agg['mean_abs_error']:.4f}"
    )
    print(f"queries={agg['total_queries']} unlabeled={agg['total_unlabeled']}")


def _run_trial_command(args: argparse.Namespace) -> int:
    config = _trial_config(args)
    rep = run_trials(config)
    notes = _REGISTRY[args.command].notes
    if notes is not None:
        print("\n".join(notes(config)))
    _print_report(rep)
    if args.out is not None:
        rep.write(args.out)
        print(f"wrote {args.out}")
    return 0


def _run_gen_star(args: argparse.Namespace) -> int:
    consts = _parse_constants(args.constants)
    if args.command == "gen-star-soft":
        declared = _SOFT_STAR_CONSTANTS
    else:
        # the instance star-hard scores: its declared defaults, by name
        star = _REGISTRY["star-hard"].params
        declared = {key: star[key] for key in ("c1", "c2", "gamma", "good_frac")}
    for key in consts:
        if key not in declared:
            raise ValueError(f"unknown constant: {key}")
    params = {
        key: _typed(key, consts.get(key, default), typ, default)
        for key, (typ, default) in declared.items()
    }
    if args.out is None:
        raise ValueError("missing --out")
    out = Path(args.out)
    if out.suffix != ".json":
        raise ValueError("unknown output format")
    if args.command == "gen-star-soft":
        constants = (params["c1"], params["c2"], params["c3"])
        si = build_star_instance_soft(
            args.p, args.eps, params["coin"], constants=constants, seed=args.seed
        )
    else:
        means = good_arm_means(args.d, params["gamma"], params["good_frac"])
        si = build_star_instance_hard(
            args.d, means, args.k, args.eps, constants=(params["c1"], params["c2"]), seed=args.seed
        )
    out.write_text(star_instance_to_json(si))
    sidecar = out.with_suffix(".meta.json")
    sidecar.write_text(json.dumps(star_metadata(si), indent=2, sort_keys=True) + "\n")
    print(
        f"wrote {out} and {sidecar} "
        f"({si.n} star(s), {si.instance.space.n} points, pool {si.N})"
    )
    return 0


def _run_suite(args: argparse.Namespace) -> int:
    numbers = None
    if args.criteria:
        try:
            numbers = {int(x) for x in args.criteria.split(",")}
        except ValueError:
            raise ValueError(f"invalid criteria list: {args.criteria!r}") from None
    results = run_acceptance(numbers, stream=sys.stdout)
    if args.out is not None:
        payload = [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": r.seconds,
            }
            for r in results
        ]
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if results and acceptance_passed(results) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="activetest",
        description=(
            "Seeded Monte Carlo benchmarks for label-frugal distance "
            "approximation, k-NN loss estimation, and arm counting."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, eps: float, trials: bool = True):
        sp.add_argument("--eps", type=float, default=eps, help="target accuracy")
        if trials:
            sp.add_argument("--trials", type=int, default=1)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", type=Path, default=None, help="report path (.csv or .json)")
        sp.add_argument(
            "--constants",
            type=str,
            default="",
            help="key=value[,key=value] instance and constant overrides",
        )

    for name, entry in _REGISTRY.items():
        sp = sub.add_parser(name, help=entry.help)
        for key in _FLAGS:
            if key in entry.params:
                typ, default = entry.params[key]
                sp.add_argument(f"--{key}", type=typ, default=default)
        common(sp, eps=entry.eps)

    sp = sub.add_parser("gen-star-soft", help="generate a soft star instance (JSON)")
    sp.add_argument("--p", type=int, default=1)
    common(sp, eps=0.3, trials=False)

    star = _REGISTRY["star-hard"]
    sp = sub.add_parser(
        "gen-star-hard", help="generate a hard star instance (JSON); defaults are star-hard's"
    )
    sp.add_argument("--d", type=int, default=star.params["n"][1], help="number of arms/stars")
    sp.add_argument("--k", type=int, default=star.params["k"][1])
    common(sp, eps=star.eps, trials=False)

    sp = sub.add_parser("run-suite", help="run the acceptance criteria")
    sp.add_argument("--criteria", type=str, default="", help="comma-separated subset, e.g. 3,4,13")
    sp.add_argument("--out", type=Path, default=None, help="JSON summary path")

    return parser


_HANDLERS = {
    "gen-star-soft": _run_gen_star,
    "gen-star-hard": _run_gen_star,
    "run-suite": _run_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS.get(args.command, _run_trial_command)(args)
    except (ValueError, InsufficientPoolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
