"""Command-line front end.

Subcommands: ``run`` (episodes of one sweep cell, long-format SE CSV), ``sweep``
(full campaign, aggregate CSV), ``validate`` (print the resolved configuration),
``selftest`` (built-in oracle suite). Exit codes: 0 success, 2 configuration
error (the message names the offending field), 3 runtime numerical error with
episode/step context.
"""

from __future__ import annotations

import argparse
import sys

from . import config as config_mod
from . import simulate
from .clustering import events_to_csv
from .errors import ConfigurationError, SimulationError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key-value config file (default: $CFMIMO_CONFIG or built-ins)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--seed", type=int, help="campaign seed")
    parser.add_argument("--setups", type=int, help="number of independent setups")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cfmimo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the episodes of a single sweep cell")
    _add_common(run)
    run.add_argument("--strategy", help="fixed | opportunistic | ubiquitous | cellular")
    run.add_argument("--threshold-db", type=float, help="handover hysteresis margin")
    run.add_argument("--speed-kmh", type=float, help="UE speed")
    run.add_argument("--out", default="episode_se.csv", help="per-step per-UE SE CSV path")
    run.add_argument("--events-out", help="optional handover event log CSV path")
    run.add_argument("--ledger-out", help="optional signaling ledger CSV path")

    sweep = sub.add_parser("sweep", help="run a campaign over strategies x thresholds x speeds")
    _add_common(sweep)
    sweep.add_argument("--strategy", help="comma list of strategies")
    sweep.add_argument("--threshold-db", help="comma list of hysteresis margins in dB")
    sweep.add_argument("--speeds", help="comma list of UE speeds in km/h")
    sweep.add_argument("--parallelism", type=int, default=1, help="episode worker processes")
    sweep.add_argument("--out", default="sweep.csv", help="aggregate CSV path")

    validate = sub.add_parser("validate", help="print the resolved configuration and exit")
    _add_common(validate)

    selftest = sub.add_parser("selftest", help="run the built-in oracle suite")
    selftest.add_argument("--quick", action="store_true", help="skip the slower consistency checks")
    return parser


def _load_config(args) -> config_mod.SimConfig:
    if getattr(args, "config", None):
        cfg = config_mod.from_file(args.config)
    else:
        cfg = config_mod.default_config()
    for item in getattr(args, "set", []):
        if "=" not in item:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        cfg = config_mod.apply_setting(cfg, key.strip(), value.strip())
    if getattr(args, "seed", None) is not None:
        cfg = config_mod.apply_setting(cfg, "seed", str(args.seed))
    if getattr(args, "setups", None) is not None:
        cfg = config_mod.apply_setting(cfg, "n_setups", str(args.setups))
    return cfg


def _parse_list(text, parser=float):
    return [parser(v) for v in str(text).split(",") if str(v).strip() != ""]


def _with_setup_column(tables) -> str:
    """Concatenate per-setup CSV tables sharing one header, prefixing a setup column."""
    lines = []
    for setup, table in enumerate(tables):
        header, *rows = table.splitlines()
        if setup == 0:
            lines.append("setup," + header)
        lines += [f"{setup},{row}" for row in rows]
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    cfg = _load_config(args).resolve()
    results = [
        simulate.run_episode(
            cfg, setup, strategy=args.strategy,
            threshold_db=args.threshold_db, speed_kmh=args.speed_kmh,
        )
        for setup in range(cfg.n_setups)
    ]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(simulate.episodes_to_csv(results))
    if args.events_out:
        with open(args.events_out, "w", encoding="utf-8") as fh:
            fh.write(_with_setup_column(events_to_csv(r.events) for r in results))
    if args.ledger_out:
        with open(args.ledger_out, "w", encoding="utf-8") as fh:
            fh.write(_with_setup_column(r.ledger.to_csv() for r in results))
    mean_se = sum(r.mean_se for r in results) / len(results)
    mean_ho = sum(r.mean_handover_frequency for r in results) / len(results)
    print(f"{len(results)} episode(s): mean SE {mean_se:.4f} bit/s/Hz, "
          f"handover frequency {mean_ho:.4f} 1/s, wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args).resolve()
    strategies = _parse_list(args.strategy, str) if args.strategy else None
    thresholds = _parse_list(args.threshold_db) if args.threshold_db else None
    speeds = _parse_list(args.speeds) if args.speeds else None
    result = simulate.run_campaign(
        cfg, strategies=strategies, thresholds=thresholds, speeds=speeds,
        parallelism=args.parallelism,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(result.to_csv())
    print(f"wrote {len(result.rows)} aggregate rows to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args).resolve()
    sys.stdout.write(config_mod.to_text(cfg))
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    failures = run_selftest(quick=args.quick)
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_selftest(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
