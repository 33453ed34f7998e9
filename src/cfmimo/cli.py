"""Command-line front end.

Subcommands: ``run`` (episodes of one sweep cell, long-format SE CSV), ``sweep``
(full campaign, aggregate CSV) and ``validate`` (print the resolved
configuration). Exit codes: 0 success, 2 configuration error (the message names
the offending field, flag or output path), 3 runtime error (a numerical
failure, or a step that runs out of memory) with episode/step context.
"""

from __future__ import annotations

import argparse
import os
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
    sweep.add_argument(
        "--parallelism", type=int, default=1,
        help="worker processes, at most one per core; a worker runs the cells of one (setup, speed) "
        "in lockstep on shared draws; results do not depend on it",
    )
    sweep.add_argument("--out", default="sweep.csv", help="aggregate CSV path")

    validate = sub.add_parser("validate", help="print the resolved configuration and exit")
    _add_common(validate)
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


def _check_outputs(args, *flags) -> None:
    """Reject an output path that cannot be written, before any episode runs."""
    for flag in flags:
        path = getattr(args, flag[2:].replace("-", "_"))
        if path is None:
            continue
        directory = os.path.dirname(path) or "."
        if os.path.isdir(path) or not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise ConfigurationError(f"{flag} {path!r} is not a file in a writable directory")


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
    _check_outputs(args, "--out", "--events-out", "--ledger-out")
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
    invalid = sum(r.invalid_samples for r in results)
    samples = sum(r.se.size for r in results)
    print(f"{len(results)} episode(s): mean SE {mean_se:.4f} bit/s/Hz "
          f"({invalid} of {samples} SE samples invalid, left out of the mean), "
          f"handover frequency {mean_ho:.4f} 1/s, wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args).resolve()
    strategies = config_mod.parse_list(args.strategy, "--strategy", str) if args.strategy else None
    thresholds = config_mod.parse_list(args.threshold_db, "--threshold-db") if args.threshold_db else None
    speeds = config_mod.parse_list(args.speeds, "--speeds") if args.speeds else None
    _check_outputs(args, "--out")
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_validate(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
