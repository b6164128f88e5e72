"""Command-line entry point.

    rydeit <subcommand> [--config FILE] [--out DIR] [--seed N] [--threads N]
                        [per-subcommand overrides]

Subcommands: spectrum, propagate, scan-turnon, scan-turnoff, replica,
window-scan, storage, dlcz, emulate-hbt.

Each override flag stores under its configio override key, and the flags
win over the config file, which wins over the scenario's preset (``replica``
presets the measured device), which wins over the defaults. A flag in one
spelling of an input (``--omega-c-mhz``) displaces the file's other spelling
(``omega_c``). An unknown section or key in the file exits 3.

Exit codes: 0 success; 2 usage error (argparse); 3 malformed or inconsistent
configuration; 4 unwritable output location; 5 runtime/extraction failure.
No output files are written unless the run succeeds.
"""

from __future__ import annotations

import argparse
import os
import sys

from .configio import default_config, load_config
from .model import ConfigurationError
from .dynamics import DynamicsError
from .observables import ExtractionError, UndefinedResultError
from .counting import EstimateError
from .scenarios import RUNNERS

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_OUTPUT = 4
EXIT_RUNTIME = 5

_SUBCOMMANDS = {
    "spectrum": "spectrum",
    "propagate": "propagate",
    "scan-turnon": "turnon_scan",
    "scan-turnoff": "turnoff_scan",
    "replica": "experiment_replica",
    "window-scan": "window_scan",
    "storage": "storage",
    "dlcz": "dlcz",
    "emulate-hbt": "emulate_hbt",
}


def _one_p(text: str) -> tuple:
    """``--p`` sets the one-point ``p_list``."""
    return (float(text),)


def _parser() -> argparse.ArgumentParser:
    """Each override flag's ``dest`` is its configio override key."""
    top = argparse.ArgumentParser(prog="rydeit",
                                  description="Rydberg-EIT weak-pulse spin-model simulator")
    sub = top.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", help="INI config or manifest to load")
        p.add_argument("--out", default=None, help="output directory (default: results/<name>)")
        p.add_argument("--seed", type=int, default=None, help="Monte Carlo seed override")
        p.add_argument("--threads", type=int, default=None, help="scan worker processes")
        p.add_argument("--d", type=float, default=None, dest="d_target",
                       help="target optical depth (chooses the atom number)")
        p.add_argument("--n-atoms", type=int, default=None)
        p.add_argument("--omega-c", type=float, default=None, help="control amplitude (Gamma units)")
        p.add_argument("--omega-c-mhz", type=float, default=None)
        p.add_argument("--gamma-r-mhz", type=float, default=None)
        p.add_argument("--shape", default=None, choices=["square", "triangular_neg",
                                                         "triangular_pos", "gaussian"])
        p.add_argument("--blockade", default=None, dest="mode",
                       choices=["fully_blockaded", "power_law", "none"])
        p.add_argument("--d-b", type=float, default=None, dest="d_b",
                       help="optical depth per blockade radius (power_law)")
        p.add_argument("--n-in", type=float, default=None, help="mean input photons")
        p.add_argument("--duration-ns", type=float, default=None)
        p.add_argument("--n-trials", type=int, default=None)
        if name == "dlcz":
            p.add_argument("--p", type=_one_p, default=None, dest="p_list",
                           help="pair probability")
            p.add_argument("--eta-d", type=float, default=None)
            p.add_argument("--eta-r", type=float, default=None)
        if name == "storage":
            p.add_argument("--t-off-ns", type=float, default=None)
            p.add_argument("--t-store-ns", type=float, default=None)
    return top


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    kind = _SUBCOMMANDS[ns.command]
    ov = {k: v for k, v in vars(ns).items()
          if v is not None and k not in ("command", "config", "out")}
    if "t_off_ns" in ov:
        ov["schedule_kind"] = "storage"
    try:
        if ns.config is not None:
            cfg = load_config(ns.config, kind=kind, overrides=ov)
        else:
            cfg = default_config(kind, overrides=ov)
    except ConfigurationError as exc:
        print(f"rydeit: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = ns.out or os.path.join("results", ns.command)
    # ResultBundle.write makes what is missing: check the nearest existing ancestor
    parent = os.path.abspath(out_dir)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        print(f"rydeit: cannot write under {parent}", file=sys.stderr)
        return EXIT_OUTPUT

    try:
        bundle = RUNNERS[kind](cfg)
    except (ConfigurationError,) as exc:
        print(f"rydeit: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DynamicsError, ExtractionError, UndefinedResultError, EstimateError) as exc:
        print(f"rydeit: runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    try:
        paths = bundle.write(out_dir)
    except OSError as exc:
        print(f"rydeit: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT

    for key, value in sorted(bundle.scalars.items()):
        print(f"{key} = {value}")
    print(f"wrote {len(paths)} files to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
