"""Command-line entry point.

    rydeit <subcommand> [--config FILE] [--out DIR] [overrides]

Each subcommand takes only the override flags its runner reads:

    spectrum                   --d --n-atoms --omega-c --omega-c-mhz --gamma-r-mhz
    propagate, replica         spectrum's, --shape --blockade --d-b --duration-ns
    window-scan                spectrum's, --blockade --d-b --n-in --duration-ns
    storage                    propagate's, --n-in --t-off-ns --t-store-ns
    emulate-hbt                propagate's, --n-in --n-trials --seed
    scan-turnon, scan-turnoff  --gamma-r-mhz --threads
    dlcz                       --p --eta-d --eta-r

Any other flag exits 2; a config file may set every input.
Each override flag stores under its configio override key, and the flags
win over the config file, which wins over the scenario's preset (``replica``
presets the measured device), which wins over the defaults. A flag in one
spelling of an input (``--omega-c-mhz``) displaces the file's other spelling
(``omega_c``). An unknown section or key in the file exits 3.

Exit codes: 0 success; 2 usage error (argparse); 3 malformed, inconsistent or
out-of-range configuration; 4 unwritable output location; 5 runtime/extraction
failure.
No output files are written unless the run succeeds.
"""

from __future__ import annotations

import argparse
import os
import sys

from .configio import default_config, load_config
from .model import ConfigurationError
from .dynamics import DynamicsError
from .observables import ExtractionError, UndefinedResultError, _fmt
from .counting import EstimateError
from .scenarios import RUNNERS

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_OUTPUT = 4
EXIT_RUNTIME = 5


#: every override flag's argparse options; a flag's ``dest`` is its configio
#: override key, and ``--p`` sets the one-point ``p_list``
_FLAGS = {
    "--d": dict(type=float, dest="d_target",
                help="target optical depth (chooses the atom number)"),
    "--omega-c": dict(type=float, help="control amplitude (Gamma units)"),
    "--shape": dict(choices=["square", "triangular_neg", "triangular_pos", "gaussian"]),
    "--blockade": dict(dest="mode", choices=["fully_blockaded", "power_law", "none"]),
    "--d-b": dict(type=float, help="optical depth per blockade radius (power_law)"),
    "--n-in": dict(type=float, help="mean input photons"),
    "--seed": dict(type=int, help="Monte Carlo seed"),
    "--threads": dict(type=int, help="scan worker processes"),
    "--p": dict(type=lambda text: (float(text),), dest="p_list", help="pair probability"),
    **{flag: dict(type=int) for flag in ("--n-atoms", "--n-trials")},
    **{flag: dict(type=float) for flag in ("--omega-c-mhz", "--gamma-r-mhz", "--duration-ns",
                                           "--t-off-ns", "--t-store-ns", "--eta-d", "--eta-r")},
}
_DEVICE = ("--d", "--n-atoms", "--omega-c", "--omega-c-mhz", "--gamma-r-mhz")
_PULSE = _DEVICE + ("--shape", "--blockade", "--d-b", "--duration-ns")
_SCAN = ("--gamma-r-mhz", "--threads")

#: subcommand -> (scenario kind, the override flags its runner reads)
_SUBCOMMANDS = {
    "spectrum": ("spectrum", _DEVICE),
    "propagate": ("propagate", _PULSE),
    "scan-turnon": ("turnon_scan", _SCAN),
    "scan-turnoff": ("turnoff_scan", _SCAN),
    "replica": ("experiment_replica", _PULSE),
    "window-scan": ("window_scan",
                    _DEVICE + ("--blockade", "--d-b", "--n-in", "--duration-ns")),
    "storage": ("storage", _PULSE + ("--n-in", "--t-off-ns", "--t-store-ns")),
    "dlcz": ("dlcz", ("--p", "--eta-d", "--eta-r")),
    "emulate-hbt": ("emulate_hbt", _PULSE + ("--n-in", "--n-trials", "--seed")),
}


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="rydeit",
                                  description="Rydberg-EIT weak-pulse spin-model simulator")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", help="INI config or manifest to load")
        p.add_argument("--out", default=None, help="output directory (default: results/<name>)")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return top


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    kind = _SUBCOMMANDS[ns.command][0]
    ov = {k: v for k, v in vars(ns).items()
          if v is not None and k not in ("command", "config", "out")}
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
        print(f"{key} = {_fmt(value)}")
    print(f"wrote {len(paths)} files to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
