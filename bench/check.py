"""Output check: compare one run's output directory with the seed's values.

    python3 bench/check.py verify WORKLOAD OUT_DIR   # exit 1 on a mismatch
    python3 bench/check.py record WORKLOAD OUT_DIR   # store OUT_DIR as reference

The reference (``reference.json``) holds, per workload, the manifest's
``[results]`` scalars and the data-row count of every CSV file, and for the
HBT emulation the quadrature value and status of ``estimates.csv``.  Integer
scalars must match exactly; floats within ``tolerance.rel``; the scalars that
follow the Monte Carlo seed within ``tolerance.seeded_rel``; row counts
within ``tolerance.rows_rel`` (output grids move by a sample when a
breakpoint moves); the Monte Carlo estimate within ``tolerance.z_max``
standard errors of the quadrature.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
import sys

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
#: [results] scalars that depend on the Monte Carlo seed
SEEDED = ("n_events", "pg_stream_full")


def _data_rows(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_outputs(out_dir: str) -> dict:
    """[results] scalars, CSV row counts and (if present) estimate rows."""
    cp = configparser.ConfigParser()
    if not cp.read(os.path.join(out_dir, "manifest.ini")) or not cp.has_section("results"):
        raise FileNotFoundError(f"no manifest with [results] in {out_dir}")
    results = {}
    for key, text in cp.items("results"):
        value = float(text)
        results[key] = int(value) if text.lstrip("-").isdigit() else value
    tables = {f: _data_rows(os.path.join(out_dir, f))
              for f in sorted(os.listdir(out_dir)) if f.endswith(".csv")}
    out = {"results": results, "rows": {f: len(r) for f, r in tables.items()}}
    if "estimates.csv" in tables:
        out["estimates"] = tables["estimates.csv"]
    return out


def _close(got: float, want: float, rel: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= rel * abs(want)


def compare(got: dict, ref: dict, tol: dict) -> list:
    """Mismatches between the outputs ``got`` and the reference ``ref``."""
    problems = []
    for key, want in ref["results"].items():
        have = got["results"].get(key)
        if have is None:
            problems.append(f"[results] {key} missing")
        elif isinstance(want, int) and key not in SEEDED:
            if have != want:
                problems.append(f"[results] {key} = {have}, expected {want}")
        elif not _close(have, want, tol["seeded_rel" if key in SEEDED else "rel"]):
            problems.append(f"[results] {key} = {have!r}, expected {want!r}")
    for fname, want in ref["rows"].items():
        have = got["rows"].get(fname)
        if have is None or abs(have - want) > tol["rows_rel"] * want:
            problems.append(f"{fname}: {have} data rows, expected {want}")
    for want in ref.get("estimates", []):
        have = next((r for r in got.get("estimates", []) if r["window"] == want["window"]),
                    None)
        if have is None:
            problems.append(f"estimates.csv: window {want['window']} missing")
            continue
        if have["status"] != want["status"]:
            problems.append(f"estimates.csv: status {have['status']}")
        if not _close(float(have["g2_quadrature"]), want["g2_quadrature"], tol["rel"]):
            problems.append(f"estimates.csv: g2_quadrature = {have['g2_quadrature']}, "
                            f"expected {want['g2_quadrature']!r}")
        z = float(have["z_score"])
        if not abs(z) <= tol["z_max"]:
            problems.append(f"estimates.csv: |z_score| = {abs(z)} > {tol['z_max']}")
    return problems


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, out_dir: str, reference: dict) -> list:
    """Mismatches of ``out_dir`` against the stored reference of ``workload``."""
    try:
        got = read_outputs(out_dir)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    return compare(got, reference["workloads"][workload], reference["tolerance"])


def main(argv: list) -> int:
    if len(argv) != 3 or argv[0] not in ("verify", "record"):
        print(__doc__, file=sys.stderr)
        return 2
    action, workload, out_dir = argv
    reference = load_reference()
    if action == "verify":
        problems = check(workload, out_dir, reference)
        for p in problems:
            print(p)
        print("output check:", "FAIL" if problems else "pass")
        return 1 if problems else 0
    got = read_outputs(out_dir)
    entry = {"results": got["results"], "rows": got["rows"]}
    if "estimates" in got:
        entry["estimates"] = [{"window": r["window"], "status": r["status"],
                               "g2_quadrature": float(r["g2_quadrature"])}
                              for r in got["estimates"]]
    reference["workloads"][workload] = entry
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
