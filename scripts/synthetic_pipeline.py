#!/usr/bin/env python3
"""End-to-end demo on synthetic data, driving the command-line interface.

Simulates a small field of scattered profiles, estimates and subtracts
a mean field, maps covariance parameters and predictions on a small
grid, cross-validates with a reference baseline, recomputes the
calibration from the stored records, and renders correlation lag maps
from the fitted parameter grids.  Every artifact lands under --out in
one subdirectory per stage.

Example:
    python3 scripts/synthetic_pipeline.py --out /tmp/demo --seed 7
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from mwgp.cli import main as mwgp_main


def run(*args) -> None:
    argv = [str(a) for a in args]
    print(f"$ mwgp {' '.join(argv)}")
    code = mwgp_main(argv)
    if code != 0:
        sys.exit(f"stage failed with exit code {code}")


def show_csv(path: Path, limit: int = 8) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    print(f"\n{path.name} ({len(rows) - 1} rows):")
    for row in rows[: limit + 1]:
        print("   " + ", ".join(row))
    if len(rows) > limit + 1:
        print("   ...")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("pipeline_out"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--variant", type=int, default=5,
                    help="model variant for the map stage (1-6)")
    ap.add_argument("--m", type=int, default=90,
                    help="simulated observations per year")
    ap.add_argument("--years", type=int, default=2)
    args = ap.parse_args()

    out = args.out
    grid = ["--set", "lat_min=-1", "--set", "lat_max=1",
            "--set", "lon_min=-1", "--set", "lon_max=1"]

    run("simulate", "--out", out / "sim", "--seed", args.seed,
        "--set", f"sim_m={args.m}", "--set", f"sim_years={args.years}",
        "--set", "sim_lat_min=-4", "--set", "sim_lat_max=4",
        "--set", "sim_lon_min=-4", "--set", "sim_lon_max=4",
        "--set", "sim_day_min=40", "--set", "sim_day_max=51")
    profiles = out / "sim" / "profiles.csv"

    run("mean", "--profiles", profiles, "--out", out / "mean",
        "--set", "lat_min=-2", "--set", "lat_max=2",
        "--set", "lon_min=-2", "--set", "lon_max=2",
        "--set", f"n_neighbors={min(60, args.m * args.years)}",
        "--set", "n_harmonics=1")
    mean_field = out / "mean" / "mean_field.csv"

    run("map", "--profiles", profiles, "--mean", mean_field,
        "--variant", args.variant, "--out", out / "map", *grid)

    run("cv", "--profiles", profiles, "--mean", mean_field,
        "--variant", 2, "--out", out / "cv", *grid,
        "--set", "baseline_variant=1", "--set", "radius_steps=10")

    run("calibrate", "--records", out / "cv" / "cv_records.csv",
        "--out", out / "cal")

    run("lagmaps", "--params-dir", out / "map", "--out", out / "lag")

    manifest = json.loads((out / "map" / "manifest.json").read_text())
    print("\nmap cell statuses:", manifest["status_counts"])
    show_csv(out / "map" / "prediction.csv", limit=4)
    show_csv(out / "cv" / "metrics.csv")
    show_csv(out / "cv" / "coverage.csv")
    show_csv(out / "lag" / "lag_zonal.csv", limit=4)
    print(f"\nall outputs under {out}/")


if __name__ == "__main__":
    main()
