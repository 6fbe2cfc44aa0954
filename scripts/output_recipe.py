#!/usr/bin/env python3
"""Byte-identity recipe: run every CLI stage of one source tree and
digest its outputs.

Each stage runs as ``python -m mwgp.cli`` in a subprocess with
PYTHONPATH set to the given source tree and BLAS pinned to one thread:

* a seed-7 float-track ``simulate`` (25 floats x 6 profiles x 2 years,
  Student nugget at nu = 4) and a 60-station ``simulate``;
* ``mean`` on the float tracks (n_neighbors=100, 2 harmonics);
* on a 3x3 grid at 3 degrees, for variants 1-6: ``map`` at
  ``--threads 2`` with binary dumps, ``map --mean``, ``cv --scheme
  lofo`` against a variant-1 baseline, and ``calibrate`` of its
  records;
* ``cv --scheme looo --mean`` for variant 5 against a variant-1
  baseline, the two sharing one read of the mean field;
* ``lagmaps`` from the variant 2 (``lag_days=0``), 5 and 6 maps.

``<out>/digests.txt`` then holds one ``sha256  relpath`` line per
output file, manifests aside (they hold wall times), so two trees
write the same bytes when

    diff a/digests.txt b/digests.txt

is empty.

Example:
    python3 scripts/output_recipe.py --src src --out /tmp/recipe
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

GRID = ["--set", "lat_min=-3", "--set", "lat_max=3", "--set", "lat_step=3",
        "--set", "lon_min=-3", "--set", "lon_max=3", "--set", "lon_step=3"]
VARIANTS = range(1, 7)


def stage(env, out: Path, *args) -> None:
    argv = [sys.executable, "-m", "mwgp.cli", *map(str, args)]
    print(f"$ mwgp {' '.join(argv[3:])}", flush=True)
    done = subprocess.run(argv, env=env, cwd=out, capture_output=True,
                          text=True)
    if done.returncode != 0:
        sys.exit(f"stage failed with exit code {done.returncode}:\n"
                 f"{done.stderr}")


def run_recipe(env, out: Path) -> None:
    profiles = out / "sim" / "profiles.csv"
    mean_field = out / "mean" / "mean_field.csv"
    stage(env, out, "simulate", "--out", out / "sim", "--seed", 7,
          "--set", "sim_floats=25", "--set", "sim_profiles_per_float=6",
          "--set", "sim_years=2", "--set", "sim_nu=4")
    stage(env, out, "simulate", "--out", out / "sim_stations", "--seed", 7,
          "--set", "sim_m=60", "--set", "sim_years=2")
    stage(env, out, "mean", "--profiles", profiles, "--out", out / "mean",
          *GRID, "--set", "n_neighbors=100", "--set", "n_harmonics=2")
    for v in VARIANTS:
        common = ["--profiles", profiles, "--variant", v, *GRID]
        stage(env, out, "map", *common, "--out", out / f"map_v{v}",
              "--threads", 2, "--set", "write_binary=1")
        stage(env, out, "map", *common, "--mean", mean_field,
              "--out", out / f"map_mean_v{v}")
        stage(env, out, "cv", *common, "--out", out / f"cv_v{v}",
              "--scheme", "lofo", "--set", "baseline_variant=1")
        stage(env, out, "calibrate", "--records",
              out / f"cv_v{v}" / "cv_records.csv", "--out", out / f"cal_v{v}")
    stage(env, out, "cv", "--profiles", profiles, "--variant", 5, *GRID,
          "--mean", mean_field, "--out", out / "cv_mean_v5", "--scheme", "looo",
          "--set", "baseline_variant=1")
    for v, extra in ((2, ["--set", "lag_days=0"]), (5, []), (6, [])):
        stage(env, out, "lagmaps", "--params-dir", out / f"map_v{v}",
              "--out", out / f"lag_v{v}", *extra)


def write_digests(out: Path) -> int:
    lines = []
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json" \
                and path.name != "digests.txt":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(out).as_posix()}\n")
    (out / "digests.txt").write_text("".join(lines), encoding="utf-8")
    return len(lines)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, required=True,
                    help="the tree's src directory (the one holding mwgp/)")
    ap.add_argument("--out", type=Path, required=True,
                    help="output directory; must not exist yet")
    args = ap.parse_args()
    out = args.out.resolve()
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    start = time.perf_counter()
    run_recipe(env, out)
    n = write_digests(out)
    print(f"{n} files digested in {out / 'digests.txt'} "
          f"({time.perf_counter() - start:.0f} s)")


if __name__ == "__main__":
    main()
