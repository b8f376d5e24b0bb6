#!/usr/bin/env python3
"""Dump centered frequency-response maps for the built-in blur kernels and
the ideal low-pass band for a given cutoff, as NPY plus a 1D CSV profile.

The 1D profile is the map row through the center, from DC outward, which
is where blur kernels and the ideal cutoff are easiest to compare.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from alias_scope.antialias import binomial_kernel
from alias_scope.arrays import write_npy
from alias_scope.spectral import filter_frequency_response, signed_frequencies


def ideal_band_map(cutoff: float, grid: int) -> np.ndarray:
    freqs = signed_frequencies(grid)
    keep = (np.abs(freqs)[:, None] <= cutoff) & (np.abs(freqs)[None, :] <= cutoff)
    return np.fft.fftshift(keep.astype(np.float64), axes=(-2, -1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=64)
    parser.add_argument("--cutoff", type=float, default=np.sqrt(2) / 4)
    parser.add_argument("--out-dir", default="response_maps")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    center = args.grid // 2

    maps = {}
    for size in (3, 5, 7):
        maps[f"binomial{size}"] = filter_frequency_response(
            binomial_kernel(size), args.grid
        )
    maps["ideal_lowpass"] = ideal_band_map(args.cutoff, args.grid)

    profile_rows = []
    freqs = signed_frequencies(args.grid)
    order = np.argsort(np.abs(np.roll(freqs, center)))  # DC outward
    for name, response in maps.items():
        write_npy(out_dir / f"{name}.npy", response)
        print(f"{name:14s} dc={response[center, center]:.6f} "
              f"min={response.min():.6f} max={response.max():.6f}")
    with open(out_dir / "profiles.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["abs_freq"] + list(maps))
        row_freqs = np.abs(np.roll(freqs, center))
        for idx in order:
            writer.writerow(
                [f"{row_freqs[idx]:.6f}"]
                + [f"{maps[name][center, idx]:.10g}" for name in maps]
            )
    print(f"wrote maps and profiles.csv to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
