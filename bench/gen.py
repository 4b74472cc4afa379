"""Seeded scored-sample CSV generator for the benchmark.

Negatives draw their score from Beta(2, 5) and positives from Beta(5, 2).
Exactly round(n * pos_share) samples are positive, at seeded positions.  The
same (seed, n, pos_share, decimals) always gives a byte-identical file.
"""

from __future__ import annotations

import random
from pathlib import Path


def scored_csv_text(seed: int, n: int, pos_share: float, decimals: int) -> str:
    """The `score,label` CSV text, scores rounded to `decimals` places."""
    rng = random.Random(seed)
    positives = round(n * pos_share)
    labels = [True] * positives + [False] * (n - positives)
    rng.shuffle(labels)
    draw = rng.betavariate
    fmt = f"{{:.{decimals}f}}".format
    lines = ["score,label\n"]
    for positive in labels:
        score = draw(5, 2) if positive else draw(2, 5)
        lines.append(fmt(score) + (",1\n" if positive else ",0\n"))
    return "".join(lines)


def write_scored_csv(path: Path, seed: int, n: int, pos_share: float, decimals: int) -> None:
    path.write_text(scored_csv_text(seed, n, pos_share, decimals))
