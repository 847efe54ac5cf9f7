"""Fit word-translation matrices from noisy aligned vectors.

Two toy vocabularies share a hidden orthogonal alignment.  We fit the
meaning matrix from aligned pairs by least squares, with and without
the orthogonal projection, and measure (a) recovery of the hidden map
and (b) the naturality residual on a noun-verb sentence reduction.

Usage: python3 scripts/translation_fitting.py [noise ...]
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from discotrans.grammar import Reduction, parse_type
from discotrans.semantics import LanguageModel
from discotrans.translation import Translation, check_naturality, fit_alpha

DIM = 6
PAIRS = 80
SEED = 71


def hidden_alignment(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((DIM, DIM)))
    return q * np.sign(np.diag(r))


def residual_for(matrix: np.ndarray) -> float:
    source = LanguageModel("src", {"n": DIM, "s": 1})
    target = LanguageModel("tgt", {"n": DIM, "s": 1})
    t = Translation(
        source,
        target,
        {"n": parse_type("n"), "s": parse_type("s")},
        {"n": matrix, "s": np.eye(1)},
    )
    sentence = parse_type("n n^r s")
    r = Reduction(sentence, [(0, 1)])
    return check_naturality(t, r).max_residual


def main() -> int:
    noise_levels = [float(x) for x in sys.argv[1:]] or [0.0, 0.01, 0.05, 0.2]
    rng = np.random.default_rng(SEED)
    truth = hidden_alignment(rng)
    xs = rng.standard_normal((PAIRS, DIM))

    print(f"hidden orthogonal alignment in dimension {DIM}, {PAIRS} aligned pairs")
    print(f"{'noise':>8} {'raw err':>10} {'proj err':>10} {'raw resid':>11} {'proj resid':>11}")
    for noise in noise_levels:
        pairs = [(x, truth @ x + noise * rng.standard_normal(DIM)) for x in xs]
        raw = fit_alpha(pairs)
        projected = fit_alpha(pairs, unitary=True)
        raw_err = np.linalg.norm(raw - truth)
        proj_err = np.linalg.norm(projected - truth)
        print(
            f"{noise:8.3f} {raw_err:10.2e} {proj_err:10.2e} "
            f"{residual_for(raw):11.2e} {residual_for(projected):11.2e}"
        )
    print(
        "\nthe projected fit stays on the orthogonal manifold, so its "
        "naturality residual stays at rounding level even under noise."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
