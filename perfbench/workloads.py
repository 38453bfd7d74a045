"""Seeded job decks for the three benchmark workloads.

A deck is a list of CLI invocations. Each workload is a fixed list of
cells; a cell fixes every parameter that decides how much work a job
does, and the seed draws the rest. The work of a job can jump as a
parameter crosses a threshold of the adaptive quadrature or of the
angular doubling, so a certify job's weight parameters move by at most
0.005 or 1%, a refute job keeps its cell's radius and weight shape, and a
verify job keeps its cell's roots. The seed draws what leaves the work
unchanged: the weight's level, the refute exponent within +-0.0005, the
leading coefficient of a verify pair and its domination radius. Every
seed therefore gets a different deck with the same work, which keeps
the run-to-run spread of the end-to-end metrics small.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("certify", "refute", "verify")

#: the refute job whose angular work ROADMAP pins (60,840,960 nodes, n <= 65536)
PINNED_REFUTE = {"p": 0.5, "c": 0.9, "weight": {"kind": "constant", "level": 1.0}}


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus the parameters the oracles need."""

    job_id: str
    argv: tuple[str, ...]
    params: dict


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _near(rng: np.random.Generator, centre: float, half_width: float) -> float:
    return centre + float(rng.uniform(-half_width, half_width))


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


# piecewise-linear table shapes: knots, values
TABLE_DIP = ((0.0, 0.3, 0.7), (1.0, 0.4, 1.6))
TABLE_ZERO = ((0.0, 0.35, 0.6), (0.0, 1.2, 0.6))  # w(0) = 0: zero liminf at the origin
TABLE_FIVE = ((0.0, 0.15, 0.35, 0.55, 0.75), (0.8, 1.6, 0.5, 1.2, 1.9))


def _weight(rng: np.random.Generator, cell, band: float = 1.0) -> dict:
    """A weight near the cell's; ``band = 0`` keeps its shape and draws
    only an overall level."""
    kind = cell[0]
    if kind == "constant":
        return {"kind": "constant", "level": cell[1] * _log_uniform(rng, 0.99, 1.01)}
    if kind == "standard":
        return {"kind": "standard", "alpha": _near(rng, cell[1], 0.005 * band)}
    if kind == "step":
        return {"kind": "step", "R": _near(rng, cell[1], 0.002 * band)}
    if kind == "table":
        knots, values = cell[1]
        level = _log_uniform(rng, 0.99, 1.01)
        return {
            "kind": "table",
            "r": [0.0] + [_near(rng, r, 0.002 * band) for r in knots[1:]],
            "w": [v * level * _log_uniform(rng, 1 - 0.01 * band, 1 + 0.01 * band) for v in values],
        }
    raise ValueError(f"unknown weight cell {cell!r}")


CONSTANT = ("constant", 1.0)

# Standard weights with alpha < 0 take the substituted-variable path, whose
# cost at the seed commit is erratic in alpha: 0.8 s at -0.5, 13 s at
# -0.64, 7 s at -0.81, 2.2 s at -0.95, 10-21 s on -0.3..-0.02 (138k
# panels at -0.2). A drawn alpha would let one job decide a run's
# throughput, so that path runs as two pinned jobs instead.
CERTIFY_PINNED = ({"kind": "standard", "alpha": -0.5}, {"kind": "standard", "alpha": -0.95})
CERTIFY_CELLS = (
    ("constant", 0.6),
    CONSTANT,
    ("constant", 1.6),
    ("standard", 0.25),
    ("standard", 1.0),
    ("standard", 2.5),
    ("standard", 6.0),
    ("step", 0.15),
    ("step", 0.45),
    ("step", 0.8),
    ("table", TABLE_DIP),
    ("table", TABLE_ZERO),
    ("table", TABLE_FIVE),
)

# (p, c, weight cell); p +- 0.0005 stays inside one family exponent
# n = choose_n(p) (n changes at p = 1/2, 3/5, 2/3, 5/7, 3/4), and n sets
# the degree of every norm a job computes. The angular work of a job is
# erratic in c (where the doubling stops depends on every scanned
# epsilon = c 2^-j): at p = 0.45 it takes 42, 97 and 86 million nodes at
# c = 0.5, 0.5001 and 0.5002, and the shape of a weight moves it as
# much. So c and the weight's shape are the cell's own; p within +-0.0005
# and the overall level of the weight leave the work unchanged.
REFUTE_CELLS = (
    (0.45, 0.50, CONSTANT),
    (0.55, 0.70, CONSTANT),
    (0.57, 0.80, ("standard", 1.0)),
    (0.55, 0.75, ("table", TABLE_ZERO)),
    (0.53, 0.65, ("step", 0.3)),
    (0.62, 0.60, CONSTANT),
    (0.64, 0.80, CONSTANT),
    (0.62, 0.85, ("step", 0.45)),
    (0.68, 0.60, CONSTANT),
    (0.69, 0.85, CONSTANT),
    (0.69, 0.90, ("table", TABLE_DIP)),
    (0.73, 0.60, CONSTANT),
    (0.73, 0.90, CONSTANT),
    (0.735, 0.80, ("table", TABLE_ZERO)),
    (0.74, 0.70, ("step", 0.2)),
)

VERIFY_P = (1.0, 1.5, 2.0, 3.0, 4.0)

# (moduli of the roots of g, factor h); h is ("monomial", k) or
# ("affine", |a|) for h = (z + a)/2. Roots near the unit circle make the
# p = 1 circle means slow, and how slow depends on where the roots sit,
# relative to each other and to the angular grid, so a cell fixes both:
# root k has argument 2 pi k / golden ratio + k' radians in copy k' (and a,
# for the affine h, the argument after the last root's). A shift of a
# root by 0.002 in modulus or 0.01 rad, or a common rotation, moves the
# angular work of a deck by up to 15%; the leading coefficient and the
# domination radius leave it unchanged, and the seed draws those.
VERIFY_CELLS = (
    ((0.45, 1.6), ("monomial", 1)),
    ((0.35, 0.75, 1.4, 2.0), ("affine", 0.5)),
    ((0.25, 0.65, 0.93, 1.25, 1.75, 2.5), ("monomial", 2)),
    ((0.35, 0.6, 0.8, 1.12, 1.35, 1.75, 2.5, 3.5), ("affine", 0.85)),
)
_GOLDEN = (1 + 5**0.5) / 2


def _poly_spec(coeffs) -> dict:
    return {"coeffs": [[float(c.real), float(c.imag)] for c in coeffs]}


def _verify_pair(rng: np.random.Generator, moduli, h_cell, rotation: float):
    """g from its roots and a complex Gaussian leading coefficient;
    f = h g with |h| <= 1 on the disk."""

    def point(modulus, k):
        return modulus * np.exp(1j * (rotation + 2 * np.pi * k / _GOLDEN))

    roots = [point(m, k) for k, m in enumerate(moduli)]
    lead = complex(rng.standard_normal(), rng.standard_normal())
    g = lead * np.poly(roots)[::-1]  # ascending coefficients
    kind, arg = h_cell
    if kind == "monomial":
        h = np.zeros(arg + 1, dtype=complex)
        h[arg] = 1.0
    else:
        a = -point(arg, len(moduli))  # h vanishes at -a
        h = np.array([a / 2.0, 0.5])
    return np.convolve(h, g), g


def make_deck(workload: str, seed: int, copies: int) -> list[Job]:
    """The deck for one workload: ``copies`` seeded jobs from every cell."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs: list[Job] = []

    def add(argv, params):
        jobs.append(Job(f"{workload}-{len(jobs):02d}", tuple(argv), params))

    if workload == "certify":
        for w in [*CERTIFY_PINNED, *(_weight(rng, cell) for cell in CERTIFY_CELLS * copies)]:
            add(
                ["sweep", "--p", "1,2,4", "--output", "json", "--weight", _dumps(w)],
                {"ps": [1.0, 2.0, 4.0], "weight": w, "tol": 1e-9},
            )
    elif workload == "refute":
        pinned = PINNED_REFUTE
        add(
            ["refute", "--p", repr(pinned["p"]), "--c", repr(pinned["c"]),
             "--weight", _dumps(pinned["weight"])],
            dict(pinned, tol=1e-9),
        )
        for _ in range(copies):
            for p0, c0, cell in REFUTE_CELLS:
                p, c, w = _near(rng, p0, 0.0005), c0, _weight(rng, cell, band=0.0)
                add(
                    ["refute", "--p", repr(p), "--c", repr(c), "--weight", _dumps(w)],
                    {"p": p, "c": c, "weight": w, "tol": 1e-9},
                )
    elif workload == "verify":
        w = {"kind": "constant", "level": 1.0}
        for copy in range(copies):
            for moduli, h_cell in VERIFY_CELLS:
                for p in VERIFY_P:
                    f, g = _verify_pair(rng, moduli, h_cell, rotation=float(copy))
                    c = float(rng.uniform(0.01, 0.24))
                    add(
                        ["verify", "--poly", _dumps(_poly_spec(f)), "--poly", _dumps(_poly_spec(g)),
                         "--p", repr(p), "--c", repr(c), "--weight", _dumps(w)],
                        {"p": p, "c": c, "weight": w, "f": f.tolist(), "g": g.tolist(), "tol": 1e-9},
                    )
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]
