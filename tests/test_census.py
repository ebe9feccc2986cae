"""Failure census: how each measure, and the conversion, fares over one seeded grid.

The grid runs d = 2, 3, 5, 8 on random bases, plain or nearly dependent at
eps = 1e-2, 1e-4, 1e-6: column 0 is replaced by column 1 plus eps times a
complex Gaussian and normalised, as ``near_dependent_batch`` builds them, so
sigma_min falls to about eps. On each basis it draws a Haar pure state, a
Ginibre state of rank 2 (d > 2) or of full rank, or a free mixture with
Dirichlet(1) weights, three draws of each, and calls ``l1_measure``,
``rel_entropy_measure`` and ``robustness`` on the state, ``rank_measure`` on a
pure one and ``is_free`` on a free one, and reads each report's certificate
(built on first read, so a certificate that fails counts against its
function). ``max_conversion_prob`` runs on three pairs of support-2 and of
support-3 states at d = 3 and 5, each on a fresh basis. An outcome is "ok",
"misjudged" (``is_free`` calls a free mixture not free), "dual below primal"
(a conversion whose certificate contradicts itself by weak duality) or the
class of the error raised.

A second grid, on its own seed, counts ``measure_selective`` on outcomes of
small probability, tilt eps = 1e-6 ... 1e-3 at d = 3..8, 50 draws per d: the
projective pair {1 - |v><v|, |v><v|} with v = psi_perp + eps psi normalised
on a Haar pure psi ("projective pure"), the same pair on a mixed rho of rank
2..d-1 with v tilted by eps out of the complement of rho's support
("projective mixed"), and a Ginibre operator that annihilates rho's support up
to eps, plus its completion ("general"). The small outcome's p is of order
eps^2, so its rounding, divided by p, is what the density-matrix rule sees.

``CENSUS`` pins the counts per (function, eps, kind): a change that moves any
count, or brings a new outcome, fails the test and re-pins the row on purpose.
The counts are the same on 1, 2 and 8 OpenBLAS threads. ``NOT_RUN`` names the
rows the grid skips.
"""

import collections

import numpy as np

from superpos.basis import new_free_basis
from superpos.kraus import Channel, measure_selective
from superpos.linalg import dagger
from superpos.measures import MeasureReport, l1_measure, rank_measure, rel_entropy_measure, robustness
from superpos.sampling import haar_state, haar_unitary, make_rng, random_basis, random_density, random_free_state
from superpos.sdp import SdpSolution
from superpos.states import DensityMatrix, PureState, is_free
from superpos.transform import max_conversion_prob

EPS = (None, 1e-2, 1e-4, 1e-6)
KINDS = ("pure", "rank 2", "full rank", "free")

SELECTIVE_EPS = (1e-6, 1e-5, 1e-4, 3e-4, 1e-3)
SELECTIVE_KINDS = ("projective pure", "projective mixed", "general")

# an eps = 1e-6 relative entropy that fails spends 1.3 to 1.7 s reaching _MAX_FW_ITER
NOT_RUN = tuple(("rel_entropy_measure", 1e-6, kind) for kind in KINDS)

# draws per kind: three at each d, rank 2 only at d > 2
DRAWS = {"pure": 12, "rank 2": 9, "full rank": 12, "free": 12}

CENSUS = {
    **{(name, eps, kind): {"ok": DRAWS[kind]} for name in ("l1_measure", "rel_entropy_measure", "robustness")
       for eps in EPS for kind in KINDS if (name, eps, kind) not in NOT_RUN},
    **{("rank_measure", eps, "pure"): {"ok": 12} for eps in EPS},
    **{("is_free", eps, "free"): {"ok": 12} for eps in EPS},
    **{("max_conversion_prob", eps, f"support {r}"): {"ok": 6} for eps in EPS for r in (2, 3)},
    # the rows with an outcome other than "ok"
    ("is_free", 1e-4, "free"): {"ok": 7, "misjudged": 5},
    ("is_free", 1e-6, "free"): {"misjudged": 12},
    ("robustness", 1e-4, "rank 2"): {"NoConvergence": 9},
    ("robustness", 1e-4, "full rank"): {"ok": 4, "NoConvergence": 8},
    ("robustness", 1e-6, "pure"): {"ok": 9, "NoConvergence": 3},
    ("robustness", 1e-6, "rank 2"): {"ok": 2, "NoConvergence": 7},
    ("robustness", 1e-6, "full rank"): {"ok": 5, "NoConvergence": 7},
    **{("measure_selective", eps, kind): {"ok": 300} for eps in SELECTIVE_EPS for kind in SELECTIVE_KINDS},
    # outcome states of p ~ eps^2 whose rounding, divided by p, reads as a negative eigenvalue
    ("measure_selective", 1e-6, "general"): {"ok": 254, "InvalidState": 46},
    ("measure_selective", 1e-5, "general"): {"ok": 84, "InvalidState": 216},
    ("measure_selective", 1e-4, "general"): {"ok": 222, "InvalidState": 78},
    ("measure_selective", 3e-4, "general"): {"ok": 298, "InvalidState": 2},
}


def _basis(d, eps, rng):
    v = random_basis(d, rng).vectors.copy()
    if eps is not None:
        v[:, 0] = v[:, 1] + eps * (rng.normal(size=d) + 1j * rng.normal(size=d))
        v[:, 0] /= np.linalg.norm(v[:, 0])
    return new_free_basis(list(v.T))


def _on_support(b, r, rng):
    """A pure state on r free states picked at random, with complex Gaussian coefficients."""
    coeffs = np.zeros(b.d, dtype=complex)
    coeffs[rng.permutation(b.d)[:r]] = rng.normal(size=r) + 1j * rng.normal(size=r)
    return PureState.normalized(b.vectors @ coeffs)


def _calls(rng):
    """(function, eps, kind, call) over the grid, in draw order."""
    for eps in EPS:
        for d in (2, 3, 5, 8):
            for kind in (k for k in KINDS if d > 2 or k != "rank 2"):   # rank 2 is full rank at d = 2
                for _ in range(3):
                    b = _basis(d, eps, rng)
                    psi = haar_state(d, rng) if kind == "pure" else None
                    rho = (psi.density() if psi is not None else random_free_state(b, rng) if kind == "free"
                           else random_density(d, rng, rank=2 if kind == "rank 2" else d))
                    yield "l1_measure", eps, kind, lambda: l1_measure(rho, b)
                    yield "rel_entropy_measure", eps, kind, lambda: rel_entropy_measure(rho, b)
                    yield "robustness", eps, kind, lambda: robustness(rho, b)
                    if psi is not None:
                        yield "rank_measure", eps, kind, lambda: rank_measure(psi, b)
                    if kind == "free":
                        yield "is_free", eps, kind, lambda: is_free(rho, b)
        for d in (3, 5):
            for r in (2, 3):
                for _ in range(3):
                    b = _basis(d, eps, rng)
                    psi, phi = _on_support(b, r, rng), _on_support(b, r, rng)
                    yield "max_conversion_prob", eps, f"support {r}", lambda: max_conversion_prob(psi, phi, b)


def _unit(v):
    return v / np.linalg.norm(v)


def _gauss(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _selective_calls(rng):
    """("measure_selective", eps, kind, call) over the small-outcome grid, in draw order."""
    for eps in SELECTIVE_EPS:
        for d in range(3, 9):
            for kind in SELECTIVE_KINDS:
                for _ in range(50):
                    if kind == "projective pure":
                        psi = haar_state(d, rng).amp
                        perp = _gauss(rng, d)
                        support, off = psi[:, None], _unit(perp - psi * np.vdot(psi, perp))
                        rho = DensityMatrix(np.outer(psi, psi.conj()))
                    else:
                        u, r = haar_unitary(d, rng), int(rng.integers(2, d))
                        support = u[:, :r]
                        rho = DensityMatrix((support * rng.dirichlet(np.ones(r))) @ dagger(support))
                        off = _unit(u[:, r:] @ _gauss(rng, d - r))
                    if kind == "general":
                        proj = support @ dagger(support)
                        k = _gauss(rng, d, d) @ (np.eye(d) - proj) + eps * _gauss(rng, d, d) @ proj
                        k /= np.linalg.norm(k, 2)
                        w, v = np.linalg.eigh(np.eye(d) - dagger(k) @ k)
                        ops = (k, (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v))
                    else:
                        tilted = _unit(off + eps * _unit(support @ _gauss(rng, support.shape[1])))
                        outer = np.outer(tilted, tilted.conj())
                        ops = (np.eye(d) - outer, outer)
                    yield "measure_selective", eps, kind, lambda: measure_selective(Channel(ops), rho)


def _outcome(call) -> str:
    try:
        result = call()
        if isinstance(result, MeasureReport):
            result.certificate
    except Exception as exc:   # the census counts every failure by its class
        return type(exc).__name__
    if isinstance(result, SdpSolution) and result.gap < 0:
        return "dual below primal"
    return "misjudged" if result is False else "ok"


def census() -> dict:
    table = collections.defaultdict(collections.Counter)
    for name, eps, kind, call in _calls(make_rng(2047)):
        if (name, eps, kind) not in NOT_RUN:
            table[name, eps, kind][_outcome(call)] += 1
    for name, eps, kind, call in _selective_calls(make_rng(2048)):
        table[name, eps, kind][_outcome(call)] += 1
    return {row: dict(counts) for row, counts in table.items()}


def test_failure_census_is_pinned():
    table = census()
    assert not set(NOT_RUN) & set(CENSUS)
    moved = {row: (CENSUS.get(row), table.get(row)) for row in {*CENSUS, *table}
             if CENSUS.get(row) != table.get(row)}
    assert not moved, moved
