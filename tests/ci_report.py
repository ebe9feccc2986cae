"""Figures CI prints beside the Tier-1 output; they are reported, not checked.

Run from anywhere in a checkout whose parent commit is fetched::

    PYTHONPATH=src python tests/ci_report.py

Seven reports, each under a ``## title`` line:
- the size of each module of ``src/superpos`` and of the library, and the net
  change in lines against the parent commit (HEAD^1);
- the number of public names ``import superpos`` binds, submodules excluded;
- the np.linalg calls and primal-dual iterations of one solve of each kind;
- the wall time of the criterion-07 qubit landscape and of its single cells;
- how many seeded conversions at support 3, 4 and 5 solve_lmi's rank-one
  descent closes before its primal-dual loop, its Newton steps, the time the
  others spend before the loop, and the median times; and how many of these,
  and of seeded support-2 conversions (closed form), report a gap below 0;
- the relative-entropy loop's evaluations and Newton steps on the tests' draws;
- the median time of a robustness and a relative-entropy call on the tests'
  draws, reading the value only and reading the certificate too, and of one
  ``free_channel`` and one ``measure_selective`` call on the same draws' channels,
  then the best time of one ``is_mfo`` call on a free channel at d = 2, 4 and 8.

Each report restores whatever it patched before the next one runs. A report
that raises prints its traceback, the others still run, and the script then
exits 1. pytest does not collect this file; it sits beside the
``test_measures`` helpers whose draws the last two reports read.
"""
import collections
import contextlib
import inspect
import pathlib
import subprocess
import sys
import tempfile
import time
import timeit
import traceback
from unittest import mock

import numpy as np

import superpos as sp
from superpos import sdp
from superpos.cli import dispatch
from superpos.errors import NoConvergence
from superpos.linalg import dagger
from superpos.measures import rel_entropy_measure
from superpos.sampling import haar_state, make_rng, random_basis, random_density, random_subnormalized_free_ops
from test_measures import near_dependent_batch, s2b_draws, s2b_outcomes

ROOT = pathlib.Path(__file__).resolve().parent.parent


def line_counts():
    """Lines per module laid out as ``wc -l`` lays them out (counts right-aligned
    to the digits of the files' total size in bytes), then the net change."""
    paths = sorted((ROOT / "src/superpos").glob("*.py"))
    counts = [path.read_bytes().count(b"\n") for path in paths]
    width = len(str(sum(path.stat().st_size for path in paths)))
    for path, count in zip(paths, counts):
        print(f"{count:>{width}} {path.relative_to(ROOT)}")
    print(f"{sum(counts):>{width}} total")
    numstat = subprocess.run(["git", "diff", "--numstat", "HEAD^1", "--", "src/superpos"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout
    added = removed = 0
    for line in numstat.splitlines():
        plus, minus = line.split("\t")[:2]
        # a binary file's counts read "-"
        added += int(plus) if plus.isdigit() else 0
        removed += int(minus) if minus.isdigit() else 0
    print(f"net change against the parent commit: {added - removed:+d} (+{added} -{removed})")


def exported_names():
    print(sum(not n.startswith("_") and not inspect.ismodule(v) for n, v in vars(sp).items()))


def linalg_calls():
    """np.linalg calls made by one criterion-06 conversion (candidate 0 -> (1, 0, 0)
    on the symmetric d = 3 basis, support 3: solve_lmi's rank-one descent, one
    lstsq per Newton step), by one support-1 conversion (free state 0 -> free state 1
    on the same basis: one transformer, certified at the descent's first step), by
    one support-5 conversion (a Haar pair on the seed-1501 random basis, 120
    operators validated in one stacked pass; the descent hands over to the loop),
    by one support-2 heatmap cell (a = 0.5, source (pi/2, 0), target (1.1, 2.0):
    the closed form on blocks read off the Gram matrix) and by three robustness covers (candidate 0 on the symmetric
    d = 3 basis: the closed form; the seed-608 d = 3 mixed state: the phase
    bracket; the seed-806 orthonormal d = 8 state, where the bracket stalls:
    solve_cover), each with its primal-dual iterations (calls of the step rule
    sdp._step_lengths, two per iteration; 0 where no primal-dual loop runs)."""
    calls = collections.Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def report(label, run):
        calls.clear()
        run()
        print(f"{label}: " + " ".join(f"{name} {calls[name]}" for name in names)
              + f"; primal-dual iterations {calls['steps'] // 2}")

    names = ("cholesky", "inv", "eigh", "eigvalsh", "lstsq", "qr", "norm")
    with contextlib.ExitStack() as patches:
        for name in names:
            patches.enter_context(mock.patch.object(np.linalg, name, counted(name, getattr(np.linalg, name))))
        patches.enter_context(mock.patch.object(sdp, "_step_lengths", counted("steps", sdp._step_lengths)))
        target = sp.PureState(np.array([1, 0, 0], dtype=complex))
        symmetric = sp.symmetric_basis_d3()
        report("support-3 conversion (rank-one descent)", lambda: sp.max_conversion_prob(
            sp.candidate_states_d3()[0], target, sp.symmetric_basis_d3()))
        free = [sp.PureState(symmetric.state(i)) for i in (0, 1)]
        report("support-1 conversion (rank-one descent, step 0)", lambda: sp.max_conversion_prob(
            *free, symmetric))
        rng = make_rng(1501)
        basis5 = random_basis(5, rng)
        pair = haar_state(5, rng), haar_state(5, rng)
        report("support-5 conversion (primal-dual, 120 operators)", lambda: sp.max_conversion_prob(
            *pair, basis5))
        basis = sp.qubit_free_basis(0.5)
        source = sp.qubit_state(np.pi / 2, 0.0)
        rank = sp.superposition_rank(source, basis)
        report("support-2 heatmap cell (closed form)", lambda: sp.qubit.heatmap_cell(
            basis, source, rank, (1.1, 2.0)))
        candidate = sp.candidate_states_d3()[0].density()
        report("d = 3 candidate robustness (closed form)", lambda: sp.robustness(
            candidate, symmetric))
        rng = make_rng(608)
        cover_basis = random_basis(3, rng)
        mixed = random_density(3, rng)
        report("d = 3 mixed-state robustness (phase bracket)", lambda: sp.robustness(
            mixed, cover_basis))
        stalled = random_density(8, make_rng(806))
        report("d = 8 robustness (bracket stalls: primal-dual cover)", lambda: sp.robustness(
            stalled, sp.orthonormal_basis(8)))


def landscape_timings():
    """Wall time of ``qubit heatmap --grid 32`` (source (pi/2, 0)) at three overlaps,
    and the best-of-5 time of one support-2 max_conversion_prob (a = 0.5, source
    (pi/2, 0), target (1.1, 2.0): the closed form), of one self-conversion
    heatmap_cell (value 1; it reads only the value, so builds no completion) and
    of one self-conversion max_conversion_prob with its completion read."""
    with tempfile.TemporaryDirectory() as tmp:
        for a in ("0.2", "0.5", "0.8"):
            start = time.perf_counter()
            dispatch(["qubit", "heatmap", "--a", a, "--theta", "1.5707963", "--phi", "0",
                      "--grid", "32", "--out", str(pathlib.Path(tmp) / "map.csv")])
            print(f"qubit heatmap --grid 32 at a = {a}: {time.perf_counter() - start:.2f} s")
    basis = sp.qubit_free_basis(0.5)
    source, target = sp.qubit_state(np.pi / 2, 0.0), sp.qubit_state(1.1, 2.0)
    for label, call in (
            ("support-2 max_conversion_prob", lambda: sp.max_conversion_prob(source, target, basis)),
            ("self-conversion heatmap_cell (no completion)",
             lambda: sp.qubit.heatmap_cell(basis, source, 2, (np.pi / 2, 0.0))),
            ("self-conversion max_conversion_prob + completion",
             lambda: sp.max_conversion_prob(source, source, basis).completion)):
        best = min(timeit.repeat(call, number=1000, repeat=5)) / 1000
        print(f"{label}: {best * 1e6:.1f} us (best of 5 x 1000 calls)")


def conversion_certificates():
    """Over Haar pairs on seeded random bases (60, 40 and 10 at support 3, 4 and 5),
    the conversions solve_lmi's rank-one descent closes without running
    sdp._path_following; the median and largest count of its Newton steps (one
    np.linalg.lstsq KKT solve each) over the closed solves; the median, over the
    solves it does not close, of the best-of-3 time solve_lmi spends before the
    loop starts; the median best-of-3 time of one max_conversion_prob among
    the conversions it closes and among those that run the loop; and how many
    conversions report gap < 0, a dual below the primal, at each support and
    over 60 Haar pairs on seeded random qubit bases (support 2, the closed form)."""
    rng, loop, lstsq = make_rng(52), sdp._path_following, np.linalg.lstsq
    entered, solves = [], []
    for support, draws in ((3, 60), (4, 40), (5, 10)):
        cases, steps, before_loop = [], [], []
        with mock.patch.object(sdp, "_path_following", lambda *args: entered.append(time.perf_counter()) or loop(*args)), \
                mock.patch.object(np.linalg, "lstsq", lambda *args, **kwargs: solves.append(1) or lstsq(*args, **kwargs)):
            for _ in range(draws):
                basis = random_basis(support, rng)
                pair = haar_state(support, rng), haar_state(support, rng)
                ops = sp.enumerate_transformers(*pair, basis).operators
                problem = sp.LmiProblem.from_matrices(dagger(ops) @ ops)
                waits = []
                for _ in range(3):
                    entered.clear()
                    solves.clear()
                    start = time.perf_counter()
                    sp.solve_lmi(problem)
                    waits += [entered[0] - start] if entered else []
                if waits:
                    before_loop.append(min(waits))
                else:
                    steps.append(len(solves))
                cases.append((pair, basis, not waits))
        times = {True: [], False: []}
        negative = sum(sp.max_conversion_prob(*pair, basis).gap < 0 for pair, basis, _ in cases)
        for pair, basis, closed in cases:
            times[closed].append(min(timeit.repeat(lambda: sp.max_conversion_prob(*pair, basis), number=1, repeat=3)))
        medians = {closed: f"{np.median(t) * 1e3:.2f} ms" if t else "none" for closed, t in times.items()}
        newton = f"median {np.median(steps):g}, max {max(steps)}" if steps else "none"
        waited = f"{np.median(before_loop) * 1e3:.2f} ms" if before_loop else "none"
        print(f"support {support}: descent closed {len(steps)} of {draws} conversions; Newton steps "
              f"per closed solve {newton}; median time before the loop {waited} unclosed; median "
              f"time {medians[True]} closed, {medians[False]} through the loop; gap < 0 on {negative} "
              f"of {draws}")
    qubit = [(random_basis(2, rng), haar_state(2, rng), haar_state(2, rng)) for _ in range(60)]
    negative = sum(sp.max_conversion_prob(psi, phi, basis).gap < 0 for basis, psi, phi in qubit)
    print(f"support 2 (closed form): gap < 0 on {negative} of {len(qubit)} conversions")


def rel_entropy_evaluations():
    """Evaluations (one eigh each) and Newton steps over the first 300 outcomes of
    random free channels at d = 2..4 (the stream of
    test_rel_entropy_tail_of_s2b_outcomes) and over the 60 eps = 1e-3
    near-dependent draws of test_rel_entropy_certifies_eps_1e3_bases, where
    rounding nears tol, with a count of NoConvergence."""
    def report(label, draws):
        counts, failures = {"evaluations": [], "newton_steps": []}, 0
        for b, rho in draws:
            try:
                rep = rel_entropy_measure(rho, b)
            except NoConvergence:
                failures += 1
                continue
            for key, values in counts.items():
                values.append(rep.extra[key])
        for key, values in counts.items():
            print(f"{label}: {key} total {sum(values)} "
                  f"max {max(values)} (draw {values.index(max(values))})")
        print(f"{label}: NoConvergence {failures}")

    report("300 S2b outcomes", s2b_outcomes())
    report("60 eps = 1e-3 draws", near_dependent_batch(1e-3))


def measure_timings():
    """Median over the 300 S2b draws (those of the previous report) of the
    best-of-3 time of one ``robustness`` and one ``rel_entropy_measure`` call on
    the outcome that reads only the value, and of one that also reads the
    certificate (built on first read), with a count of NoConvergence; then of
    one ``free_channel`` call (the draw's 2 free operators and their completion)
    and one ``measure_selective`` of that channel on the draw's state; then the
    best of 7 x 200 ``is_mfo`` calls on a seeded free channel at d = 2, 4 and 8."""
    draws = s2b_draws()
    for name, measure in (("robustness", sp.robustness), ("rel_entropy_measure", rel_entropy_measure)):
        for label, read in (("value only", lambda rep: rep.value),
                            ("certificate read", lambda rep: rep.certificate)):
            times, failures = [], 0
            for b, _, _, rho in draws:
                try:
                    times.append(min(timeit.repeat(lambda: read(measure(rho, b)), number=1, repeat=3)))
                except NoConvergence:
                    failures += 1
            print(f"{name}, {label}: median {np.median(times) * 1e6:.1f} us over {len(times)} draws; "
                  f"NoConvergence {failures}")
    channels = [(b, ops, sp.free_channel(ops, b), rho) for b, ops, rho, _ in draws]
    for name, call in (("free_channel", lambda b, ops, ch, rho: sp.free_channel(ops, b)),
                       ("measure_selective", lambda b, ops, ch, rho: sp.measure_selective(ch, rho))):
        times = [min(timeit.repeat(lambda: call(*draw), number=1, repeat=3)) for draw in channels]
        print(f"{name} on the S2b channels: median {np.median(times) * 1e6:.1f} us over {len(times)} draws")
    rng = make_rng(51)
    for d in (2, 4, 8):
        b = random_basis(d, rng)
        ch = sp.free_channel(random_subnormalized_free_ops(b, rng), b)
        best = min(timeit.repeat(lambda: sp.is_mfo(ch, b), number=200, repeat=7)) / 200
        print(f"is_mfo on a free channel at d = {d}: {best * 1e6:.1f} us per call (best of 7 x 200)")


REPORTS = {
    "Python lines in src/superpos": line_counts,
    "Public names exported by superpos": exported_names,
    "np.linalg calls in one solve of each kind": linalg_calls,
    "Qubit landscape timings": landscape_timings,
    "Conversions closed by the rank-one descent": conversion_certificates,
    "Relative-entropy evaluations on S2b outcomes": rel_entropy_evaluations,
    "Measure times with and without the certificate, S2b channel times and is_mfo": measure_timings,
}


def main() -> int:
    failed = 0
    for title, report in REPORTS.items():
        print(f"## {title}", flush=True)
        try:
            report()
        except Exception:   # reported with its traceback; the exit status counts it
            sys.stdout.flush()
            traceback.print_exc()
            failed += 1
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
