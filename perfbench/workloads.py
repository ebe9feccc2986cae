"""Seeded workloads of the superpos benchmark.

Every workload is a fixed cycle of item slots. A slot fixes what kind of
input it holds (state class, basis kind and dimension, support size, game
input); the seed and the cycle number draw its random content. Every cycle
therefore has the same composition, so runs of different seeds differ only
in the random content of each slot, and a run that ends on a cycle boundary
has the same mix of inputs as any other run.

Inputs are drawn with the benchmark's own numpy code; superpos only ever
receives the generated arrays. Each workload also holds the reference checks
of its outputs, which recompute what they can with numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

import superpos as sp
from superpos.errors import SuperposError

from spans import CLASSES

# Library functions are looked up on their module at call time (sp.qubit.heatmap_cell),
# never bound here, so that the tracer's wrappers see every call.

# A raised library error or a failed numpy factorisation is a failed
# operation; any other exception is a bug in the benchmark and stops it.
FAILURES = (SuperposError, np.linalg.LinAlgError)


def make_rng(seed: int, stream: int, k: int) -> np.random.Generator:
    """Generator for cycle k of one workload stream; independent of run length."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream, k])))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_columns(rng: np.random.Generator, d: int, min_sigma: float = 0.1) -> np.ndarray:
    """Unit-norm columns with smallest singular value at least min_sigma."""
    while True:
        v = complex_normal(rng, (d, d))
        v /= np.linalg.norm(v, axis=0)
        if np.linalg.svd(v, compute_uv=False)[-1] >= min_sigma:
            return v


def free_frame(v: np.ndarray) -> np.ndarray:
    """Reciprocal frame W of the columns of v: W' v = 1."""
    return np.linalg.inv(v.conj().T)


def entropy(w: np.ndarray) -> float:
    w = w[w > 1e-300]
    return float(-np.sum(w * np.log(w)))


def attempt(fn, *args):
    """Result of one library call, or the library error it raised."""
    try:
        return fn(*args)
    except FAILURES as exc:
        return exc


def failed(value) -> bool:
    return isinstance(value, BaseException)


def describe(value) -> str:
    return f"{type(value).__name__}: {value}" if failed(value) else repr(value)


@dataclass
class Slot:
    """One item input: its fixed slot labels and its seeded content."""

    labels: dict
    data: dict = field(repr=False)


@dataclass
class Outcome:
    """Results of one item: op name -> value or raised error, plus labels known only afterwards."""

    ops: dict
    labels: dict = field(default_factory=dict)
    keep: dict = field(default_factory=dict, repr=False)

    def fingerprint(self) -> str:
        return repr(sorted((k, fingerprint(v)) for k, v in self.ops.items()))


def fingerprint(value):
    """Exact, comparable summary of an op result (for traced vs untraced runs)."""
    if failed(value):
        return ("error", type(value).__name__, str(value))
    if isinstance(value, sp.MeasureReport):
        return ("report", value.value, repr(sorted((k, np.asarray(v).tobytes()) for k, v in value.extra.items())))
    if isinstance(value, sp.SdpSolution):
        return ("sdp", value.primal, value.dual, value.gap, value.value, value.p.tobytes(),
                value.dual_matrix.tobytes(), value.completion is not None)
    if isinstance(value, sp.GameStats):
        return ("game", value.turns, value.conclusive_turns, value.wins, value.losses)
    return ("value", repr(value))


class CheckLog:
    """Failed operations with their causes, and problems with the run itself.

    An operation fails when it raises a library error, returns NaN or returns
    an output that misses its reference check; each failure keeps its cause.
    ``broken`` holds what makes the run's own figures untrustworthy: a replay
    with the same seed, or a traced run, that changed an output.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []   # (cause, detail)
        self.broken: list[str] = []

    def op(self, item_id: int, name: str, value, problems: list[str]) -> None:
        self.attempted += 1
        if failed(value):
            self.failures.append((f"{name} raised {type(value).__name__}", f"item {item_id}: {value}"))
        elif problems:
            self.failures.append((f"{name} missed its reference check", f"item {item_id}: " + "; ".join(problems)))


def _close(name: str, got: float, want: float, tol: float, out: list[str]) -> None:
    if not (abs(got - want) <= tol):
        out.append(f"{name} {got!r} != reference {want!r} (tol {tol:g})")


# ---------------------------------------------------------------------------
# measure-mix: one state plus its measure suite, criterion-10 classes
# ---------------------------------------------------------------------------

# (source, basis kind, d) of each slot. The sources follow criterion 10 in the
# shares of states it evaluates: S1 free mixtures and S1 resourceful pure
# states 5 % each, S2b 60 % (one Born-rule outcome of a selective free
# measurement) and S3 30 % (a mixture of a pure and a mixed state). Most bases
# have d = 2..4; a fixed minority is orthonormal (the coherence limit) or has
# d = 8, spread over the sources, the S1 free mixtures included: those are the
# inputs on which solve_cover runs long.
_S1_FREE = (("rand", 2), ("ortho", 3), ("rand", 4), ("rand", 8))
_S1_PURE = (("rand", 2), ("rand", 3), ("ortho", 4), ("rand", 4))
_S2B = (("rand", 2), ("rand", 3), ("rand", 4), ("rand", 2), ("rand", 3), ("ortho", 2),
        ("rand", 4), ("rand", 8), ("rand", 3), ("rand", 2), ("rand", 4), ("rand", 3))
_S3 = (("rand", 3), ("rand", 2), ("ortho", 3), ("rand", 4), ("rand", 2), ("rand", 8))
MIX_SLOTS = tuple(
    slot
    for block in range(4)
    for slot in (("s1-pure", *_S1_PURE[block]), ("s1-free", *_S1_FREE[block]))
    + tuple(("s2b", *b) for b in _S2B) + tuple(("s3", *b) for b in _S3)
)


def state_class(mat: np.ndarray, w: np.ndarray) -> tuple[str, np.ndarray | None]:
    """free / free_pure / pure / mixed, plus the state vector when rank one."""
    evals, evecs = np.linalg.eigh(mat)
    vec = evecs[:, -1] if evals[-1] >= 1.0 - 1e-8 else None
    coeffs = w.conj().T @ mat @ w
    off = coeffs - np.diag(np.diag(coeffs))
    free = np.abs(off).max() <= 1e-8 and np.diag(coeffs).real.min() >= -1e-8
    if free:
        return ("free_pure" if vec is not None else "free"), vec
    return ("pure" if vec is not None else "mixed"), vec


class MeasureMix:
    name = "measure-mix"
    stream = 1
    slots_per_cycle = len(MIX_SLOTS)
    nominal_cycle_s = 6.0   # untraced seconds per cycle at the seed commit and reference speed

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, k: int) -> list[Slot]:
        rng = make_rng(self.seed, self.stream, k)
        out = []
        s2b_seen = 0
        for source, kind, d in MIX_SLOTS:
            v = random_columns(rng, d) if kind == "rand" else np.eye(d, dtype=complex)
            basis = sp.new_free_basis(list(v.T))
            data = {"basis": basis, "v": v}
            if source == "s1-free":
                weights = rng.dirichlet(np.ones(d))
                data["rho"] = sp.DensityMatrix((v * weights) @ v.conj().T)
            elif source == "s1-pure":
                w = free_frame(v)
                while True:
                    amp = complex_normal(rng, d)
                    mags = np.abs(w.conj().T @ amp)
                    if mags.min() > 0.25 * mags.max():
                        break
                data["psi"] = sp.PureState.normalized(amp)
            elif source == "s2b":
                data["ops"] = self._free_ops(rng, v, 2, 0.9)
                # pure and mixed inputs alternate from one S2b slot to the next
                data["rho"] = (sp.PureState.normalized(complex_normal(rng, d)).density()
                               if s2b_seen % 2 == 0 else self._ginibre(rng, d))
                s2b_seen += 1
                data["u"] = float(rng.random())
            else:
                t = float(rng.random())
                pure = sp.PureState.normalized(complex_normal(rng, d)).density().mat
                data["rho"] = sp.DensityMatrix(t * pure + (1 - t) * self._ginibre(rng, d).mat)
            labels = {"source": source, "basis": kind, "d": d}
            out.append(Slot(labels, data))
        return out

    @staticmethod
    def _ginibre(rng, d: int):
        g = complex_normal(rng, (d, d))
        m = g @ g.conj().T
        return sp.DensityMatrix(m / np.trace(m).real)

    @staticmethod
    def _free_ops(rng, v: np.ndarray, n_ops: int, slack: float) -> list[np.ndarray]:
        """Random free Kraus operators jointly scaled to sum K'K <= slack."""
        d = v.shape[0]
        w = free_frame(v)
        ops = []
        for _ in range(n_ops):
            coeffs = complex_normal(rng, d)
            labels = rng.integers(d, size=d)
            ops.append(sum(coeffs[j] * np.outer(v[:, labels[j]], w[:, j].conj()) for j in range(d)))
        total = sum(k.conj().T @ k for k in ops)
        scale = math.sqrt(slack / float(np.linalg.eigvalsh(total)[-1]))
        return [scale * k for k in ops]

    def run(self, slot: Slot) -> Outcome:
        data, basis = slot.data, slot.data["basis"]
        ops = {}
        psi = data.get("psi")
        if slot.labels["source"] == "s2b":
            channel = attempt(sp.free_channel, data["ops"], basis)
            outcomes = channel if failed(channel) else attempt(sp.measure_selective, channel, data["rho"])
            if failed(outcomes):
                return Outcome({"kraus": outcomes})
            # Born-rule choice of one outcome
            target = data["u"] * sum(p for p, _ in outcomes)
            rho, acc = outcomes[-1][1], 0.0
            for p, state in outcomes:
                acc += p
                if target < acc:
                    rho = state
                    break
            parts = attempt(sp.states.eigen_decomposition, rho)
            if failed(parts):
                return Outcome({"states": parts})
            if len(parts) == 1:
                psi = parts[0][1]
        else:
            rho = psi.density() if psi is not None else data["rho"]
        ops["l1"] = attempt(sp.l1_measure, rho, basis)
        ops["rel_entropy"] = attempt(sp.rel_entropy_measure, rho, basis)
        ops["robustness"] = attempt(sp.robustness, rho, basis)
        if psi is not None:
            ops["rank"] = attempt(sp.rank_measure, psi, basis)
        return Outcome(ops, keep={"rho": rho.mat})

    def classify(self, slot: Slot, outcome: Outcome) -> None:
        if "rho" in outcome.keep:
            cls, _ = state_class(outcome.keep["rho"], free_frame(slot.data["v"]))
            outcome.labels["class"] = cls

    def check(self, items, log: CheckLog) -> None:
        for item_id, slot, outcome in items:
            if "rho" not in outcome.keep:
                for name, value in outcome.ops.items():
                    log.op(item_id, name, value, [])
                continue
            rho = outcome.keep["rho"]
            w = free_frame(slot.data["v"])
            cls, vec = state_class(rho, w)
            coeffs = w.conj().T @ rho @ w
            ops = outcome.ops

            l1_problems = []
            if not failed(ops["l1"]):
                ref = float(np.abs(coeffs).sum() - np.abs(np.diag(coeffs)).sum())
                _close("l1", ops["l1"].value, max(ref, 0.0), 1e-8 * max(1.0, ref), l1_problems)
            log.op(item_id, "l1", ops["l1"], l1_problems)

            robust = ops["robustness"]
            r_problems = []
            r_value = None
            if not failed(robust):
                r_value = robust.value
                if not (math.isfinite(r_value) and r_value >= 0.0):
                    r_problems.append(f"robustness {r_value!r} not a finite nonnegative number")
                if not robust.extra["gap"] <= 1e-6:
                    r_problems.append(f"dual gap {robust.extra['gap']:.3e} above 1e-6")
                if vec is not None:
                    c = np.abs(w.conj().T @ vec)
                    _close("robustness", r_value, float(c.sum() ** 2 - 1.0), 1e-6, r_problems)
                if cls in ("free", "free_pure") and not r_value <= 1e-6:
                    r_problems.append(f"robustness {r_value:.3e} of a free state above 1e-6")
                cert = robust.certificate
                if cert["tau"] is not None:
                    s = cert["s"]
                    resid = np.abs(rho + s * cert["tau"].mat - (1 + s) * cert["delta"].mat).max()
                    if not resid <= 1e-6 * (1 + s):
                        r_problems.append(f"certificate residual {resid:.3e}")
            log.op(item_id, "robustness", robust, r_problems)

            rel = ops["rel_entropy"]
            e_problems = []
            if not failed(rel):
                e = rel.value
                if not (math.isfinite(e) and e >= 0.0):
                    e_problems.append(f"relative entropy {e!r} not a finite nonnegative number")
                elif r_value is not None and not e <= math.log1p(r_value) + 1e-6:
                    e_problems.append(f"relative entropy {e:.9f} above ln(1+R) = {math.log1p(r_value):.9f}")
                if cls in ("free", "free_pure") and not e <= 1e-6:
                    e_problems.append(f"relative entropy {e:.3e} of a free state above 1e-6")
                if slot.labels["basis"] == "ortho":
                    ref = entropy(np.diag(rho).real) - entropy(np.linalg.eigvalsh(rho))
                    _close("relative entropy", e, ref, 1e-6, e_problems)
            log.op(item_id, "rel_entropy", rel, e_problems)

            if "rank" in ops:
                k_problems = []
                if not failed(ops["rank"]) and vec is not None:
                    c = np.abs(w.conj().T @ vec)
                    ref = math.log(int(np.sum(c > 1e-9 * c.max())))
                    _close("rank", ops["rank"].value, ref, 1e-12, k_problems)
                log.op(item_id, "rank", ops["rank"], k_problems)

    def shares(self, items) -> dict:
        n = len(items)
        count = lambda pred: sum(1 for _, slot, out in items if pred(slot, out)) / n
        shares = {f"class.{c}": count(lambda s, o, c=c: o.labels.get("class") == c) for c in CLASSES}
        shares["d2"] = count(lambda s, o: s.labels["d"] == 2)
        shares["d8"] = count(lambda s, o: s.labels["d"] == 8)
        shares["orthonormal"] = count(lambda s, o: s.labels["basis"] == "ortho")
        return shares


# ---------------------------------------------------------------------------
# conversion-ladder: one max_conversion_prob between full-support pure states
# ---------------------------------------------------------------------------

LADDER_RANKS = (2, 3, 4)
LADDER_REPEATS = 8
PROBE_RANK = 5
CRITERION_06_BOUND = 16 / 17


def transformer_matrices(psi: np.ndarray, phi: np.ndarray, v: np.ndarray) -> list[np.ndarray]:
    """F_n'F_n for every exact free transformer psi -> phi (independent enumeration)."""
    w = free_frame(v)
    src, dst = w.conj().T @ psi, w.conj().T @ phi
    support = lambda c: [int(i) for i in np.where(np.abs(c) > 1e-9 * np.abs(c).max())[0]]
    s_src, s_dst = support(src), support(dst)
    mats = []
    for image in itertools.permutations(s_dst):
        f = sum((dst[fj] / src[j]) * np.outer(v[:, fj], w[:, j].conj()) for j, fj in zip(s_src, image))
        mats.append(f.conj().T @ f)
    return mats


class ConversionLadder:
    name = "conversion-ladder"
    stream = 2
    slots_per_cycle = len(LADDER_RANKS) * LADDER_REPEATS + 4
    nominal_cycle_s = 3.0

    def __init__(self, seed: int):
        self.seed = seed
        self.candidate_basis = sp.symmetric_basis_d3()
        self.candidates = sp.candidate_states_d3()
        self.candidate_target = sp.PureState(np.array([1, 0, 0], dtype=complex))

    def _random_slot(self, rng, r: int) -> Slot:
        v = random_columns(rng, r)
        psi = sp.PureState.normalized(v @ complex_normal(rng, r))
        phi = sp.PureState.normalized(v @ complex_normal(rng, r))
        return Slot({"r": r, "kind": "random"},
                    {"basis": sp.new_free_basis(list(v.T)), "v": v, "psi": psi, "phi": phi})

    def cycle(self, k: int) -> list[Slot]:
        rng = make_rng(self.seed, self.stream, k)
        out = [self._random_slot(rng, r) for _ in range(LADDER_REPEATS) for r in LADDER_RANKS]
        for i, cand in enumerate(self.candidates):
            out.append(Slot({"r": 3, "kind": f"criterion-06-{i}"},
                            {"basis": self.candidate_basis, "v": self.candidate_basis.vectors,
                             "psi": cand, "phi": self.candidate_target}))
        return out

    def probe(self) -> Slot:
        """One support-5 item (120 transformers), run only in traced runs: a single
        solve took 8-31 s at the seed commit, more than a timed run can hold."""
        return self._random_slot(make_rng(self.seed, self.stream, 2**32 - 1), PROBE_RANK)

    def run(self, slot: Slot) -> Outcome:
        d = slot.data
        return Outcome({"convert": attempt(sp.max_conversion_prob, d["psi"], d["phi"], d["basis"])})

    def classify(self, slot: Slot, outcome: Outcome) -> None:
        outcome.labels["r"] = slot.labels["r"]

    def check(self, items, log: CheckLog) -> None:
        for item_id, slot, outcome in items:
            sol = outcome.ops["convert"]
            problems = []
            if not failed(sol):
                d = slot.data
                mats = transformer_matrices(d["psi"].amp, d["phi"].amp, d["v"])
                if len(mats) != math.factorial(slot.labels["r"]):
                    problems.append(f"{len(mats)} transformers, expected {slot.labels['r']}!")
                lam = 0.5 * (sol.dual_matrix + sol.dual_matrix.conj().T)
                # the dual test of sdp.verify_dual, on the benchmark's own operators
                if np.linalg.eigvalsh(lam)[0] < -1e-9:
                    problems.append("dual matrix not PSD")
                pairing = min(float(np.trace(lam @ a).real) for a in mats)
                if pairing < 1.0 - 1e-9:
                    problems.append(f"dual pairing {pairing:.12f} below 1")
                _close("dual bound", float(np.trace(lam).real), sol.dual, 1e-9, problems)
                if not -1e-9 <= sol.dual - sol.primal <= 1e-6:
                    problems.append(f"gap {sol.dual - sol.primal:.3e} outside [0, 1e-6]")
                if np.min(sol.p) < -1e-12:
                    problems.append("negative primal weight")
                slack = np.eye(len(lam)) - sum(p * a for p, a in zip(sol.p, mats))
                if np.linalg.eigvalsh(0.5 * (slack + slack.conj().T))[0] < -1e-9:
                    problems.append("primal point infeasible")
                if not 0.0 <= sol.value <= 1.0:
                    problems.append(f"value {sol.value!r} outside [0, 1]")
                if slot.labels["kind"].startswith("criterion-06") and sol.primal > CRITERION_06_BOUND + 1e-6:
                    problems.append(f"criterion-06 candidate reaches {sol.primal:.9f} > 16/17")
            log.op(item_id, "convert", sol, problems)

    def shares(self, items) -> dict:
        return {f"count.r{r}": sum(1 for _, s, _ in items if s.labels["r"] == r)
                for r in (*LADDER_RANKS, PROBE_RANK)}


# ---------------------------------------------------------------------------
# qubit-landscape: one heatmap_cell on a criterion-07-style grid
# ---------------------------------------------------------------------------

OVERLAPS = (0.0, 0.25, 0.5, 0.75, 0.9)
GRID_N = 32
CELLS_PER_OVERLAP = 12


class QubitLandscape:
    name = "qubit-landscape"
    stream = 3
    slots_per_cycle = len(OVERLAPS) * (CELLS_PER_OVERLAP + 3)
    nominal_cycle_s = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.bases = [(a, sp.qubit_free_basis(a)) for a in OVERLAPS]
        self.thetas = np.linspace(0.0, math.pi, GRID_N)
        self.phis = np.linspace(0.0, 2 * math.pi, 2 * GRID_N, endpoint=False)

    def cycle(self, k: int) -> list[Slot]:
        # a cell's cost depends on its source state, so every cycle draws new
        # sources: a run then averages over many of them
        rng = make_rng(self.seed, self.stream, k)
        out = []
        for a, basis in self.bases:
            angles = (float(rng.uniform(0.3, math.pi - 0.3)), float(rng.uniform(0.0, 2 * math.pi)))
            source = sp.qubit_state(*angles)
            rank = sp.superposition_rank(source, basis)
            span = math.acos(math.sqrt(1 - a * a))
            targets = [(float(self.thetas[rng.integers(GRID_N)]), float(self.phis[rng.integers(2 * GRID_N)]))
                       for _ in range(CELLS_PER_OVERLAP)]
            kinds = ["grid"] * CELLS_PER_OVERLAP + ["distinguished"] * 3
            targets += [angles, (span, 0.0), (math.pi - span, 0.0)]
            for kind, target in zip(kinds, targets):
                out.append(Slot({"a": a, "kind": kind},
                                {"basis": basis, "source": source, "rank": rank, "target": target}))
        return out

    def run(self, slot: Slot) -> Outcome:
        d = slot.data
        return Outcome({"cell": attempt(sp.qubit.heatmap_cell, d["basis"], d["source"], d["rank"], d["target"])})

    def classify(self, slot: Slot, outcome: Outcome) -> None:
        outcome.labels["solves"] = self._solves(slot)

    @staticmethod
    def _solves(slot: Slot) -> bool:
        """Whether the cell reaches the solver: source and target of equal superposition rank."""
        w = free_frame(slot.data["basis"].vectors)
        rank = lambda amp: int(np.sum(np.abs(w.conj().T @ amp) > 1e-9 * np.abs(w.conj().T @ amp).max()))
        return rank(sp.qubit_state(*slot.data["target"]).amp) == rank(slot.data["source"].amp)

    def check(self, items, log: CheckLog) -> None:
        for item_id, slot, outcome in items:
            value = outcome.ops["cell"]
            if isinstance(value, float) and math.isnan(value):
                # heatmap_cell turns a solver failure into NaN
                value = FloatingPointError("NaN: heatmap_cell caught a solver failure")
            problems = []
            if not failed(value):
                if not (math.isfinite(value) and -1e-9 <= value <= 1.0 + 1e-9):
                    problems.append(f"cell value {value!r} not in [0, 1]")
                if slot.labels["kind"] == "distinguished":
                    _close("distinguished target", value, 1.0, 1e-6, problems)
            log.op(item_id, "cell", value, problems)

    def shares(self, items) -> dict:
        return {"solve_share": sum(1 for _, s, o in items if o.labels["solves"]) / len(items)}


# ---------------------------------------------------------------------------
# game-sim: one simulate of a fixed number of turns
# ---------------------------------------------------------------------------

GAME_DIMS = (2, 3, 4, 5, 6)
GAME_TURNS = 1000


class GameSim:
    name = "game-sim"
    stream = 4
    slots_per_cycle = 2 * len(GAME_DIMS)
    nominal_cycle_s = 0.9

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, k: int) -> list[Slot]:
        rng = make_rng(self.seed, self.stream, k)
        out = []
        for d in GAME_DIMS:
            for kind in ("free", "superposed"):
                v = random_columns(rng, d, min_sigma=0.3)
                out.append(Slot({"d": d, "input": kind},
                                {"basis": sp.new_free_basis(list(v.T)),
                                 "rng_seed": int(rng.integers(2**31))}))
        return out

    def run(self, slot: Slot) -> Outcome:
        d = slot.data
        spec = attempt(sp.build_game, d["basis"])
        if failed(spec):
            return Outcome({"game": spec})
        return Outcome({"game": attempt(sp.simulate, spec, slot.labels["input"], GAME_TURNS, d["rng_seed"])})

    def classify(self, slot: Slot, outcome: Outcome) -> None:
        pass

    def check(self, items, log: CheckLog) -> None:
        pooled = {}
        for item_id, slot, outcome in items:
            stats = outcome.ops["game"]
            problems = []
            if not failed(stats):
                if stats.wins + stats.losses != stats.conclusive_turns or stats.conclusive_turns > stats.turns:
                    problems.append(f"inconsistent counters {stats}")
                if slot.labels["input"] == "superposed" and stats.losses:
                    problems.append(f"{stats.losses} losses on the superposed input")
                if slot.labels["input"] == "free":
                    pooled.setdefault(slot.labels["d"], []).append(item_id)
            log.op(item_id, "game", stats, problems)
        # the same seed must give identical stats: replay the first cycle
        for item_id, slot, outcome in items[:self.slots_per_cycle]:
            again = self.run(slot).ops["game"]
            if fingerprint(again) != fingerprint(outcome.ops["game"]):
                log.broken.append(f"item {item_id} game: replay with the same seed gave {describe(again)}")
        # the free win rate is pooled per dimension: one 4-sigma test per d and run
        by_id = {item_id: outcome for item_id, _, outcome in items}
        for d, ids in pooled.items():
            stats = [by_id[i].ops["game"] for i in ids]
            answered = sum(s.wins + s.losses for s in stats)
            if answered == 0:
                continue
            rate = sum(s.wins for s in stats) / answered
            sigma = math.sqrt((1 / d) * (1 - 1 / d) / answered)
            if abs(rate - 1 / d) > 4 * sigma:
                log.failures.append(("free win rate missed its reference check",
                                     f"rate {rate:.4f} at d={d} is more than 4 sigma from 1/{d}"))

    def shares(self, items) -> dict:
        stats = [o.ops["game"] for _, _, o in items if not failed(o.ops["game"])]
        turns = sum(s.turns for s in stats)
        return {"conclusive_share": sum(s.conclusive_turns for s in stats) / turns if turns else 0.0}


WORKLOADS = {w.name: w for w in (MeasureMix, ConversionLadder, QubitLandscape, GameSim)}
