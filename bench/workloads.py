"""Seeded workloads: every input the program sees is generated here.

A workload is a list of rounds. A round holds one job of each kind the
workload mixes, so every round costs about the same and the timed loop
stops only on a round boundary, which keeps the mix fixed whatever the
machine's speed. One pass over all rounds is the workload's input set:
count metrics and the output digest are taken over one pass.

Term shapes (qubit count, weights, and the X/Y/Z mix of each term) follow a
fixed pattern; the seed draws qubit positions, operator order,
coefficients, angles and which sets commute. Gate counts therefore vary
little between seeds, while no two seeds share an input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from check import Ham, commutes

VARIANTS = ("z-ladder", "x-ladder", "mixed")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the checker needs to judge its output."""

    id: str
    command: str  # synth | trotter | verify | stats
    ham: Ham
    ham_file: str  # relative to the work directory
    t: float
    variant: str = "z-ladder"
    reps: int = 1
    compact: bool = False
    exact: bool = False
    out: str | None = None  # --out file, relative to the work directory
    pair: str | None = None  # stats: id of the synth job with the same flags

    def argv(self, workdir: Path) -> list[str]:
        args = [self.command, "--ham-file", str(workdir / self.ham_file)]
        args += ["--n", str(self.ham.n), "--t", repr(self.t), "--variant", self.variant]
        if self.command == "trotter":
            args += ["--reps", str(self.reps)]
        if self.compact:
            args.append("--compact")
        if self.exact:
            args.append("--exact")
        if self.out:
            args += ["--out", str(workdir / self.out)]
        return args

    @property
    def emits_qasm(self) -> bool:
        return self.command in ("synth", "trotter")

    def shape(self) -> tuple:
        """Subcommand and flags, without the input."""
        return (self.command, self.variant, self.reps, self.compact)


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: list[list[Job]]
    # Run once, outside the timed loop. A twin is a small job of a compile
    # shape too wide to simulate; a shadow emits the circuit a verify job
    # checks, so that workload also has documents to size and simulate.
    twins: list[Job] = field(default_factory=list)
    shadows: list[Job] = field(default_factory=list)

    @property
    def jobs(self) -> list[Job]:
        """One pass over the input set, in order."""
        return [job for r in self.rounds for job in r]

    @property
    def sized(self) -> list[Job]:
        """Jobs whose documents the size metrics and the digest cover."""
        return [job for job in self.jobs if job.emits_qasm] + self.shadows


def _term(rng: random.Random, n: int, k: int) -> tuple[float, tuple[tuple[int, str], ...]]:
    """A weight-k term whose X/Y/Z mix is fixed by k; positions are drawn."""
    ops = [("X", "Y", "Z")[i % 3] for i in range(k)]
    rng.shuffle(ops)
    qubits = sorted(rng.sample(range(n), k))
    coef = rng.uniform(0.1, 1.0) * rng.choice((-1.0, 1.0))
    return coef, tuple(zip(qubits, ops))


def _ham(rng: random.Random, n: int, weights: list[int]) -> Ham:
    return Ham(n, tuple(_term(rng, n, k) for k in weights))


def _commuting_ham(rng: random.Random, n: int, weights: list[int]) -> Ham:
    terms: list = []
    for k in weights:
        while True:
            term = _term(rng, n, k)
            if all(commutes(term[1], other[1]) for other in terms):
                break
        terms.append(term)
    return Ham(n, tuple(terms))


def _noncommuting_ham(rng: random.Random, n: int, weights: list[int]) -> Ham:
    while True:
        ham = _ham(rng, n, weights)
        if not commutes(ham.terms[0][1], ham.terms[1][1]):
            return ham


def _twins(rng: random.Random, jobs: list[Job], n: int, weights: list[int]) -> list[Job]:
    """One job at simulable size per compile shape, run through the same
    subcommand and flags, so the checker can simulate what the wide jobs
    compile."""
    twins, seen = [], set()
    for job in jobs:
        if job.emits_qasm and job.shape() not in seen:
            seen.add(job.shape())
            i = len(twins)
            twins.append(
                replace(job, id=f"twin{i}", ham=_ham(rng, n, weights),
                        ham_file=f"twin{i}.ham", out=None, t=rng.uniform(0.3, 1.2))
            )
    return twins


def trotter_compact(rng: random.Random) -> Workload:
    # About 0.45 s a job on a 2-vCPU x86 VM: roughly half of it in
    # cancel_adjacent and an eighth in building the same slice once per rep.
    rounds = []
    for r in range(2):
        rounds.append([
            Job(f"r{r}.{v}", "trotter", _ham(rng, 40, [6] * 100), f"r{r}.{v}.ham",
                t=rng.uniform(0.5, 1.5), variant=v, reps=8, compact=True)
            for v in VARIANTS
        ])
    jobs = [j for r in rounds for j in r]
    return Workload("trotter-compact", rounds, twins=_twins(rng, jobs, 10, [1, 2, 3, 4, 5, 6] * 2))


def synth_wide(rng: random.Random) -> Workload:
    # 1000 qubits, weights 20..60: dense strings make parsing and .support
    # a real share; no --compact, one slice.
    weights = [20 + (7 * j) % 41 for j in range(250)]
    rounds = [
        [Job(f"r{r}", "synth", _ham(rng, 1000, weights), f"r{r}.ham", t=rng.uniform(0.5, 1.5))]
        for r in range(6)
    ]
    return Workload("synth-wide", rounds, twins=_twins(rng, [r[0] for r in rounds], 10, [5, 6, 7, 8, 9, 10]))


def verify_dense(rng: random.Random) -> Workload:
    # Per-term mode on every input; --exact only at n <= 8 (the program's
    # cap), alternating commuting (PASS) and non-commuting (FAIL) sets.
    # Job times fall in three clusters: start-up bound (n <= 8, four jobs a
    # round), n = 9 (two) and n = 10 (one). With this mix the median falls
    # inside the first cluster and the tail inside the second, whatever the
    # number of rounds a run completes.
    rounds, shadows = [], []
    for r in range(3):
        jobs = []
        for slot, (name, n, m) in enumerate(
            [("n10", 10, 4), ("n9a", 9, 5), ("n9b", 9, 5), ("n8", 8, 3), ("n6", 6, 2)]
        ):
            weights = [2 + (j + r) % (min(n, 6) - 1) for j in range(m)]
            exact = n <= 8
            commuting = (n == 8) == (r % 2 == 0)
            if exact and commuting:
                ham = _commuting_ham(rng, n, weights)
            elif exact:
                ham = _noncommuting_ham(rng, n, weights)
            else:
                ham = _ham(rng, n, weights)
            base = Job(f"r{r}.{name}", "verify", ham, f"r{r}.{name}.ham",
                       t=rng.uniform(0.5, 1.0), variant=VARIANTS[slot % 3])
            jobs.append(base)
            if exact:
                jobs.append(replace(base, id=f"{base.id}.exact", exact=True))
            # the circuit verify checks, emitted once for the size metrics and
            # simulated by the checker
            shadows.append(replace(base, id=f"{base.id}.synth", command="synth"))
        rounds.append(jobs)
    return Workload("verify-dense", rounds, shadows=shadows)


def _readme_jobs(r: int) -> list[Job]:
    """The README's synth / trotter / stats examples, read from .ham files."""
    zz = Ham(2, ((1.0, ((0, "Z"), (1, "Z"))),))
    pair = Ham(2, ((0.5, ((0, "Z"), (1, "Z"))), (0.3, ((0, "X"),))))
    yyx = Ham(6, ((1.0, ((1, "Y"), (3, "Y"), (5, "X"))),))
    p = f"r{r}."
    return [
        Job(p + "readme-zz", "synth", zz, p + "readme-zz.ham", 0.5),
        Job(p + "readme-trotter", "trotter", pair, p + "readme-trotter.ham", 1.0,
            reps=8, compact=True, out=p + "readme-trotter.qasm"),
        Job(p + "readme-yyx", "synth", yyx, p + "readme-yyx.ham", 0.7),
        Job(p + "readme-yyx.stats", "stats", yyx, p + "readme-yyx.ham", 0.7,
            pair=p + "readme-yyx"),
    ]


# (qubits, term weights); weight 0 is an Id term, which the program emits as
# a global-phase comment
_TINY_SHAPES = [(1, [1]), (3, [2, 1]), (4, [3, 0, 2]), (6, [4, 2, 3, 1])]


def cli_tiny(rng: random.Random) -> Workload:
    # Start-up and import dominate every job here.
    rounds = []
    for r in range(6):
        jobs = _readme_jobs(r)
        for s in range(2):
            n, weights = _TINY_SHAPES[(2 * r + s) % len(_TINY_SHAPES)]
            ham = Ham(n, tuple(_term(rng, n, k) if k else (rng.uniform(0.1, 1.0), ())
                               for k in weights))
            variant, compact, t = VARIANTS[(2 * r + s) % 3], s == 1, rng.uniform(0.3, 1.2)
            stem = f"r{r}.s{s}"
            jobs += [
                Job(stem, "synth", ham, f"{stem}.ham", t, variant, compact=compact),
                Job(f"{stem}.stats", "stats", ham, f"{stem}.ham", t, variant,
                    compact=compact, pair=stem),
                Job(f"{stem}.trotter", "trotter", ham, f"{stem}.ham", t, variant,
                    reps=3, compact=not compact),
            ]
        rounds.append(jobs)
    # every document here is small enough to simulate itself, so no twins
    return Workload("cli-tiny", rounds)


WORKLOADS = {
    "trotter-compact": trotter_compact,
    "synth-wide": synth_wide,
    "verify-dense": verify_dense,
    "cli-tiny": cli_tiny,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def write_inputs(workload: Workload, workdir: Path, seed: int) -> None:
    """Write every .ham file; the program sees only these."""
    for job in workload.jobs + workload.twins + workload.shadows:
        path = workdir / job.ham_file
        if not path.exists():
            path.write_text(job.ham.text(f"{workload.name} seed {seed} {job.ham_file}"),
                            encoding="utf-8")
