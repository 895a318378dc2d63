"""In-process replay of CLI jobs with spans around each layer's public calls.

The replay does what ``pauliexp.cli`` does for a job, stage by stage, and
returns the same stdout text, so its output can be compared with the CLI
job it shadows. To separate the peephole from synthesis it builds the
circuit with ``trotter_circuit(compact=False)`` and then runs
``cancel_adjacent``, which is how ``synth.py`` defines ``compact``.

Every stage runs inside its span even when the job skips it (no peephole
without ``--compact``, no oracle outside ``verify``); a skipped stage
records an empty span, so every layer reports a measured time.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np
from pauliexp.circuit import GATE_KINDS, cancel_adjacent
from pauliexp.cli import VERIFY_THRESHOLD
from pauliexp.oracle import (
    circuit_unitary,
    exp_pauli_closed_form,
    hamiltonian_matrix,
    matrix_exponential,
    phase_invariant_distance,
)
from pauliexp.parser import parse_hamiltonian
from pauliexp.qasm import emit_qasm
from pauliexp.synth import EvolutionParams, SynthVariant, trotter_circuit

LAYERS = (
    "parser.parse",
    "paulis.support",
    "synth.trotter",
    "circuit.cancel",
    "qasm.emit",
    "oracle.circuit_unitary",
    "oracle.reference",
    "oracle.expm",
    "oracle.distance",
)
COUNTS = ("parser.terms", "synth.gates", "circuit.gates_in", "circuit.gates_out", "qasm.bytes")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root
    job: str


class Tracer:
    """Keeps spans in memory; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = ""

    @contextmanager
    def span(self, name: str, job: str | None = None):
        if job is not None:
            self._job = job
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent, self._job))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._job)

    def self_times(self) -> dict[str, dict[str, float]]:
        """{job: {span name: self time}}; self time is the span's duration
        minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = {}
        for s, child in zip(self.spans, covered):
            per_job = out.setdefault(s.job, {})
            per_job[s.name] = per_job.get(s.name, 0.0) + (s.end - s.start - child)
        return out


def _untraced(name: str, job: str | None = None):
    return nullcontext()


def replay(job, text: str, span=_untraced, counts: Counter | None = None) -> str:
    """Run one job in-process; returns what the CLI writes for it."""
    counts = Counter() if counts is None else counts
    verify = job.command == "verify"
    with span("job", job.id):
        with span("parser.parse"):
            h = parse_hamiltonian(text, job.ham.n)
        counts["parser.terms"] += len(h.terms)
        with span("paulis.support"):
            for term in h.terms:
                term.string.support
        with span("synth.trotter"):
            circuit = trotter_circuit(
                h, EvolutionParams(job.t, job.reps), SynthVariant(job.variant), compact=False
            )
        counts["synth.gates"] += len(circuit)
        with span("circuit.cancel"):
            if job.compact:
                counts["circuit.gates_in"] += len(circuit)
                circuit = cancel_adjacent(circuit)
                counts["circuit.gates_out"] += len(circuit)
        with span("qasm.emit"):
            document = emit_qasm(circuit) if job.emits_qasm else ""
        counts["qasm.bytes"] += len(document.encode())
        with span("oracle.circuit_unitary"):
            unitary = circuit_unitary(circuit) if verify else None
        with span("oracle.reference"):
            if verify and not job.exact:
                reference = np.eye(2**h.n_qubits, dtype=complex)
                for term in h.terms:
                    reference = exp_pauli_closed_form(term.string, job.t * term.coefficient) @ reference
        with span("oracle.expm"):
            if verify and job.exact:
                reference = matrix_exponential(hamiltonian_matrix(h), job.t)
        with span("oracle.distance"):
            distance = phase_invariant_distance(unitary, reference) if verify else 0.0
    if verify:
        return f"{distance:.6e} {'PASS' if distance <= VERIFY_THRESHOLD else 'FAIL'}\n"
    if job.command == "stats":
        histogram = circuit.gate_counts()
        return "".join(f"{kind}={histogram[kind]}\n" for kind in GATE_KINDS if histogram[kind])
    return document
