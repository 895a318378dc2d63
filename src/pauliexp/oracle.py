"""Dense-matrix ground truth for verifying synthesized circuits.

Everything here is written against the same conventions as the circuit IR:
qubit 0 is the leftmost Kronecker factor (most significant bit of a basis
state index), and the canonical target of a synthesis is exp(-i*t*P).

Matrices stay small by construction: Pauli matrices and circuit evaluation
cap at ``MAX_DENSE_QUBITS`` and the Hermitian exponential at
``MAX_EXPM_QUBITS``. These are desk-scale verification tools, not a
simulator. The loops run over column blocks of the identity, each run
through a circuit's gates: ``circuit_unitary`` copies the blocks into U,
and per-term ``verify`` makes them, and the same columns of the per-term
product R, once for each pass of its distance, so it holds no d x d matrix
and stays near numpy's own floor, about 32 MiB even at n=12. Each gate's
kernel takes its views once per pass, each term's rotation is set up once
per ``verify``, and both run on every block without allocating.

The exponential works sector by sector: a Hamiltonian sum_j w_j P_j only
links basis state s to s ^ x_j, x_j the X mask of P_j, so its matrix is
block diagonal over the cosets of the span of those masks, and each block
gets its own small eigendecomposition. ``verify --exact`` takes the blocks'
exponentials, drops the Hamiltonian's matrix and fills each column block of
the reference from them beside the same columns of U, so it holds neither
matrix whole.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from functools import partial

import numpy as np

from .circuit import CX, CZ, H, RZ, S, SDG, Gate, QuantumCircuit, _finite, _shown
from .paulis import Hamiltonian, PauliString, _bits

MAX_DENSE_QUBITS = 12
MAX_EXPM_QUBITS = 8
# elements in one block of the blocked loops below (512 KiB of complex128)
_BLOCK_ELEMENTS = 2**15

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) * (1 / math.sqrt(2))


def _gate_matrix(gate: Gate) -> np.ndarray:
    """The matrix of an H, RZ or RX gate; :func:`_kernel` needs no other."""
    if gate.kind == H:
        return _H_MATRIX
    assert gate.angle is not None
    half = gate.angle / 2
    if gate.kind == RZ:
        return np.diag([np.exp(-1j * half), np.exp(1j * half)])
    c, s = math.cos(half), math.sin(half)  # RX
    return np.array([[c, -1j * s], [-1j * s, c]])


def _check_qubit_cap(n: int, cap: int = MAX_DENSE_QUBITS, what: str = "dense-matrix") -> None:
    if n > cap:
        raise ValueError(f"{n} qubits exceeds the {what} cap of {cap}")


def _msb_first(mask: int, n: int) -> int:
    """An n-bit mask with bit k moved to bit n-1-k: qubit k's bit in a basis index."""
    return int(f"{mask:0{n}b}"[::-1], 2)


def _signed_permutation(p: PauliString) -> tuple[int, np.ndarray]:
    """(flip, phase) with P|src> = phase[src] * |src ^ flip>.

    flip is the X/Y mask, and phase[src] is i^{#Y} * (-1)^{popcount(src &
    zy)}, zy being the Z/Y mask, both in basis-index bit order.
    """
    n = p.n_qubits
    flip, zy = _msb_first(p.x, n), _msb_first(p.z, n)
    rows = np.arange(2**n)
    parity = np.zeros(2**n, dtype=rows.dtype)
    for bit in _bits(zy):
        parity ^= rows >> bit & 1
    signs = np.where(parity, -1.0, 1.0)
    return flip, 1j ** (p.x & p.z).bit_count() * signs


def pauli_matrix(p: PauliString) -> np.ndarray:
    """The matrix of P, qubit 0 leftmost: one nonzero entry per column,
    ``m[src ^ flip, src] = phase[src]`` (see :func:`_signed_permutation`)."""
    if not isinstance(p, PauliString):
        raise TypeError(f"p must be a PauliString, got {_shown(p)}")
    _check_qubit_cap(p.n_qubits)
    flip, phase = _signed_permutation(p)
    cols = np.arange(len(phase))
    m = np.zeros((len(phase), len(phase)), dtype=complex)
    m[cols ^ flip, cols] = phase
    return m


def exp_pauli_closed_form(p: PauliString, t: float) -> np.ndarray:
    """exp(-i*t*P) = cos(t)*I - i*sin(t)*P, exact because P squares to I.

    This closed form is the ground truth every synthesized circuit is
    checked against. ``t`` is checked as :func:`matrix_exponential` checks it.
    """
    if not isinstance(p, PauliString):
        raise TypeError(f"p must be a PauliString, got {_shown(p)}")
    _check_qubit_cap(p.n_qubits)
    t = _finite(t, "t")
    dim = 2**p.n_qubits
    return math.cos(t) * np.eye(dim, dtype=complex) - 1j * math.sin(t) * pauli_matrix(p)


def _rotation(p: PauliString, t: float) -> Callable[[np.ndarray, np.ndarray], None]:
    """The in-place update u <- exp(-i*t*P) @ u of a block u with 2^n rows,
    set up once for any number of blocks. ``gathered``, an array of u's
    shape, is its scratch, so no call allocates.

    P sends basis state src to src ^ flip with factor phase[src]
    (:func:`_signed_permutation`). Each element gets the operations, in the
    operand order, of ``cos(t)*u - (1j*sin(t))*(phase[src][:, None]*u[src])``,
    src = rows ^ flip, the value of ``exp_pauli_closed_form(p, t) @ u``.
    """
    flip, phase = _signed_permutation(p)
    src = np.arange(len(phase)) ^ flip
    src_phase = phase[src, None]
    cos, isin = math.cos(t), 1j * math.sin(t)

    def rotate(u: np.ndarray, gathered: np.ndarray) -> None:
        # "clip" never fires on these indices; unlike "raise" it writes out unbuffered
        np.take(u, src, axis=0, out=gathered, mode="clip")
        np.multiply(src_phase, gathered, out=gathered)
        np.multiply(isin, gathered, out=gathered)
        np.multiply(cos, u, out=u)
        np.subtract(u, gathered, out=u)

    return rotate


# phase on the all-ones part of a diagonal gate whose other entries are 1
_PHASE_FACTORS = {CZ: -1, S: 1j, SDG: -1j}


def _kernel(
    gate: Gate, tensor: np.ndarray, gathered: np.ndarray, product: np.ndarray
) -> Callable[[], object]:
    """The in-place update by ``gate`` of ``tensor``, a 2^n x m block
    viewed with shape (2,)*n + (m,), with its views taken once, here.

    ``gathered`` and ``product`` are scratch arrays of the tensor's shape,
    shared by all kernels, so no gate allocates. CX, CZ, S and Sdg only move
    entries or multiply them by -1, i or -i, which a copy or an elementwise
    multiply does exactly; their nonzero results equal the matrix product's
    bit for bit. H, RZ and RX keep the steps of ``np.tensordot`` on the
    qubit's axis (gather it to the front, one matrix product, scatter back),
    so the bits are theirs: elementwise arithmetic would round differently.
    """
    qubits = gate.qubits
    # the gate's axes first, the others in order
    view = tensor.transpose(qubits + tuple(a for a in range(tensor.ndim) if a not in qubits))
    if gate.kind == CX:
        # swap the target's 0 and 1 parts where the control is 1
        zero, one, saved = view[1, 0], view[1, 1], gathered[1, 0]

        def swap() -> None:
            saved[...] = zero
            zero[...] = one
            one[...] = saved

        return swap
    if gate.kind in _PHASE_FACTORS:
        # multiply the part where the gate's qubits are all 1
        part = view[(1,) * len(qubits)]
        return partial(np.multiply, part, _PHASE_FACTORS[gate.kind], out=part)
    matrix = _gate_matrix(gate)

    def multiply() -> None:
        gathered[...] = view
        np.dot(matrix, gathered.reshape(2, -1), out=product.reshape(2, -1))
        view[...] = product

    return multiply


def _unitary_blocks(c: QuantumCircuit) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(start, block, scratch) for each block of ``circuit_unitary(c)``'s
    columns, start.. in order, phase included: one array, reused, whose
    column values do not depend on the block they are computed in; scratch
    is an array of its shape, free until the next block."""
    n = c.n_qubits
    dim = 2**n
    width = min(dim, _BLOCK_ELEMENTS // dim)  # each block is one part of :func:`_distance`
    tensor, gathered, product = (np.empty((2,) * n + (width,), dtype=complex) for _ in range(3))
    block = tensor.reshape(dim, width)
    kernels = [_kernel(gate, tensor, gathered, product) for gate in c.gates]
    for start in range(0, dim, width):
        block.fill(0)
        np.fill_diagonal(block[start:], 1)  # columns start.. of the identity
        for kernel in kernels:
            kernel()
        if c.global_phase != 0.0:
            # scalar first, as in exp(i*phase) * u: the operand order fixes the bits
            np.multiply(np.exp(1j * c.global_phase), block, out=block)
        yield start, block, gathered.reshape(dim, width)


def circuit_unitary(c: QuantumCircuit) -> np.ndarray:
    """Multiply out the circuit's gates in application order, phase included.
    Besides the result only block-sized arrays are live."""
    if not isinstance(c, QuantumCircuit):
        raise TypeError(f"c must be a QuantumCircuit, got {_shown(c)}")
    _check_qubit_cap(c.n_qubits)
    dim = 2**c.n_qubits
    u = np.empty((dim, dim), dtype=complex)
    for start, block, _ in _unitary_blocks(c):
        u[:, start : start + block.shape[1]] = block
    return u


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    """Sum of coefficient * pauli_matrix(string); Hermitian by construction.
    Each term adds its one nonzero per column in place. A matrix past the
    float range raises ValueError, whatever the order of the terms that sum
    to it."""
    if not isinstance(h, Hamiltonian):
        raise TypeError(f"h must be a Hamiltonian, got {_shown(h)}")
    _check_qubit_cap(h.n_qubits)
    dim = 2**h.n_qubits
    cols = np.arange(dim)
    with np.errstate(over="ignore", invalid="ignore"):
        # where a partial sum overflows, sum again with the coefficients
        # divided by a power of two above the term count, so that only the
        # product back can overflow; both steps are exact on normal floats
        for scale in (1.0, 2.0 ** len(h.terms).bit_length()):
            total = np.zeros((dim, dim), dtype=complex)
            for term in h.terms:
                flip, phase = _signed_permutation(term.string)
                total[cols ^ flip, cols] += term.coefficient / scale * phase
            total *= scale
            if np.isfinite(total).all():
                return total
    raise ValueError("the Hamiltonian's matrix has an entry past the float range")


def _checked(m: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """m as a complex array and t as a float, once m is known to be a finite
    Hermitian square matrix within the exponential cap and t finite."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > 2**MAX_EXPM_QUBITS:
        raise ValueError(
            f"dimension {m.shape[0]} exceeds the exponential cap of {2**MAX_EXPM_QUBITS}"
        )
    t = _finite(t, "t")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry")
    # divided by a power of two, which is exact, where an entry reaches 2^500
    # and the norms below could overflow
    peak = max(np.abs(m.real).max(initial=0.0), np.abs(m.imag).max(initial=0.0))
    scale = 2.0 ** max(0, math.frexp(peak)[1] - 500)
    scaled = m / scale if scale > 1 else m
    # ||m - m^H|| summed over strips of rows, so no d x d difference is made
    rows = max(1, _BLOCK_ELEMENTS // max(1, len(m)))
    squares = 0.0
    for top in range(0, len(m), rows):
        strip = scaled[top : top + rows] - scaled[:, top : top + rows].conj().T
        squares += np.vdot(strip, strip).real
    deviation = math.sqrt(squares)
    if deviation > 1e-10 * max(1.0 / scale, np.linalg.norm(scaled)):
        raise ValueError(f"matrix is not Hermitian (deviation {deviation * scale:.3e})")
    return m, t


def _sectors(m: np.ndarray, t: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(indices, exponentials) for each size s of the connected blocks of
    m's nonzero pattern: the rows of the (k, s) ``indices`` are the states
    of the k blocks of that size, ascending, and ``exponentials`` stacks
    their exp(-i*t*block), each from the block's eigendecomposition
    block = V diag(w) V†.

    eigh reads the lower triangle of what it is given, so a block must keep
    every entry of m's lower triangle that links two states: the pattern is
    made symmetric, which also links states that only the upper triangle
    does, and the ascending rows keep each block's lower triangle in m's.
    """
    linked = m != 0
    linked |= linked.T
    # each state's label falls to the least label it links to, then to that
    # label's own label, until none moves: the least state of its block
    labels = np.arange(len(m))
    while True:
        lowest = np.where(linked, labels, len(m)).min(axis=1, initial=len(m))
        lowest = np.minimum(lowest, labels)
        lowest = lowest[lowest]
        if np.array_equal(lowest, labels):
            break
        labels = lowest
    sizes = np.bincount(labels, minlength=len(m))[labels]
    # by block size, then block; lexsort is stable, so each block's states stay ascending
    order = np.lexsort((labels, sizes))
    start = 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        indices = order[start : start + count].reshape(-1, size)
        start += count
        w, v = np.linalg.eigh(m[indices[:, :, None], indices[:, None, :]])
        yield indices, (v * np.exp(-1j * t * w)[:, None]) @ np.swapaxes(v.conj(), 1, 2)


def matrix_exponential(m: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*t*m) for Hermitian m, sector by sector: m is block diagonal
    over the connected blocks of its nonzero pattern, each block's
    exponential comes from its own eigendecomposition, and the result holds
    the blocks in place and zeros elsewhere.

    Deliberately independent of the closed-form route so the two can check
    each other.
    """
    m, t = _checked(m, t)
    result = np.zeros(m.shape, dtype=complex)
    for indices, exponentials in _sectors(m, t):
        result[indices[:, :, None], indices[:, None, :]] = exponentials
    return result


def _exact_distance(c: QuantumCircuit, h: Hamiltonian, t: float) -> float:
    """phase_invariant_distance(circuit_unitary(c), matrix_exponential(
    hamiltonian_matrix(h), t)), bit for bit, with neither U nor the reference
    built: the Hamiltonian's matrix goes once its sectors' exponentials are
    taken, and each pass makes a block of U and fills the block's scratch
    with the same columns of the reference, zeros and the sectors' entries."""
    sectors = list(_sectors(*_checked(hamiltonian_matrix(h), t)))

    def parts() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for start, block, scratch in _unitary_blocks(c):
            scratch.fill(0)
            for indices, exponentials in sectors:
                # block k's state j is one of this block's columns
                k, j = np.nonzero((indices >= start) & (indices < start + block.shape[1]))
                scratch[indices[k].T, indices[k, j] - start] = exponentials[k, :, j].T
            yield block, scratch

    return _distance(parts)


def _per_term_distance(c: QuantumCircuit, h: Hamiltonian, t: float) -> float:
    """phase_invariant_distance(circuit_unitary(c), R), bit for bit, for R the
    per-term reference of h at t, with neither matrix built: each pass makes
    a block of U and the same columns of R, term by term, first term first."""
    rotations = [_rotation(term.string, t * term.coefficient) for term in h.terms]

    def parts() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        reference = None
        for start, block, scratch in _unitary_blocks(c):
            reference = np.empty_like(block) if reference is None else reference
            reference.fill(0)
            np.fill_diagonal(reference[start:], 1)
            for rotate in rotations:
                rotate(reference, scratch)
            yield block, reference

    return _distance(parts)


def _distance(parts: Callable[[], Iterable[tuple[np.ndarray, np.ndarray]]]) -> float:
    """min over phi of ||a - exp(i*phi)*b||, for a and b cut into the
    matching contiguous 2-D parts that ``parts()`` yields afresh for each
    pass: the overlap vdot(b, a), which fixes phi, then the squared norm of
    the difference, each summed part by part. Each caller cuts parts of
    ``_BLOCK_ELEMENTS`` elements for the row count, so their bits agree."""
    overlap = 0j
    for a, b in parts():
        overlap += np.vdot(b, a)
    w = np.exp(1j * np.angle(overlap))
    total = 0.0
    for a, b in parts():
        diff = a - w * b
        total += np.vdot(diff, diff).real
    return math.sqrt(total)


def phase_invariant_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phi of the Frobenius norm ||a - exp(i*phi)*b||.

    Zero exactly when a and b agree up to a global phase. The minimum sits
    at phi = arg(trace(b^dag a)) = arg(vdot(b, a)); evaluating the difference
    there instead of expanding ||a||^2 + ||b||^2 - 2|trace| keeps full
    precision near zero, where the expanded form cancels catastrophically.
    The sums run over parts of the columns that it cuts here (a 1-D input
    is one row), so no temporary larger than a part is made.
    """
    for name, m in (("a", a), ("b", b)):
        if not isinstance(m, np.ndarray):
            raise TypeError(f"{name} must be a numpy array, got {_shown(m)}")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    rows, cols = (len(a), math.prod(a.shape[1:])) if a.ndim > 1 else (1, a.size)
    a, b = a.reshape(rows, cols), b.reshape(rows, cols)
    width = max(1, _BLOCK_ELEMENTS // max(1, rows))
    cuts = [slice(start, start + width) for start in range(0, cols, width)]
    return _distance(
        lambda: ((np.ascontiguousarray(a[:, c]), np.ascontiguousarray(b[:, c])) for c in cuts)
    )
