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
product R, once for each pass of its distance. A pass holds one block and
two scratch arrays of its shape, which the gates, R's columns and the
difference share, and lets all three go when it ends, so ``verify``
holds no d x d matrix and stays at numpy's own floor, about 30 MiB of peak
RSS at n=10. Each gate's kernel takes its views once per pass, each term's
rotation is set up once per ``verify``, and both run on every block
without allocating, but for numpy's own ufunc buffer.

The exponential works sector by sector: a Hamiltonian sum_j w_j P_j only
links basis state s to s ^ x_j, x_j the X mask of P_j, so its matrix is
block diagonal, and each block gets its own small eigendecomposition. The
blocks come from the matrix's XOR-diagonals, the vectors m[c ^ flip, c]
over c, one per flip: ``matrix_exponential`` reads them off its matrix,
and ``verify --exact`` sums them from the terms, so it builds no d x d
matrix. It then fills each column block of the reference from the blocks'
exponentials beside the same columns of U, so it holds neither matrix
whole.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from .circuit import CX, CZ, H, RZ, S, SDG, Gate, QuantumCircuit, _expect, _finite
from .circuit import MAX_DENSE_QUBITS, MAX_EXPM_QUBITS, _check_qubit_cap
from .paulis import Hamiltonian, PauliString, _bits

# elements in one block of the blocked loops below (256 KiB of complex128);
# half of it made per-term verify at n=12 take a third longer
_BLOCK_ELEMENTS = 2**14

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
    _expect(p, PauliString, "p must be a PauliString")
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
    m = pauli_matrix(p)
    t = _finite(t, "t")
    return math.cos(t) * np.eye(len(m), dtype=complex) - 1j * math.sin(t) * m


def _rotation(p: PauliString, t: float) -> Callable[[np.ndarray, np.ndarray], None]:
    """The in-place update u <- exp(-i*t*P) @ u of a block u with 2^n rows,
    set up once for any number of blocks. ``gathered``, an array of u's
    shape, is its scratch, so no call allocates.

    P sends basis state src to src ^ flip with factor phase[src]
    (:func:`_signed_permutation`). Each element is
    ``cos(t)*u - ((1j*sin(t))*phase[src][:, None])*u[src]``, src = rows ^
    flip, the value of ``exp_pauli_closed_form(p, t) @ u``: phase is +-1 or
    +-1j, so ``1j*sin(t)*phase`` is exact and each element is rounded once,
    by sin(t), as in the order ``1j*sin(t)*(phase*u[src])``.
    """
    flip, phase = _signed_permutation(p)
    src = np.arange(len(phase)) ^ flip
    cos, isin = math.cos(t), 1j * math.sin(t)
    src_phase = isin * phase[src, None]

    def rotate(u: np.ndarray, gathered: np.ndarray) -> None:
        # "clip" never fires on these indices; unlike "raise" it writes out unbuffered
        np.take(u, src, axis=0, out=gathered, mode="clip")
        np.multiply(src_phase, gathered, out=gathered)
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
    shared by all kernels, so no gate allocates: the strided parts of the
    tensor only take plain copies, through contiguous parts of the scratch,
    as numpy copies a part that may overlap its source and buffers a
    strided operand of a ufunc. CX, CZ, S and Sdg only move entries or
    multiply them by -1, i or -i, which a copy or an elementwise multiply
    does exactly; their nonzero results equal the matrix product's bit for
    bit. H, RZ and RX keep the steps of ``np.tensordot`` on the qubit's axis
    (gather it to the front, one matrix product, scatter back), so the bits
    are theirs: elementwise arithmetic would round differently.
    """
    qubits = gate.qubits
    # the gate's axes first, the others in order
    view = tensor.transpose(qubits + tuple(a for a in range(tensor.ndim) if a not in qubits))
    if gate.kind == CX:
        # swap the target's 0 and 1 parts where the control is 1
        zero, one, saved_zero, saved_one = view[1, 0], view[1, 1], gathered[1, 0], gathered[1, 1]

        def swap() -> None:
            saved_zero[...] = zero
            saved_one[...] = one
            zero[...] = saved_one
            one[...] = saved_zero

        return swap
    if gate.kind in _PHASE_FACTORS:
        # multiply the part where the gate's qubits are all 1
        index = (1,) * len(qubits)
        part, saved, factor = view[index], gathered[index], _PHASE_FACTORS[gate.kind]

        def phase() -> None:
            saved[...] = part
            np.multiply(saved, factor, out=saved)
            part[...] = saved

        return phase
    matrix = _gate_matrix(gate)

    def multiply() -> None:
        gathered[...] = view
        np.dot(matrix, gathered.reshape(2, -1), out=product.reshape(2, -1))
        view[...] = product

    return multiply


def _unitary_blocks(
    c: QuantumCircuit,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """(start, block, gathered, product) for each block of
    ``circuit_unitary(c)``'s columns, start.. in order, phase included: one
    array, reused, whose column values do not depend on the block they are
    computed in; gathered and product, the kernels' scratch, are arrays of
    its shape, free until the next block."""
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
        yield start, block, gathered.reshape(dim, width), product.reshape(dim, width)


def circuit_unitary(c: QuantumCircuit) -> np.ndarray:
    """Multiply out the circuit's gates in application order, phase included.
    Besides the result only block-sized arrays are live."""
    _expect(c, QuantumCircuit, "c must be a QuantumCircuit")
    _check_qubit_cap(c.n_qubits)
    dim = 2**c.n_qubits
    u = np.empty((dim, dim), dtype=complex)
    for start, block, _, _ in _unitary_blocks(c):
        u[:, start : start + block.shape[1]] = block
    return u


def _diagonals(h: Hamiltonian) -> dict[int, np.ndarray]:
    """{flip: v} for each X mask flip of h's terms, v[c] = H[c ^ flip, c]
    for H = sum of coefficient * pauli_matrix(string): each term adds its
    one nonzero per column to the vector of its flip, in term order. A sum
    past the float range raises ValueError, whatever the order of the terms
    that sum to it."""
    dim = 2**h.n_qubits
    with np.errstate(over="ignore", invalid="ignore"):
        # where a partial sum overflows, sum again with the coefficients
        # divided by a power of two above the term count, so that only the
        # product back can overflow; both steps are exact on normal floats
        for scale in (1.0, 2.0 ** len(h.terms).bit_length()):
            diagonals: dict[int, np.ndarray] = {}
            for term in h.terms:
                flip, phase = _signed_permutation(term.string)
                if flip not in diagonals:
                    diagonals[flip] = np.zeros(dim, dtype=complex)
                diagonals[flip] += term.coefficient / scale * phase
            for v in diagonals.values():
                v *= scale
            if all(np.isfinite(v).all() for v in diagonals.values()):
                return diagonals
    raise ValueError("the Hamiltonian's matrix has an entry past the float range")


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    """Sum of coefficient * pauli_matrix(string); Hermitian by construction.
    The :func:`_diagonals` vectors, each scattered to its XOR-diagonal. A
    matrix past the float range raises ValueError, whatever the order of the
    terms that sum to it."""
    _expect(h, Hamiltonian, "h must be a Hamiltonian")
    _check_qubit_cap(h.n_qubits)
    diagonals = _diagonals(h)
    cols = np.arange(2**h.n_qubits)
    total = np.zeros((len(cols), len(cols)), dtype=complex)
    for flip, v in diagonals.items():
        total[cols ^ flip, cols] = v
    return total


def _sectors(
    diagonals: dict[int, np.ndarray], dim: int, t: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(indices, exponentials) for each size s of the sectors of the dim x
    dim Hermitian m given by its XOR-diagonals, ``diagonals[flip][c] =
    m[c ^ flip, c]``, a flip left out being zero: the rows of the (k, s)
    ``indices`` are the states of the k sectors of that size, ascending, and
    ``exponentials`` stacks their exp(-i*t*block), each from the block's
    eigendecomposition block = V diag(w) V†.

    A sector is a connected block of m's nonzero pattern. eigh reads the
    lower triangle of what it is given, so a block must keep every entry of
    m's lower triangle that links two states: c and c ^ flip are linked
    where m[c ^ flip, c] or m[c, c ^ flip] is nonzero, which also links
    states that only the upper triangle does, and the ascending rows keep
    each block's lower triangle in m's. An entry that sums to zero links
    nothing. Only vectors of length dim are made, and the blocks themselves.
    """
    states = np.arange(dim)
    edges = []  # (c, c ^ flip) over the linked c, so each link both ways round
    for flip, v in diagonals.items():
        if flip:
            linked = v != 0
            linked |= linked[states ^ flip]
            edges.append((states[linked], states[linked] ^ flip))
    # each state's label falls to the least label it links to, then to that
    # label's own label, until none moves: the least state of its sector
    labels = states
    while True:
        lowest = labels.copy()
        for c, partner in edges:
            lowest[c] = np.minimum(lowest[c], labels[partner])
        lowest = lowest[lowest]
        if np.array_equal(lowest, labels):
            break
        labels = lowest
    sizes = np.bincount(labels, minlength=dim)[labels]
    # by sector size, then sector; lexsort is stable, so each sector's states stay ascending
    order = np.lexsort((labels, sizes))
    place = np.empty_like(order)
    place[order] = states  # each state's position in order
    start = 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        indices = order[start : start + count].reshape(-1, size)
        # m[r, c] for r, c in one sector goes to that block's row r, column c
        blocks = np.zeros((len(indices), size, size), dtype=complex)
        group = indices.ravel()
        for flip, v in diagonals.items():
            c = group[labels[group ^ flip] == labels[group]]
            at, at_r = place[c] - start, place[c ^ flip] - start
            blocks[at // size, at_r % size, at % size] = v[c]
        start += count
        w, vectors = np.linalg.eigh(blocks)
        del blocks
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(t * w).all():
                raise ValueError("t times an eigenvalue of the matrix is past the float range")
        # (V * phases) @ V†, with V conjugated in place once the scaled copy is made
        scaled = vectors * np.exp(-1j * t * w)[:, None]
        yield indices, scaled @ np.swapaxes(np.conj(vectors, out=vectors), 1, 2)


def matrix_exponential(m: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*t*m) for Hermitian m, sector by sector: m is block diagonal
    over the connected blocks of its nonzero pattern, each block's
    exponential comes from its own eigendecomposition, and the result holds
    the blocks in place and zeros elsewhere.

    Deliberately independent of the closed-form route so the two can check
    each other.
    """
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
    deviation = float(np.linalg.norm(scaled - scaled.conj().T))
    if deviation > 1e-10 * max(1.0 / scale, np.linalg.norm(scaled)):
        raise ValueError(f"matrix is not Hermitian (deviation {deviation * scale:.3e})")
    states = np.arange(len(m))
    # m's nonzero XOR-diagonals
    diagonals = {flip: m[states ^ flip, states] for flip in range(len(m))}
    diagonals = {flip: v for flip, v in diagonals.items() if v.any()}
    result = np.zeros(m.shape, dtype=complex)
    for indices, exponentials in _sectors(diagonals, len(m), t):
        result[indices[:, :, None], indices[:, None, :]] = exponentials
    return result


def _exact_distance(c: QuantumCircuit, h: Hamiltonian, t: float) -> float:
    """phase_invariant_distance(circuit_unitary(c), matrix_exponential(
    hamiltonian_matrix(h), t)), bit for bit, with none of the three matrices
    built: the sectors come from h's XOR-diagonals, and each pass makes a
    block of U and fills one of the kernels' scratch arrays with the same
    columns of the reference, zeros and the sectors' entries. The diagonals need no
    check: they are finite, or _diagonals raises, and H is exactly
    Hermitian; the caller caps n and gives t as a float."""
    sectors = list(_sectors(_diagonals(h), 2**h.n_qubits, t))

    def parts() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for start, block, reference, free in _unitary_blocks(c):
            reference.fill(0)
            for indices, exponentials in sectors:
                # block k's state j is one of this block's columns
                k, j = np.nonzero((indices >= start) & (indices < start + block.shape[1]))
                reference[indices[k].T, indices[k, j] - start] = exponentials[k, :, j].T
            yield block, reference, free

    return _distance(parts)


def _per_term_distance(c: QuantumCircuit, h: Hamiltonian, t: float) -> float:
    """phase_invariant_distance(circuit_unitary(c), R), bit for bit, for R the
    per-term reference of h at t, with neither matrix built: each pass makes
    a block of U and the same columns of R, term by term, first term first,
    in one of the kernels' scratch arrays."""
    rotations = [_rotation(term.string, t * term.coefficient) for term in h.terms]

    def parts() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for start, block, reference, free in _unitary_blocks(c):
            reference.fill(0)
            np.fill_diagonal(reference[start:], 1)
            for rotate in rotations:
                rotate(reference, free)
            yield block, reference, free

    return _distance(parts)


def _distance(
    parts: Callable[[], Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]],
) -> float:
    """min over phi of ||a - exp(i*phi)*b||, for a and b cut into the
    matching 2-D parts that ``parts()`` yields afresh for each pass, each
    with a free array of their shape: the overlap vdot(b, a), which fixes
    phi, then the squared norm of the difference, made in the free array,
    each summed part by part. No part outlives its pass. Each
    caller cuts parts of ``_BLOCK_ELEMENTS`` elements for the row count, so
    their bits agree."""
    overlap = sum((np.vdot(b, a) for a, b, _ in parts()), 0j)
    w = np.exp(1j * np.angle(overlap))
    total = 0.0
    for a, b, free in parts():
        # a - w * b, with the ufuncs and operand order that fix its bits
        np.multiply(w, b, out=free)
        np.subtract(a, free, out=free)
        total += np.vdot(free, free).real
    return math.sqrt(total)


def phase_invariant_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phi of the Frobenius norm ||a - exp(i*phi)*b||.

    Zero exactly when a and b agree up to a global phase. The minimum sits
    at phi = arg(trace(b^dag a)) = arg(vdot(b, a)); evaluating the difference
    there instead of expanding ||a||^2 + ||b||^2 - 2|trace| keeps full
    precision near zero, where the expanded form cancels catastrophically.
    The sums run over parts of the columns that it cuts here as views of a
    and b (a 1-D input is one row), with one part-sized buffer for their
    difference; vdot copies the two parts of the overlap where they are
    not contiguous.
    """
    for name, m in (("a", a), ("b", b)):
        _expect(m, np.ndarray, f"{name} must be a numpy array")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    rows, cols = (len(a), math.prod(a.shape[1:])) if a.ndim > 1 else (1, a.size)
    a, b = a.reshape(rows, cols), b.reshape(rows, cols)
    width = max(1, min(cols, _BLOCK_ELEMENTS // max(1, rows)))
    # the difference takes the dtype of a - w * b, w a complex scalar
    free = np.empty(rows * width, np.result_type(a, b, 1j))

    def parts() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for start in range(0, cols, width):
            part_a, part_b = a[:, start : start + width], b[:, start : start + width]
            yield part_a, part_b, free[: part_a.size].reshape(part_a.shape)

    return _distance(parts)
