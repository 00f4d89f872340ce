"""Controlled-grammar texts compiled to circuits of update gates.

Actors are wires carrying density matrices; each sentence becomes a
gate that updates the state of the wires it names. Transitive verbs act
on the subject and object wires together, so the wires that gates join,
directly or through other wires, form one interaction component, whose
state is one joint density matrix. Gates on disjoint wires commute (the
interchange law of the text circuits), so the world is the tensor
product of one state per component, and each component is compiled and
evaluated as its own block: ``linalg.DIM_CAP`` bounds a component, not
the whole text, and an actor that no verb joins to another is a block of
its own. Compiling turns each gate into Kraus operators on its own
wires: projector [P], fuzz [√xᵢ Pᵢ], phaser [√σ], ddm [A_k], each
A_k = Σᵢ |ω_ik⟩⟨ω_ik| over the canonical vectors of the gate's double
density matrix. Each gate applies the operators, those vectors, or on
the dense joint its doubled operator Σ A_k ⊗ Ā_k on the wires' (row,
column) index pair, whole or as V·V† over the same-factor products of
those vectors, whichever dense step costs less in products, calls and
entries written (a plan chosen once per word and slots, on the wires of
its block), to the touched wires only.

Each block starts on a factor ρ = L L† of its actors' priors, the
Kronecker product of their roots (``Actor.root``), each scaled by a power
of two that the block's exponent keeps, and applies each gate
to L's row index: L ↦ [A_1 L | … | A_m L], compressed before the block's
next gate to the directions that carry more than roundoff of the weight
of some row of L, however small that row is (``_compress``). The first
time the dense step costs less than the factor's, counted in the same
units (``Plan.dense_cost``, ``_factor_cost``), the block builds its
joint once and applies the rest of its gates to it, held in the frame
(an order of its tensor's axes) that its last gate left it in, and put
back in actor order only where it leaves the evaluator (``Block``). The
Kraus and thin routes apply each operator on the row index only: ρ is
Hermitian, so A ρ A† = A (A ρ)†.
Both forms bound each entry's roundoff from diag ρ alone: the dense step
cheaply from its result's trace and its input's (``_apply_gate``), the
factor's from the largest diagonal entries, then each exactly for a
result within 1/ATOL of that; a result within 1/ATOL of the exact bound
keeps only the eigen-directions above D times it, D the block's
dimension, so an annihilated state is exactly 0.
In both modes a block is rescaled by the power of four that brings its
trace into [1/2, 2), which is exact, after each factor step, where a dense
trace leaves [2^-WINDOW, 2) and where it leaves the evaluator (``Block``).
The block keeps the exponent, as it keeps the power of two by which each
plan scales the parts of its operators' entries below 1 (``Plan.shift``):
no product of a gate can overflow, and the joint trace, the likelihood, is
ldexp(∏ block traces, Σ exponents), which alone can pass the float range;
that raises NumericalFailureError naming the sentence. Renormalizing
divides each block by its trace where it is read. Every state the
evaluator makes is Σ K ρ K† of a validated state, so none is
re-validated, and is Hermitian up to roundoff, so none is hermitized:
the states that leave the evaluator through ``reduced_state`` are
validated, and their Hermitian part is taken there.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from . import linalg
from .ddm import DoubleDensityMatrix, canonical_vectors, ddm_kraus, fuzz_parts, phaser_parts
from .density import (
    DensityMatrix,
    Projector,
    PureState,
    from_pure,
    nonzero_trace,
    renormalize,  # not called here: bench/worker.py wraps it under this name
)
from .errors import (
    DimensionOverflowError,
    LexiconError,
    NumericalFailureError,
    ParseError,
    SpaceMismatchError,
    UnknownActorError,
    UnknownWordError,
)

MECHANISMS = ("projector", "fuzz", "phaser", "ddm")

#: Which gate mechanisms each lexicon operand kind supports.
KIND_MECHANISMS = {
    "pure": ("projector", "fuzz", "phaser"),
    "density": ("fuzz", "phaser"),
    "ddm": ("ddm",),
}


@dataclass(frozen=True)
class Introduce:
    actor: str


@dataclass(frozen=True)
class IsA:
    actor: str
    noun: str


@dataclass(frozen=True)
class Turns:
    actor: str
    noun: str


@dataclass(frozen=True)
class Transitive:
    subject: str
    verb: str
    object: str


Sentence = Union[Introduce, IsA, Turns, Transitive]


def _parse_sentence(tokens: tuple[str, ...]) -> Sentence | None:
    if len(tokens) == 4 and tokens[:3] == ("Once", "there", "was"):
        return Introduce(tokens[3])
    if len(tokens) == 4 and tokens[1] == "is" and tokens[2] in ("a", "an"):
        return IsA(tokens[0], tokens[3])
    if len(tokens) == 3 and tokens[1] == "is":
        return IsA(tokens[0], tokens[2])
    if len(tokens) == 3 and tokens[1] == "turns":
        return Turns(tokens[0], tokens[2])
    if len(tokens) == 3:
        return Transitive(tokens[0], tokens[1], tokens[2])
    return None


def parse(text: str) -> list[Sentence]:
    """Split on '.', match each sentence against the four patterns.

    Patterns: "Once there was X", "X is (a|an) N", "X turns N", "X V Y".
    Whitespace-only segments are skipped; a trailing fragment without a
    terminating '.' is an error. Each distinct token sequence is matched
    once, and its occurrences share one ``Sentence``; an error names the
    line of the first occurrence.
    """
    *segments, tail = text.split(".")
    sentences, made, shapes = [], {}, {}  # made: by segment, shapes: by tokens
    pos = 0  # where the segment starts in text
    for segment in segments:
        sentence = made.get(segment)
        if sentence is None:
            tokens = tuple(segment.split())
            sentence = shapes.get(tokens) or _parse_sentence(tokens)
            if sentence is None and tokens:
                raise ParseError(
                    _line(text, pos, segment), f"unrecognized sentence shape: {' '.join(tokens)!r}"
                )
            made[segment] = shapes[tokens] = sentence
        if sentence:
            sentences.append(sentence)
        pos += len(segment) + 1
    if tail.strip():
        raise ParseError(_line(text, pos, tail), "sentence not terminated by '.'")
    return sentences


def _line(text: str, pos: int, segment: str) -> int:
    """The line of ``segment``'s first token, ``segment`` at ``pos`` in ``text``."""
    return text.count("\n", 0, pos + len(segment) - len(segment.lstrip())) + 1


@dataclass(frozen=True, eq=False)
class LexiconEntry:
    """One word: an operand on a declared space plus a default mechanism.

    Nouns name one space; transitive verbs name two (subject, object)
    and their operand lives on the product space.
    """

    name: str
    space: tuple[str, ...]
    kind: str
    mechanism: str
    operand: object

    def __init__(self, name: str, space, kind: str, mechanism: str, operand):
        if not name:
            raise LexiconError("entry name must be non-empty")
        spaces = (space,) if isinstance(space, str) else tuple(space)
        if not 1 <= len(spaces) <= 2 or not all(isinstance(s, str) and s for s in spaces):
            raise LexiconError(f"entry {name!r}: space must be one or two labels")
        if kind not in KIND_MECHANISMS:
            raise LexiconError(f"entry {name!r}: unknown kind {kind!r}")
        if mechanism not in KIND_MECHANISMS[kind]:
            raise LexiconError(
                f"entry {name!r}: mechanism {mechanism!r} not usable "
                f"with a {kind} operand"
            )
        expected = {
            "pure": PureState,
            "density": DensityMatrix,
            "ddm": DoubleDensityMatrix,
        }[kind]
        if not isinstance(operand, expected):
            raise LexiconError(
                f"entry {name!r}: kind {kind!r} needs a {expected.__name__} operand"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "space", spaces)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "mechanism", mechanism)
        object.__setattr__(self, "operand", operand)

    @property
    def dim(self) -> int:
        return self.operand.dim


@dataclass(frozen=True, eq=False)
class Lexicon:
    """Named spaces with dimensions, plus word entries living on them."""

    spaces: dict[str, int]
    entries: dict[str, LexiconEntry]

    def __init__(self, spaces: Mapping[str, int], entries: Iterable[LexiconEntry]):
        space_map = {}
        for label, dim in spaces.items():
            dim = int(dim)
            if not label or dim < 1:
                raise LexiconError(f"space {label!r} needs a positive dimension")
            space_map[label] = dim
        entry_map = {}
        for entry in entries:
            if entry.name in entry_map:
                raise LexiconError(f"duplicate entry {entry.name!r}")
            expected = 1
            for label in entry.space:
                if label not in space_map:
                    raise LexiconError(
                        f"entry {entry.name!r} references undeclared space {label!r}"
                    )
                expected *= space_map[label]
            if entry.dim != expected:
                raise LexiconError(
                    f"entry {entry.name!r} has dimension {entry.dim}, "
                    f"space product is {expected}"
                )
            entry_map[entry.name] = entry
        object.__setattr__(self, "spaces", space_map)
        object.__setattr__(self, "entries", entry_map)

    def entry(self, name: str) -> LexiconEntry:
        if name not in self.entries:
            raise UnknownWordError(name)
        return self.entries[name]

    def space_dim(self, label: str) -> int:
        if label not in self.spaces:
            raise LexiconError(f"undeclared space {label!r}")
        return self.spaces[label]


@dataclass(frozen=True, eq=False)
class Actor:
    """One wire. ``root`` factors the prior, prior = root root†: a ket
    prior's amplitudes, I/√d for the default prior, else V·√λ over the
    prior's positive eigenvalues, less the directions that carry only
    roundoff of every row's weight (``_compress`` with S² = diag prior):
    a rank-1 prior given as a matrix has one column. V and λ come from the
    prior scaled by a power of four, so that λ is finite."""

    name: str
    space: str
    dim: int
    prior: DensityMatrix
    root: np.ndarray


@dataclass(frozen=True, eq=False)
class Plan:
    """How one word's update is applied on one slot tuple of one circuit,
    on a block of wires ``dims``.

    A dense state is held in a frame: an order of the axes of its tensor,
    the wires' row indices then their column indices, or None for that
    order itself (``Block``). The Kraus and thin routes read the row index
    of their frame ``axes`` as (a, d, ·) and the column index as (·, d,
    b), d the gate's dimension: ``axes`` is None when the slots are
    adjacent, else it brings the wires to lead the rows and trail the
    columns (a = b = 1). ``steps`` are the route's row operators, in
    ascending wire order: each K, or W† and W, and ``adjoints`` theirs,
    formed once here. Each step applies its operator on the row side and
    its adjoint on the column side (``_sandwich``). The Kraus route sums
    one step per K, the thin route chains two steps through ``mask`` (see
    ``_apply_gate``); ``groups`` are the columns of each factor of W.

    The doubled and factored routes apply ``doubled``, products on the
    wires' (row, column) index pair, in the ``paired`` frame, where each
    wire's row index sits next to its column index, the wires in
    ascending order, or the gate's wires first where they are not
    adjacent: that pair is read as (lead, d², trail) (``around``), so all
    single-wire steps of a block share one frame. The doubled route's one
    product is Φ = Σ_k K_k ⊗ K̄_k (d² × d²), and it keeps the Kraus steps
    for the factor. The factored route's two are V† and V, Φ = V·V†, V (d²
    × s, s = Σ_k r_k²) holding the same-factor products w_p ⊗ w̄_q of the
    thin route's W, whose steps it keeps for the factor; V is offered only
    on a gate that covers its block, where it holds no more entries than
    the block's gates write in the circuit, the word's Kraus operators and
    400 (``_route_costs``). ``frame`` is where the route's dense step reads
    and leaves the state, ``diagonal`` where S_ii lies in it, i in actor
    order, ``selector`` 1 there and 0 elsewhere, or None (``_selector``),
    ``kernel`` the route's dense step, fixed here, and ``products`` the
    doubled and factored routes' products with the side and shape each
    reads the state in (``_products``).

    The steps are the operators times 2^-e, e the binade of their entries
    (``_binade``), so that each entry is below √2 and no product with a
    state of trace below 2 can overflow; ``shift`` is what that takes off
    the result's exponent, 2e on the Kraus and doubled routes and 4e on
    the thin and factored ones, which each step adds back to its block's
    (``_trajectory``); the walk keeps each block's trace below 2
    (``Block``).
    ``roundoff`` stacks the route's entrywise bounds G_k, times √(L·eps)
    for sums of L products, so that Σ_k max(G_k √diag ρ)² bounds the
    roundoff of each entry of the result (``_noise``); G ≥ 0 and no root
    exceeds √max|ρ_ii|, so the cheap bound ``gain``·max|ρ_ii| bounds that,
    ``gain`` = Σ_k (max row sum of G_k)² (``clears``).

    On the doubled route L = d² + m, for m operators: each entry of Φ
    sums m products, and each result entry (i, j) sums d² products of Φ
    with ρ's entries (a, b) on the wires, the other wires' indices held.
    Both sums round by at most L·eps of the sum of their terms' moduli,
    so the result entry moves by at most L·eps·Σ_k Σ_ab |K_k|_ia |K_k|_jb
    |ρ_ab|, and |ρ_ab| ≤ √(ρ_aa ρ_bb) gives L·eps·Σ_k (|K_k| √diag ρ)_i
    (|K_k| √diag ρ)_j ≤ Σ_k max(G_k √diag ρ)² with G_k = |K_k|·√(L·eps),
    the Kraus route's bound with d² + m for d: ``_noise``, ``gain``,
    ``clears`` and the cut hold for it unchanged.

    On the factored route L = d² + s: y = V†ρ sums, for each same-factor
    pair (p, q), d² products w̄_p[a] w_q[b] ρ_ab, and the result entry
    (i, j) sums s products w_p[i] w̄_q[j] y_pq. The first sum rounds y_pq
    by at most d²·eps·Σ_ab |w_p[a]||w_q[b]||ρ_ab|, which the second
    carries with weight |w_p[i]||w_q[j]|, and the second rounds by at most
    s·eps of its terms' moduli, each below that same weight times Σ_ab
    |w_p[a]||w_q[b]||ρ_ab|. So the entry moves by at most L·eps·Σ_k
    Σ_{p,q∈k} Σ_ab |w_p[i]||w_p[a]| |w_q[j]||w_q[b]| |ρ_ab|, and |ρ_ab| ≤
    √(ρ_aa ρ_bb) gives L·eps·Σ_k (|W_k||W_k|ᵀ √diag ρ)_i (|W_k||W_k|ᵀ
    √diag ρ)_j ≤ Σ_k max(G_k √diag ρ)² with G_k = |W_k||W_k|ᵀ·√(L·eps),
    the thin route's bound with d² + s for d + r.

    ``dense_cost`` is the whole dense step of the route (``_route_costs``),
    the cheapest of those offered. A factor ρ = L L† takes the row side only
    (``_factor_step``) and makes ``fan`` column blocks; its step's cost
    comes from these same fields (``_factor_cost``).
    """

    axes: tuple[int, ...] | None
    a: int
    b: int
    paired: tuple[int, ...] | None
    around: tuple[int, int]
    dims: tuple[int, ...]
    route: str
    steps: tuple[np.ndarray, ...]
    adjoints: tuple[np.ndarray, ...]
    shift: int
    mask: np.ndarray | None
    groups: tuple[slice, ...] | None
    doubled: tuple[np.ndarray, ...]
    roundoff: np.ndarray
    gain: float
    dense_cost: float
    frame: tuple[int, ...] | None = field(init=False)
    diagonal: np.ndarray = field(init=False)
    selector: np.ndarray | None = field(init=False)
    kernel: Callable[[np.ndarray, "Plan"], np.ndarray] = field(init=False)
    products: tuple[tuple[np.ndarray, int, tuple[int, ...]], ...] = field(init=False)

    def __post_init__(self):
        frame = self.paired if self.doubled else self.axes
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "diagonal", _diagonal_at(frame, self.dims))
        object.__setattr__(self, "selector", _selector(frame, self.dims))
        if self.doubled:
            kernel = _paired
        else:
            kernel = _kraus if self.mask is None else _thin
        object.__setattr__(self, "kernel", kernel if self.steps else _zeros)
        object.__setattr__(self, "products", _products(self.doubled, *self.around))

    @property
    def thin(self) -> bool:
        return self.mask is not None

    @property
    def fan(self) -> int:
        """The column blocks a factor step makes: one per K, or per factor of W."""
        return len(self.steps if self.groups is None else self.groups)

    def clears(self, peak, top) -> bool:
        """Whether a result of largest diagonal entry ``peak`` lies 1/ATOL or
        more above 2·gain·``top``, ``top`` its input's, 2 for the sums'
        rounding: then no exact bound (``_noise``) reaches it. It holds for
        any ``peak`` below the result's and any ``top`` above the input's."""
        return peak * linalg.ATOL >= 2.0 * self.gain * top


@dataclass(frozen=True, eq=False)
class Gate:
    """One update ρ ↦ Σ K ρ K†, with the Kraus operators K on the slots.

    ``kraus`` is in sentence order; ``plan`` is shared by every gate of the
    circuit with the same word on the same slots, the gate by its ``label``;
    ``block`` is the index of the interaction component of its slots
    (``Circuit.components``).
    """

    slots: tuple[int, ...]
    mechanism: str
    operand: object
    label: str
    kraus: tuple[np.ndarray, ...]
    plan: Plan
    block: int = 0


@dataclass(frozen=True, eq=False)
class Circuit:
    """Actors, gates in sentence order, and the interaction components:
    each a tuple of actor indices in actor order, the wires that gates
    join directly or through other wires, ordered by their first actor.
    Each gate's plan is built on its component's wires (``Plan``)."""

    actors: tuple[Actor, ...]
    gates: tuple[Gate, ...]
    components: tuple[tuple[int, ...], ...]

    @property
    def joint_dim(self) -> int:
        return math.prod(a.dim for a in self.actors)


def _gate_parts(entry: LexiconEntry, mechanism: str):
    """The operand a gate carries, its Kraus operators on its own slots,
    and its canonical vectors (W, the factor of each column) or None.

    A_k = W_k W_k†: projector W = [v], fuzz and phaser W those of
    ``ddm_from_fuzz`` and ``ddm_from_phaser`` (``fuzz_parts``,
    ``phaser_parts``, one decomposition each), ddm the lexicon's own ω.
    """
    if mechanism not in KIND_MECHANISMS[entry.kind]:
        raise LexiconError(
            f"mechanism {mechanism!r} not usable with {entry.kind} "
            f"entry {entry.name!r}"
        )
    if mechanism == "projector":
        v = entry.operand.normalized().amplitudes
        p = Projector(np.outer(v, v.conj()))  # Projector.onto_pure, normalized once
        return p, (p.matrix,), (v[:, None], np.zeros(1, dtype=int))
    if mechanism == "ddm":
        try:
            kraus = tuple(ddm_kraus(entry.operand))
        except NumericalFailureError as exc:
            raise NumericalFailureError(f"entry {entry.name!r}: {exc}") from None
        return entry.operand, kraus, canonical_vectors(entry.operand)
    sigma = _ket_state(entry) if entry.kind == "pure" else entry.operand
    return sigma, *(phaser_parts if mechanism == "phaser" else fuzz_parts)(sigma)


_EPS = np.finfo(np.float64).eps


def _ket_state(entry: LexiconEntry) -> DensityMatrix:
    """|ψ⟩⟨ψ| of a pure entry, or NumericalFailureError naming it where ‖ψ‖²
    leaves the normal float range: only a ket's direction is scale-free."""
    norm = entry.operand.norm()
    if not np.finfo(np.float64).tiny <= norm * norm < math.inf:
        raise NumericalFailureError(
            f"entry {entry.name!r}: ket of norm {norm:.3g} squares past the float range"
        )
    return from_pure(entry.operand)


def _binade(m: np.ndarray) -> int:
    """The e with the largest real or imaginary part of m's entries in
    [1/2, 1) at m·2^-e, or 0 for m = 0: each entry of m·2^-e is then below
    √2 in modulus. The parts are read apart, so that no modulus overflows."""
    return math.frexp(linalg.max_abs(np.ascontiguousarray(m).view(np.float64)))[1]


#: What one BLAS call costs, in complex multiply-adds, the unit of every
#: cost: it charges each product call of a dense or factor step. On a
#: 2-vCPU host (numpy 2.4.6, OpenBLAS 0.3.31) one product in a stack of
#: small ones (4×4 by 4×4, np.matmul) took 0.58 µs, 2,000 multiply-adds
#: at the rate of one large product (3.5e9/s), and small products run
#: below that rate. Over every route and column form of 118 (word,
#: slots, D) cases of two seeds of the bench lexicons, D = 64, 256 and
#: 1024, the plans that 4,000 picked took 1.3% and 3.3% longer than the
#: fastest in the geometric mean (2.5% at 2,000), with the column side
#: then chosen between a batched form and the 2-D product that
#: ``_sandwich`` keeps.
CALL_COST = 4000

#: What writing or copying one entry of an array costs, in the same
#: units: 10.8 per fresh entry and 8.1 per permuted one at D = 1024 on
#: that host (3.1-3.3 and 7.0-9.6 at D ≤ 256). It charges every half
#: result, result, permuting and transposing copy of a step, and the
#: factor's stacked blocks and scaled rows. Without it per-gate probes
#: (every mechanism and slot shape of two bench lexicons, D = 64, 256 and
#: 1024, L of 1-64 columns) lost 21 and 46 ms to dense steps that took
#: longer than the factor's; at 1, every joint-1024 gate goes dense.
PASS_COST = 10

#: What a factor's compression costs beyond its products, in the same
#: units: the eigh call on its n × n Gram (counted as n³ multiply-adds;
#: 5.5 µs at n = 1 and 49 µs at n = 16 on that host) and the rest of the
#: factor step's numpy calls. It decides the picks at D ≤ 16: at 4,000,
#: 258-265 of about 800 small-texts gates and 10-25 long-text gates per
#: seed move to the factor. The same probes lost 0.8-1.0 ms to wrong
#: picks at 400,000, of 123 and 181 ms for the fastest pick of every
#: case, against 2.1-2.4 ms at 200,000.
EIGH_CALL = 400_000


def _ascending(m: np.ndarray, sizes: list[int], order: list[int]) -> np.ndarray:
    """m's rows, indexed by the slots in sentence order, in ascending wire order."""
    if order == sorted(order):
        return m
    return m.reshape(*sizes, -1).transpose(*order, len(sizes)).reshape(m.shape)


@cache
def _frame(slots: tuple[int, ...], dims: tuple[int, ...]) -> tuple:
    """Plan's first fields: (axes, a, b), None and the wires' neighbours
    when the slots are adjacent, else the permutation to the frame and a =
    b = 1; the paired frame and (lead, trail) around the wires' (row,
    column) index pair in it; and the block's ``dims``."""
    wires, n = sorted(slots), len(dims)
    rest = [w for w in range(n) if w not in wires]
    adjacent = wires == list(range(wires[0], wires[-1] + 1))
    order = list(range(n)) if adjacent else wires + rest
    paired = tuple(axis for w in order for axis in (w, n + w)) if n > 1 else None
    lead = math.prod(dims[w] ** 2 for w in order[: order.index(wires[0])])
    trail = math.prod(dims[w] ** 2 for w in order[order.index(wires[-1]) + 1 :])
    if adjacent:
        frame = None, math.prod(dims[: wires[0]]), math.prod(dims[wires[-1] + 1 :])
    else:
        frame = tuple(wires + rest + [n + w for w in rest + wires]), 1, 1
    return *frame, paired, (lead, trail), tuple(dims)


@cache
def _diagonal_at(frame: tuple[int, ...] | None, dims: tuple[int, ...]) -> np.ndarray:
    """Where each S_ii lies, i in actor order, in a state held in ``frame``:
    Σ_w i_w times the strides of wire w's row and column axes there, from
    arrays of D entries, not D²."""
    n, shape = len(dims), dims * 2
    strides, step = [0] * 2 * n, 1
    for axis in reversed(frame or range(2 * n)):
        strides[axis], step = step, step * shape[axis]
    index = np.indices(dims).reshape(n, -1)
    return sum(index[w] * (strides[w] + strides[n + w]) for w in range(n))


@cache
def _selector(frame: tuple[int, ...] | None, dims: tuple[int, ...]) -> np.ndarray | None:
    """1 at each S_ii in ``frame`` (``_diagonal_at``), else 0: the trace in one
    product, or None where its D² multiply-adds cost more than two calls."""
    size = math.prod(dims)
    if size * size > 2 * CALL_COST:
        return None
    selector = np.zeros(size * size, dtype=np.complex128)
    selector[_diagonal_at(frame, dims)] = 1.0
    selector.setflags(write=False)
    return selector


@cache
def _move(src: tuple[int, ...] | None, dst: tuple[int, ...] | None, dims: tuple[int, ...]):
    """The shape of a state held in frame ``src`` and the axes that read it in ``dst``."""
    identity = tuple(range(2 * len(dims)))
    src, dst = src or identity, dst or identity
    inverse = _inverse(src)
    return tuple((dims * 2)[axis] for axis in src), tuple(inverse[axis] for axis in dst)


def _reframed(x: np.ndarray, src, dst, dims) -> np.ndarray:
    """x, held in frame ``src``, held in frame ``dst``: x itself if they are
    one, else one permuting copy."""
    if src == dst:
        return x
    shape, axes = _move(src, dst, tuple(dims))
    return np.ascontiguousarray(x.reshape(shape).transpose(axes)).reshape(x.shape)


def _step_cost(q_out: int, q_in: int, rows: int, cols: int, a: int, b: int):
    """The cost of a step mapping q_in to q_out on each side of a rows × cols
    operand, and its result's shape: the row side writes the half result,
    the column side the result, by one 2-D product where b = 1, else by a
    transposing copy of the half result and the row side again (``_sandwich``)."""
    cost = q_out * rows * cols + CALL_COST * a
    rows = rows * q_out // q_in
    half, cols = rows * cols, cols * q_out // q_in
    cost += half * q_out + PASS_COST * (half + rows * cols)
    cost += CALL_COST if b == 1 else PASS_COST * half + CALL_COST * a
    return cost, rows, cols


def _route_costs(frame, d: int, size: int, m: int, ranks, gates: int = 1) -> dict[str, float]:
    """The dense step of each route on a size × size joint in ``frame``
    (``_frame``), whole: "kraus" with m operators, "thin" with canonical
    vectors of ``ranks`` per factor (absent when ranks is None), "doubled",
    one d² × d² product, and "factored", V† and V of s = Σ r_k² columns; in
    complex multiply-adds, CALL_COST per BLAS call and PASS_COST per entry
    written or copied. The Kraus and thin routes pay the joint's permuting
    copy there and back where the wires are not adjacent, and the doubled
    route where they are not its whole block (the factored route's always
    are). Ties go to the first. The doubled route is offered only where
    writing Φ's d⁴ entries costs no more than one pass over the joint and
    one call, so that no word's Φ holds more than the joint's entries and
    CALL_COST / PASS_COST (400) more. The factored one is offered only on a
    gate whose wires are its whole block, where V†'s product reads the
    state as one vector, and where writing V's d²·s entries, once per
    plan, costs no more than the results of the ``gates`` that its block
    runs in the circuit (D² each), a pass over its m Kraus operators and
    one call: V holds at most gates·D² + m·d² + 400 entries, what a kept
    trajectory of the block holds, and the word's operators. (The cost
    picks V at D ≥ 256 only where each factor has rank 1, so that V holds
    no more than the Kraus operators there.)"""
    axes, a, b, *_ = frame
    entries = size * size
    moved = 0 if axes is None else 2 * PASS_COST * entries
    cost, _, _ = _step_cost(d, d, size, size, a, b)
    if m:  # each step, each summed into the first one's result in place
        costs = {"kraus": moved + m * cost + (m - 1) * (CALL_COST + entries)}
    else:  # the zeros
        costs = {"kraus": moved + PASS_COST * entries}
    if ranks is not None:
        compress, rows, cols = _step_cost(sum(ranks), d, size, size, a, b)
        expand, _, _ = _step_cost(d, sum(ranks), rows, cols, a, b)
        costs["thin"] = moved + compress + expand + CALL_COST + rows * cols
    if PASS_COST * d**4 <= PASS_COST * entries + CALL_COST:
        moved = 0 if d == size else 2 * PASS_COST * entries
        costs["doubled"] = moved + d * d * entries + CALL_COST + PASS_COST * entries
    if ranks is not None and d == size:
        s = sum(r * r for r in ranks)
        if PASS_COST * d * d * s <= PASS_COST * (gates * entries + m * d * d) + CALL_COST:
            costs["factored"] = 2 * s * entries + 2 * CALL_COST + PASS_COST * (s + entries)
    return costs


def _ranks(vectors) -> tuple[int, ...] | None:
    """The number of canonical vectors of each factor (``vectors`` as
    ``_gate_parts`` gives them), or None for a gate without them."""
    return None if vectors is None else tuple(Counter(vectors[1].tolist()).values())


def _route(kraus, vectors, sizes: list[int], order: list[int], route: str) -> tuple:
    """The ``route`` named by ``_route_costs``: "kraus", "doubled", or
    "thin" and "factored" by ``vectors`` (W, the factor of each column),
    A_k = W_k W_k†, on wires of ``sizes`` in slot order that ``order``
    sorts: ``Plan``'s route, steps and their adjoints, shift, mask, groups,
    products on the index pair, roundoff bounds and gain, in ascending wire
    order, shared by every slot tuple of the circuit with the same order.
    The steps are scaled by 2^-e, e the binade of their entries
    (``_binade``), which is exact. The doubled route keeps the Kraus steps
    and forms Φ from them, the factored one keeps the thin steps and forms
    V from W, each by one product and no temporary larger than itself."""
    d, doubled, ascending = math.prod(sizes), (), [sizes[i] for i in order]
    if route in ("kraus", "doubled"):
        n, stacked = len(sizes), np.array(kraus, dtype=np.complex128).reshape(-1, d, d)
        if order != sorted(order):  # each K's rows and columns in ascending wire order
            axes = [0, *(1 + i for i in order), *(1 + n + i for i in order)]
            stacked = stacked.reshape(-1, *sizes, *sizes).transpose(axes).reshape(-1, d, d)
        e = _binade(stacked)
        stacked = _ldexp(np.ascontiguousarray(stacked), -e)
        steps, adjoints = tuple(stacked), tuple(k.T for k in stacked.conj())
        terms = d  # per result entry: d products, or Φ's m and then d² of Φ's
        if route == "doubled":  # Φ[(i, j), (a, b)] = Σ_k S_k[i, a] S̄_k[j, b]
            terms = d * d + len(steps)
            pairs = stacked.reshape(-1, d * d).T  # column k: S_k's (i, a) entries
            # its axes are i, a, j and b, one per wire each; (i, j) and (a, b) in paired order
            axes = [k * n + w for pair in ((0, 2), (1, 3)) for w in range(n) for k in pair]
            phi = (pairs @ pairs.conj().T).reshape(ascending * 4).transpose(axes)
            doubled = (np.ascontiguousarray(phi).reshape(d * d, d * d),)
        bounds, mask, groups, shift = np.abs(stacked) * math.sqrt(terms * _EPS), None, None, 2 * e
    else:
        w, owner = vectors
        e, r = _binade(w), w.shape[1]
        w, shift = _ldexp(np.ascontiguousarray(_ascending(w, sizes, order)), -e), 4 * e
        # each factor's first column; owner ascends (``canonical_vectors``)
        owners = owner.tolist()
        starts = [i for i in range(r) if i == 0 or owners[i] != owners[i - 1]] + [r]
        same = owner[:, None] == owner[None, :]
        terms = d + r  # per result entry: d products, then r; or d², then s
        if route == "factored":  # V[(i, j), (p, q)] = w_p[i] w̄_q[j], p and q of one factor
            p, q = np.nonzero(same)
            # (i, j) in the paired frame's order (i₀, j₀, i₁, j₁, …), by broadcasting
            left = [k for n in ascending for k in (n, 1)]
            right = [k for n in ascending for k in (1, n)]
            v = w[:, p].reshape(*left, -1) * w.conj()[:, q].reshape(*right, -1)
            v = v.reshape(d * d, p.size)
            doubled, terms = (v.conj().T.copy(), v), d * d + p.size
        # |W_k||W_k|ᵀ, not |A_k|: the routes sum W_k's products term by term.
        # (The factors are read at the starts: np.unique's first call imports numpy.ma.)
        magnitudes = np.abs(w)
        factor = owner == owner[starts[:-1]][:, None, None]
        bounds = (magnitudes * factor) @ magnitudes.T * math.sqrt(terms * _EPS)
        groups = tuple(slice(i, j) for i, j in zip(starts, starts[1:]))  # contiguous
        steps, mask = (w.conj().T, w), same.astype(np.float64).reshape(r, 1, r, 1)
        adjoints = tuple(step.conj().T for step in steps)
    gain = float(np.square(bounds.sum(axis=2).max(axis=1, initial=0.0)).sum())
    return route, steps, adjoints, shift, mask, groups, doubled, bounds, gain


@cache
def _inverse(axes: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation that undoes ``axes``; np.argsort per gate costs
    several µs at the sizes of small blocks."""
    return tuple(int(i) for i in np.argsort(axes))


def _order(slots) -> list[int]:
    return sorted(range(len(slots)), key=slots.__getitem__)


def _components(n: int, slot_sets) -> tuple[tuple[int, ...], ...]:
    """The interaction components of wires 0..n-1 that ``slot_sets`` join,
    each in ascending wire order, ordered by their first wire."""
    root = list(range(n))  # each set's root is its least wire

    def find(w: int) -> int:
        while root[w] != w:
            root[w] = root[root[w]]  # path halving
            w = root[w]
        return w

    for slots in slot_sets:
        if len(slots) == 2:
            a, b = find(slots[0]), find(slots[1])
            root[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for w in range(n):
        groups.setdefault(find(w), []).append(w)
    return tuple(map(tuple, groups.values()))


class _ActorTable:
    def __init__(self):
        self.order: list[str] = []
        self.space: dict[str, str | None] = {}

    def touch(self, name: str, space: str | None = None):
        if name not in self.space:
            self.order.append(name)
            self.space[name] = None
        if space is not None:
            known = self.space[name]
            if known is None:
                self.space[name] = space
            elif known != space:
                raise SpaceMismatchError(name, known, space)


def compile_sentences(
    sentences: Sequence[Sentence],
    lexicon: Lexicon,
    mechanism: str | None = None,
) -> Circuit:
    """Turn parsed sentences into a circuit, in text order.

    Actors appear at first mention; their space comes from their own
    lexicon entry if present, otherwise from the first gate touching
    them. ``mechanism`` overrides every gate's default where the
    operand kind allows it. Priors default to the maximally mixed
    state unless the lexicon carries an entry for the actor. Each
    distinct sentence is compiled once, at its first occurrence, which
    is where any error it raises is raised; its occurrences share one
    ``Gate``. Occurrences are told apart by identity first (``parse``
    shares one object among them), then by equality among the distinct
    objects, so that equal sentences made apart share their Gate too.
    """
    if mechanism is not None and mechanism not in MECHANISMS:
        raise LexiconError(f"unknown mechanism {mechanism!r}")
    table = _ActorTable()
    pending = {}  # each distinct gate sentence: its actors, entry, label and index
    objects = {id(s): s for s in sentences}  # each object once, in first-occurrence order
    distinct = {}  # equal objects once: each one's place in first-occurrence order
    places = [distinct.setdefault(s, len(distinct)) for s in objects.values()]
    for s, i in distinct.items():
        if isinstance(s, Introduce):
            table.touch(s.actor)
            continue
        if isinstance(s, (IsA, Turns)):
            entry = lexicon.entry(s.noun)
            if len(entry.space) != 1:
                raise LexiconError(f"noun {s.noun!r} must live on a single space")
            table.touch(s.actor, entry.space[0])
            verb = "is" if isinstance(s, IsA) else "turns"
            pending[s] = (s.actor,), entry, f"{s.actor} {verb} {s.noun}", i
            continue
        entry = lexicon.entry(s.verb)
        if len(entry.space) != 2:
            raise LexiconError(f"verb {s.verb!r} must live on a pair of spaces")
        if s.subject == s.object:
            raise LexiconError(
                f"transitive sentence needs two distinct actors, got {s.subject!r}"
            )
        table.touch(s.subject, entry.space[0])
        table.touch(s.object, entry.space[1])
        pending[s] = (s.subject, s.object), entry, f"{s.subject} {s.verb} {s.object}", i

    priors = [lexicon.entries.get(name) for name in table.order]  # each actor's own entry
    for name, entry in zip(table.order, priors):
        if entry is not None:
            if len(entry.space) != 1:
                raise LexiconError(f"actor {name!r} must live on a single space")
            table.touch(name, entry.space[0])
            if entry.kind == "ddm":
                raise LexiconError(f"actor {name!r} prior cannot be a ddm entry")
        if table.space[name] is None:
            raise LexiconError(f"cannot infer a space for actor {name!r}")

    index = {name: i for i, name in enumerate(table.order)}
    spaces = [table.space[name] for name in table.order]
    dims = [lexicon.space_dim(space) for space in spaces]
    gate_slots = [tuple(index[n] for n in names) for names, *_ in pending.values()]
    components = _components(len(dims), gate_slots)
    block, local = {}, {}  # each wire's (block index, dims, size), its place in its block
    for b, wires in enumerate(components):
        block_dims = tuple(dims[w] for w in wires)
        size = math.prod(block_dims)
        if size > linalg.DIM_CAP:
            raise DimensionOverflowError(
                f"interaction component dimension {size} exceeds cap {linalg.DIM_CAP}"
            )
        for i, w in enumerate(wires):
            block[w], local[w] = (b, block_dims, size), i

    actors = []
    for name, space, dim, entry in zip(table.order, spaces, dims, priors):
        if entry is None:
            prior, root = DensityMatrix.maximally_mixed(dim), np.eye(dim) / math.sqrt(dim)
        elif entry.kind == "pure":
            prior, root = _ket_state(entry), entry.operand.amplitudes[:, None]
        else:  # every direction above roundoff of its rows, however small against the largest
            prior, j = entry.operand, _binade(entry.operand.matrix) // 2
            scaled = _ldexp(prior.matrix, -2 * j)
            evals, evecs = np.linalg.eigh(scaled)
            root = evecs[:, evals > 0] * np.sqrt(evals[evals > 0])
            root = _ldexp(_compress(root, np.diagonal(scaled).real), j)
        actors.append(Actor(name=name, space=space, dim=dim, prior=prior, root=root))

    # each sentence's place among the distinct ones, and the gates of each block
    which = list(map(dict(zip(objects, places)).__getitem__, map(id, sentences)))
    occurrences = np.bincount(np.array(which, dtype=np.intp), minlength=len(distinct)).tolist()
    gates_on = [0] * len(components)
    for (*_, i), slots in zip(pending.values(), gate_slots):
        gates_on[block[slots[0]][0]] += occurrences[i]

    parts, priced, routes, plans, made, gate_of = {}, {}, {}, {}, {}, {}  # made: each label's gate
    for (s, (_, entry, label, _)), slots in zip(pending.items(), gate_slots):
        if label in made:
            gate_of[s] = made[label]
            continue
        effective = mechanism if mechanism is not None else entry.mechanism
        if entry.name not in parts:
            operand, kraus, vectors = _gate_parts(entry, effective)
            parts[entry.name] = operand, kraus, vectors, _ranks(vectors)
        operand, kraus, vectors, ranks = parts[entry.name]
        b, block_dims, size = block[slots[0]]
        if (entry.name, slots) not in plans:
            frame = _frame(tuple(local[w] for w in slots), block_dims)
            shape = frame, entry.dim, size, len(kraus), ranks, gates_on[b]
            if shape not in priced:
                priced[shape] = _route_costs(*shape)
            costs = priced[shape]
            route = min(costs, key=costs.get)
            order = _order(slots)
            key = entry.name, tuple(order), route
            if key not in routes:
                routes[key] = _route(kraus, vectors, [dims[w] for w in slots], order, route)
            plans[entry.name, slots] = Plan(*frame, *routes[key], costs[route])
        made[label] = gate_of[s] = Gate(
            slots=slots,
            mechanism=effective,
            operand=operand,
            label=label,
            kraus=kraus,
            plan=plans[entry.name, slots],
            block=b,
        )
    by_index = [gate_of.get(s) for s in distinct]  # an Introduce has no gate
    gates = tuple(filter(None, map(by_index.__getitem__, which)))
    return Circuit(actors=tuple(actors), gates=gates, components=components)


def compile_text(text: str, lexicon: Lexicon, mechanism: str | None = None) -> Circuit:
    return compile_sentences(parse(text), lexicon, mechanism)


#: A dense block is rescaled only where its trace leaves [2^-WINDOW, 2) (``Block``).
WINDOW = 64


@dataclass(frozen=True, eq=False, slots=True)
class Block:
    """The state of one interaction component on its ``wires`` (actor
    indices, in actor order) of ``dims``: ρ = 2^exponent·S, S of ``trace``
    in [1/2, 2) or 0 (``_exponent``), held as a read-only factor L with
    S = L L† (``factor``, D × c), or once the block has gone dense, as S
    itself (``dense``, a read-only D × D array, and ``factor`` None) in the
    ``frame`` that its last gate left it in (``Plan``; None, actor order,
    on the factor): the next gate permutes it only where its plan reads
    another frame, and ``held`` puts it back in actor order where it
    leaves the evaluator. S is Σ K ρ K† of a validated state, so it is
    held bare, not as a DensityMatrix.

    The walk (``_trajectory``) holds blocks as bare values, made Blocks only
    for a reader, a dense S scaled into [1/2, 2) there. It rescales a factor
    at every gate, a dense S only where its trace leaves [2^-WINDOW, 2):
    below 2 no plan's product overflows (``Plan.shift``). A factor is
    yielded as rescaled, so its trace stays below 1/2 where 2^-k stops at
    2^1022 (``_exponent``). S is then 2^-2j times the S of rescaling at
    every gate, 0 ≤ 2j ≤ WINDOW, bit for bit: each product, sum and square
    root (``_noise``) of a gate is that power of two times its own, and
    each test takes the same branch, unless a nonzero one lies
    2^(WINDOW-1022) or further below the block's trace."""

    wires: tuple[int, ...]
    dims: tuple[int, ...]
    factor: np.ndarray | None
    dense: np.ndarray | None
    frame: tuple[int, ...] | None
    trace: float
    exponent: int

    def held(self) -> np.ndarray:
        """S in actor order: L L† on the factor."""
        if self.factor is not None:
            return self.factor @ self.factor.conj().T
        return _reframed(self.dense, self.frame, None, self.dims)


def _likelihood(pairs: Iterable[tuple[float, int]]) -> float:
    """ldexp(∏ traces, Σ exponents) of (trace, exponent) pairs, inf past the
    float range; each trace's binade joins the exponents first, so that no
    product of small traces underflows and no power of two moves a bit."""
    parts = [(*math.frexp(trace), exponent) for trace, exponent in pairs]
    try:
        return math.ldexp(math.prod(m for m, _, _ in parts), sum(e + x for _, e, x in parts))
    except OverflowError:
        return math.inf


def _ldexp(m: np.ndarray, exponent: int) -> np.ndarray:
    """m·2^exponent, new and exact within the normal float range, for a
    contiguous complex m, without forming 2^exponent, which may not be a float."""
    return np.ldexp(m.view(np.float64), exponent).view(np.complex128)


@dataclass(frozen=True, eq=False)
class WorldState:
    """The world over all actors: the tensor product of one ``Block`` per
    interaction component (``Circuit.components``), whose wires it
    permutes into actor order. ρ is the blocks' states times 2^Σ
    exponents, or once ``renormalized``, each block's state over its
    trace. Per-actor views come by partial trace within one block."""

    actor_names: tuple[str, ...]
    dims: tuple[int, ...]
    blocks: tuple[Block, ...]
    renormalized: bool

    @property
    def factor(self) -> np.ndarray | None:
        """The factor L of a world of one block, or None once it is dense."""
        (block,) = self.blocks
        return block.factor

    @property
    def exponent(self) -> int:
        return sum(block.exponent for block in self.blocks)

    @cached_property
    def joint(self) -> DensityMatrix:
        """The joint density matrix over all actors, in actor order, built
        on first access from the Kronecker product of the blocks' states."""
        states = [block.held() for block in self.blocks]
        matrix = states[0] if len(states) == 1 else linalg.kron_all(states)
        if self.renormalized:
            matrix = matrix / math.prod(block.trace for block in self.blocks)
        else:
            matrix = _ldexp(matrix, self.exponent)
        order = [w for block in self.blocks for w in block.wires]
        axes = [int(a) for a in np.argsort(order)]
        tensor = matrix.reshape([self.dims[w] for w in order] * 2)
        tensor = tensor.transpose(axes + [len(order) + a for a in axes])
        return DensityMatrix._unchecked(np.ascontiguousarray(tensor).reshape(matrix.shape))

    @property
    def trace(self) -> float:
        """tr ρ without building ρ: 1 once renormalized, else the likelihood
        ldexp(∏ block traces, Σ exponents), inf past the float range."""
        return 1.0 if self.renormalized else _likelihood((b.trace, b.exponent) for b in self.blocks)

    @property
    def log_trace(self) -> float:
        """ln tr ρ, which neither under- nor overflows: 0 once renormalized,
        −inf once a block is annihilated."""
        if self.renormalized:
            return 0.0
        traces = [block.trace for block in self.blocks]
        if 0.0 in traces:
            return -math.inf
        return sum(map(math.log, traces)) + self.exponent * math.log(2.0)


def _sandwich(x: np.ndarray, row: np.ndarray, adjoint: np.ndarray, plan: Plan) -> np.ndarray:
    """row x row† for a Hermitian x: ``row`` on the gate's wires in x's row
    index, read as (a, d, ·), then its adjoint on them in the column index,
    read as (·, d, b). Where b = 1 that is one 2-D product with ``adjoint``,
    row† from ``Plan.adjoints``; else it is row (row x)†, ``row`` again on
    the half result's conjugate transpose."""
    d = row.shape[1]
    half = _rows(row, x, plan.a)
    del x  # the thin route passes C unnamed, so it is freed here, before the result
    if plan.b == 1:
        return half.reshape(-1, d).dot(adjoint)
    flipped = np.conjugate(half.reshape(plan.a * row.shape[0] * plan.b, -1).T, order="C")
    del half  # so that the half result is gone before the result is made
    return _rows(row, flipped, plan.a)


def _rows(row: np.ndarray, x: np.ndarray, a: int) -> np.ndarray:
    """``row`` on x's row index read as (a, d, ·): by ndarray.dot where
    nothing leads (``_products``), else batched."""
    if a == 1:
        return row.dot(x.reshape(row.shape[1], -1))
    return np.matmul(row, x.reshape(a, row.shape[1], -1))


def _masked(c: np.ndarray, plan: Plan) -> np.ndarray:
    """C = W† ρ W with only its same-factor blocks kept (``Plan.mask``), in place."""
    r = plan.mask.shape[0]
    c = c.reshape(plan.a, r, -1, r, plan.b)
    c *= plan.mask
    return c


def _noise(plan: Plan, roots: np.ndarray) -> float:
    """Σ_k max(G_k √diag ρ)², from √diag ρ in the frame's row order: no
    entry of the gate's result carries more roundoff (``Plan``)."""
    d = plan.roundoff.shape[-1]
    roots = roots.reshape(plan.a, d, -1).swapaxes(0, 1).reshape(d, -1)
    spread = plan.roundoff @ roots
    return np.square(spread.max(axis=(1, 2), initial=0.0)).sum()


def _roundoff(plan: Plan, peak, diag: np.ndarray, dims: Sequence[int]):
    """``_noise`` from ``diag`` ρ of the gate's input if the result, of largest
    diagonal entry ``peak``, lies within 1/ATOL of it, else None: the exact
    bound, for a result that the cheap one does not clear (``Plan.clears``)."""
    roots = np.sqrt(diag)
    if plan.axes is not None:
        roots = roots.reshape(dims).transpose(plan.axes[: len(dims)])
    noise = _noise(plan, roots)
    return noise if peak * linalg.ATOL < noise else None


def _products(doubled, lead: int, trail: int) -> tuple:
    """Each of ``doubled``'s products on the wires' (row, column) index pair,
    read as (lead, d², trail), as (operator, side, the shape x is read in):
    side 1 multiplies from the left where nothing leads, -1 from the right,
    by the operator's transpose, where nothing trails, and 0 is batched over
    the leading index. The first two take ndarray.dot, which gives
    np.matmul's bits at less cost per call on small operands."""
    if lead == 1:
        return tuple((op, 1, (-1,) if trail == 1 else (-1, trail)) for op in doubled)
    if trail == 1:
        return tuple((op.T, -1, (lead, -1)) for op in doubled)
    return tuple((op, 0, (lead, -1, trail)) for op in doubled)


def _paired(x: np.ndarray, plan: Plan) -> np.ndarray:
    """The doubled and factored routes: ``Plan.products``, in turn, on x
    held in the paired frame."""
    for op, side, shape in plan.products:
        x = x.reshape(shape)
        x = op.dot(x) if side > 0 else x.dot(op) if side else np.matmul(op, x)
    return x


def _kraus(x: np.ndarray, plan: Plan) -> np.ndarray:
    """The Kraus route: each step, summed into the first one's result in place."""
    (row, *rows), (adjoint, *adjoints) = plan.steps, plan.adjoints
    out = _sandwich(x, row, adjoint, plan)
    for row, adjoint in zip(rows, adjoints):
        out += _sandwich(x, row, adjoint, plan)
    return out


def _thin(x: np.ndarray, plan: Plan) -> np.ndarray:
    """The thin route: W (C masked) W†, C = W† x W."""
    (wh, w), (wh_adjoint, w_adjoint) = plan.steps, plan.adjoints
    return _sandwich(_masked(_sandwich(x, wh, wh_adjoint, plan), plan), w, w_adjoint, plan)


def _zeros(x: np.ndarray, plan: Plan) -> np.ndarray:
    """No operator: the gate annihilates every state."""
    return np.zeros(x.shape, dtype=np.complex128)


def _apply_gate(x: np.ndarray, frame, gate: Gate, dims: Sequence[int], trace: float):
    """2^-shift·Σ A_k ρ A_k† (``Plan.shift``) on the gate's wires only:
    O(D²·d), not O(D³), for ρ held in ``frame`` (``Block``) of trace
    ``trace``; with the frame it is left in and its trace. For ρ of trace
    below 2 no product overflows.

    ρ is first permuted to the plan's frame (``Plan``), where it is not
    there already. On adjacent wires that is the actor order, its row
    index read as (a, d, b·D), so one batched product applies an operator
    to the wires' row index; ρ is Hermitian, so the column side is the
    adjoint of the row side (``_sandwich``). Other wires are permuted to
    lead the row index and trail the column index. The plan's ``kernel``
    then takes its route. The Kraus route (``_kraus``) applies each K. The
    thin route (``_thin``) applies the gate's canonical vectors, A_k = W_k
    W_k†: C = W† ρ W, then only C's same-factor blocks expanded as W C W†,
    2R + 2R²/d products per D² instead of 2m·d for m operators. The
    doubled route applies Φ = Σ_k K_k ⊗ K̄_k, d² products per entry, and
    the factored one V† and then V, 2s, to the wires' (row, column) index
    pair in the paired frame (``_paired``).
    The result is Hermitian up to roundoff; its Hermitian part is taken
    where states leave the evaluator. Since |ρ_ab| ≤ √(ρ_aa ρ_bb), each
    entry's roundoff is below ``noise`` (``_noise``); a result within
    1/ATOL of it keeps only eigenvalues above D·noise, so what roundoff
    leaves of an annihilated state is exactly 0, in actor order. The
    cheap bound comes first, from the trace alone, read in one product
    with the plan's ``selector`` where it has one: the result's largest
    diagonal entry is at least its trace over D, and the input's at most
    twice ``trace`` (``Plan.clears``). Only where that does not clear are
    both diagonals read, for the same test on their largest entries, and
    then for the exact bound (``_roundoff``).
    """
    plan = gate.plan
    if frame != plan.frame:
        x = _reframed(x, frame, plan.frame, dims)
    out = plan.kernel(x, plan).reshape(x.shape)
    sel = plan.selector
    tr = float((sum(out.take(plan.diagonal).tolist()) if sel is None else np.vdot(sel, out)).real)
    size = x.shape[0]
    if plan.clears(tr / size, 2.0 * trace):
        return out, plan.frame, tr
    before = np.abs(x.take(plan.diagonal))
    peak = float(np.abs(out.take(plan.diagonal)).max())
    noise = None if plan.clears(peak, float(before.max())) else _roundoff(plan, peak, before, dims)
    if noise is None:
        return out, plan.frame, tr
    evals, evecs = np.linalg.eigh(linalg.hermitize(_reframed(out, plan.frame, None, dims)))
    keep = evals > size * noise
    out = (evecs[:, keep] * evals[keep]) @ evecs[:, keep].conj().T
    return out, None, float(np.add.reduce(out.diagonal()).real)


def _weights(factor: np.ndarray) -> np.ndarray:
    """diag(L L†): the squared norm of each row of L."""
    flat = np.ascontiguousarray(factor).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _annihilate(factor: np.ndarray, floor: float) -> np.ndarray:
    """L·V over the eigenvectors V of the Gram L†L whose eigenvalues (ρ's
    nonzero ones) lie above ``floor``: the dense kernel's cut when a result
    is within 1/ATOL of its roundoff bound (``_apply_gate``)."""
    evals, evecs = np.linalg.eigh(factor.conj().T @ factor)
    return factor @ evecs[:, np.searchsorted(evals, floor, side="right") :]


def _compress(factor: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """L·V over the eigenvectors V of the row-scaled Gram L†S⁻²L, S² =
    diag ρ = ``weights`` (a row of weight 0 is 0 and takes no part), whose
    eigenvalues lie above what that Gram resolves: max(D, c)·eps times its
    largest, the roundoff of its length-D dot products and of its eigh.

    Each row of S⁻¹L has norm 1, so the floor does not depend on ρ's
    magnitude: a dropped direction u has |(Lu)_i|² ≤ floor·ρ_ii in every
    row i, so each entry ρ_ij moves by at most that share of √(ρ_ii ρ_jj),
    as roundoff moves the dense joint's entries. What only some rows carry
    is kept, however small against the rest: diag(1, 1e-20) keeps its
    1e-20, diag(1, 1e30) its 1. L keeps at most rank ρ columns.
    """
    if factor.shape[1] == 0:
        return factor
    scale = np.zeros_like(weights)
    np.divide(1.0, np.sqrt(weights), out=scale, where=weights > 0)
    scaled = factor * scale[:, None]
    evals, evecs = np.linalg.eigh(scaled.conj().T @ scaled)
    floor = max(factor.shape) * _EPS * evals[-1]
    return factor @ evecs[:, np.searchsorted(evals, floor, side="right") :]


def _factor_step(factor: np.ndarray, gate: Gate, dims: Sequence[int]):
    """The gate on ρ = L L† as L' = [A_1 L | … | A_m L]: O(D·c·d) per
    operator on L's row index only, through the plan's own operators.

    The Kraus route stacks each K L, the thin route each W_k C_k over
    C = W† L, both times 2^-shift/2 as the plan's steps are (``Plan``), so
    that for L L† of trace below 2 no product overflows. Non-adjacent
    wires permute L's rows (D × c), not ρ. The roundoff check is the dense
    kernel's (``_apply_gate``), with diag ρ the squared row norms of L: a
    result within 1/ATOL of its roundoff bound keeps only the
    eigen-directions above D·noise. Returns L' and its diag ρ, which its
    compression (``_compress``) needs before the next gate, or None when it
    has been cut already.
    """
    plan = gate.plan
    n, size = len(dims), factor.shape[0]
    frame = factor
    if plan.axes is not None:
        frame = np.ascontiguousarray(factor.reshape(*dims, -1).transpose(*plan.axes[:n], n))
    x = frame.reshape(plan.a, plan.roundoff.shape[-1], -1)
    if plan.mask is None:
        blocks = [np.matmul(k, x) for k in plan.steps]
    else:
        wh, w = plan.steps
        c = np.matmul(wh, x)
        blocks = [np.matmul(w[:, s], c[:, s]) for s in plan.groups]
    out = np.stack(blocks, axis=-1) if blocks else np.empty(x.shape + (0,), x.dtype)
    columns = frame.shape[-1] * len(blocks)
    if plan.axes is not None:
        out = out.reshape(*frame.shape[:-1], columns)
        out = out.transpose(*_inverse(plan.axes[:n]), n)
    out = out.reshape(size, columns)
    weights, diag = _weights(out), _weights(factor)
    peak = weights.max()
    noise = None if plan.clears(peak, float(diag.max())) else _roundoff(plan, peak, diag, dims)
    if noise is not None:
        return _annihilate(out, size * noise), None
    return out, weights


def _factor_cost(plan: Plan, size: int, columns: int) -> float:
    """The gate on a size × ``columns`` factor, in the units of the dense
    step (``_route_costs``): the plan's own operators on L's rows (each K,
    or W† and each factor of W), its ``fan`` blocks stacked, L's rows and
    the result's permuted where the frame permutes, then the compression
    the result owes: its rows scaled, its n × n Gram, and that Gram's eigh
    at n³ plus EIGH_CALL."""
    fan = plan.fan
    if plan.thin:
        per_entry, calls = 2 * plan.steps[1].shape[1], 1 + fan
    else:
        per_entry, calls = fan * plan.roundoff.shape[-1], fan
    per_entry += PASS_COST * (fan if plan.axes is None else 1 + 2 * fan)
    owed = columns * fan
    gram = size * owed * (PASS_COST + owed) + owed**3
    return per_entry * size * columns + CALL_COST * plan.a * calls + gram + EIGH_CALL


def _not_finite(label: str | None) -> NumericalFailureError:
    """The error for a joint state that is not finite after the gate of
    ``label``, or at the priors for None; made only to be raised."""
    where = "at the priors" if label is None else f'after "{label}"'
    return NumericalFailureError(f"joint state is not finite {where}")


def _exponent(tr: float) -> int:
    """The even k with tr·2^-k in [1/2, 2), or 0 at tr = 0, but k ≥ -1022
    so that 2^-k is a float: a block is rescaled by 2^-k (``Block``)."""
    return max(math.frexp(tr)[1] & ~1, -1022)


def _rescaled(factor: np.ndarray, owed) -> tuple[float, int]:
    """A new factor L's trace and the k of ``_exponent``, L scaled in place
    by 2^-k/2 and the diag L L† it owes (or None) by 2^-k, which is exact."""
    tr = float(np.vdot(factor, factor).real)
    k = _exponent(tr)
    factor *= math.ldexp(1.0, -k // 2)
    if owed is not None:
        owed *= math.ldexp(1.0, -k)
    return math.ldexp(tr, -k), k


def _trajectory(
    circuit: Circuit, renormalize_each_step: bool, every_step: bool = True
) -> Iterator[tuple[Block, ...]]:
    """The blocks at the priors and after each gate, or only after the last
    where not ``every_step``: one per interaction component, held as bare
    values and made ``Block``s only to be yielded; each gate on its own
    block only, by one arithmetic in both modes and for every reader. A
    factor block compresses what its last step owes (``_compress``) and
    takes the factor step while that costs less than the dense step, else
    goes dense for good: from its scaled priors (exponent ``fresh``) before
    its first gate, else as L L†. A dense block takes ``_apply_gate``.

    Each step is checked where it changed the world: without
    renormalizing, the likelihood ldexp(∏ block traces, Σ exponents) must
    stay finite, and it alone can leave the float range (``Plan``);
    renormalizing divides each block by its own trace (``WorldState``), so
    it raises ZeroTraceError once a block's trace is 0, at the priors or
    after the gate on it, and the likelihood may pass the float range.
    """
    dims = tuple(a.dim for a in circuit.actors)
    # each root by 2^-e and prior by 4^-e, so that their products neither under- nor overflow
    scales = [_binade(a.root) for a in circuit.actors]
    priors = [_ldexp(a.prior.matrix, -2 * e) for a, e in zip(circuit.actors, scales)]
    wires_of = circuit.components
    dims_of = [tuple(dims[w] for w in wires) for wires in wires_of]
    fresh = [2 * sum(scales[w] for w in wires) for wires in wires_of]  # until the first gate
    factors, traces, exponents = [], [], []
    for wires, exponent in zip(wires_of, fresh):
        factor = np.ones((1, 1), dtype=np.complex128)
        for w in wires:
            factor = np.kron(factor, circuit.actors[w].root * math.ldexp(1.0, -scales[w]))
        tr, k = _rescaled(factor, None)
        factors.append(factor)
        traces.append(tr)
        exponents.append(exponent + k)
    n = len(wires_of)
    states, frames, owed = [None] * n, [None] * n, [None] * n  # owed: a factor's diag ρ
    floor = math.ldexp(1.0, -WINDOW)

    def block(b: int) -> Block:  # read-only; a dense S scaled on a new array, a factor as is
        factor, dense = factors[b], states[b]
        k = 0 if factor is not None else _exponent(traces[b])
        if k:
            dense = dense * math.ldexp(1.0, -k)
        (dense if factor is None else factor).setflags(write=False)
        return Block(wires_of[b], dims_of[b], factor, dense, frames[b],
                     math.ldexp(traces[b], -k), exponents[b] + k)

    if renormalize_each_step:
        for tr in traces:
            nonzero_trace(tr)
    elif not math.isfinite(_likelihood(zip(traces, exponents))):
        raise _not_finite(None)
    if every_step:
        blocks = list(map(block, range(n)))
        yield tuple(blocks)
    for gate in circuit.gates:
        b, plan = gate.block, gate.plan
        factor = factors[b]
        if factor is not None:
            if owed[b] is not None:
                factor = _compress(factor, owed[b])
            if _factor_cost(plan, *factor.shape) <= plan.dense_cost:
                factor, owed[b] = _factor_step(factor, gate, dims_of[b])
                traces[b], k = _rescaled(factor, owed[b])
                exponents[b] += plan.shift + k
            elif fresh[b] is None:
                states[b], factor, owed[b] = factor @ factor.conj().T, None, None
            else:
                states[b] = linalg.kron_all(priors[w] for w in wires_of[b])
                states[b] *= math.ldexp(1.0, fresh[b] - exponents[b])
                factor = None
            factors[b], fresh[b] = factor, None
        if factor is None:
            x, frames[b], tr = _apply_gate(states[b], frames[b], gate, dims_of[b], traces[b])
            exponent = exponents[b] + plan.shift
            if not floor <= tr < 2.0:
                k = _exponent(tr)
                x *= math.ldexp(1.0, -k)
                tr, exponent = math.ldexp(tr, -k), exponent + k
            states[b], traces[b], exponents[b] = x, tr, exponent
        if renormalize_each_step:
            nonzero_trace(traces[b])
        elif not math.isfinite(_likelihood(zip(traces, exponents))):
            raise _not_finite(gate.label)
        if every_step:
            blocks[b] = block(b)
            yield tuple(blocks)
    if not every_step:
        yield tuple(map(block, range(n)))


def _world(circuit: Circuit, blocks: tuple[Block, ...], renormalized: bool) -> WorldState:
    names = tuple(a.name for a in circuit.actors)
    return WorldState(names, tuple(a.dim for a in circuit.actors), blocks, renormalized)


def evaluate_trajectory(
    circuit: Circuit, renormalize_each_step: bool = False
) -> list[WorldState]:
    """World state before any gate and after each gate, in order."""
    steps = _trajectory(circuit, renormalize_each_step)
    return [_world(circuit, blocks, renormalize_each_step) for blocks in steps]


def evaluate(circuit: Circuit, renormalize_each_step: bool = False) -> WorldState:
    """Apply every gate in sentence order to the priors (keeping one state)."""
    (blocks,) = _trajectory(circuit, renormalize_each_step, every_step=False)
    return _world(circuit, blocks, renormalize_each_step)


def reduced_state(world: WorldState, actor: str) -> DensityMatrix:
    """One wire of the world: partial trace over every other wire of its
    block (on a factor, X X† with X the factor's entries for that wire
    against all else, O(D·c·d)), read as the world is (``WorldState``):
    over the block's trace once renormalized, else times the other
    blocks' traces and the likelihood's scale."""
    if actor not in world.actor_names:
        raise UnknownActorError(f"no actor named {actor!r}")
    w = world.actor_names.index(actor)
    (block,) = (block for block in world.blocks if w in block.wires)
    local = block.wires.index(w)
    if block.factor is None:
        out = linalg.partial_trace(block.held(), block.dims, [local])
    else:
        x = block.factor.reshape(math.prod(block.dims[:local]), block.dims[local], -1)
        out = np.matmul(x, x.conj().swapaxes(1, 2)).sum(axis=0)
    if world.renormalized:
        out = out / block.trace
    else:
        others = math.prod(other.trace for other in world.blocks if other is not block)
        out = _ldexp(out * others, world.exponent)
    return DensityMatrix(linalg.hermitize(out))
