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
density matrix. Each gate applies either the operators or those
vectors, whichever costs less in products and calls (a plan chosen once
per word and slots, on the wires of its block), to the touched wires
only.

Each block starts on a factor ρ = L L† of its actors' priors, the
Kronecker product of their roots (``Actor.root``), and applies each gate
to L's row index: L ↦ [A_1 L | … | A_m L], compressed before the block's
next gate to the directions that carry more than roundoff of the weight
of some row of L, however small that row is (``_compress``). The first
time the dense step costs less than the factor's (``Plan.dense_cost``),
the block builds its joint once and applies the rest of its gates to it,
on adjacent wires through views of the joint. Both forms apply each
operator on the row index only: ρ is Hermitian, so A ρ A† = A (A ρ)†.
Both bound each entry's roundoff from diag ρ alone, and a result within
1/ATOL of that bound keeps only the eigen-directions above D times it,
D the block's dimension, so an annihilated state is exactly 0. In both
modes each result is rescaled by the power of four that brings its
trace into [1/2, 2), which is exact, and its block keeps the exponent:
the joint trace, the likelihood, is ldexp(∏ block traces, Σ exponents),
and one past the float range raises NumericalFailureError as the dense
joint's overflow would. Renormalizing divides each block by its trace
where it is read. Every state the evaluator makes is Σ K ρ K† of a
validated state, so none is re-validated, and is Hermitian up to
roundoff, so none is hermitized: the states that leave the evaluator
through ``reduced_state`` are validated, and their Hermitian part is
taken there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from . import linalg
from .ddm import (
    DoubleDensityMatrix,
    canonical_vectors,
    ddm_from_fuzz,
    ddm_from_phaser,
    ddm_kraus,
)
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
    ZeroTraceError,
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


def _parse_sentence(tokens: list[str], line: int) -> Sentence:
    if len(tokens) == 4 and tokens[:3] == ["Once", "there", "was"]:
        return Introduce(tokens[3])
    if len(tokens) == 4 and tokens[1] == "is" and tokens[2] in ("a", "an"):
        return IsA(tokens[0], tokens[3])
    if len(tokens) == 3 and tokens[1] == "is":
        return IsA(tokens[0], tokens[2])
    if len(tokens) == 3 and tokens[1] == "turns":
        return Turns(tokens[0], tokens[2])
    if len(tokens) == 3:
        return Transitive(tokens[0], tokens[1], tokens[2])
    raise ParseError(line, f"unrecognized sentence shape: {' '.join(tokens)!r}")


def parse(text: str) -> list[Sentence]:
    """Split on '.', match each sentence against the four patterns.

    Patterns: "Once there was X", "X is (a|an) N", "X turns N", "X V Y".
    Whitespace-only segments are skipped; a trailing fragment without a
    terminating '.' is an error.
    """
    sentences = []
    pos = 0
    line, counted = 1, 0  # the line of text[counted]; lines are counted once
    while pos < len(text):
        stop = text.find(".", pos)
        segment = text[pos:] if stop == -1 else text[pos:stop]
        tokens = segment.split()
        if tokens:
            start = pos + len(segment) - len(segment.lstrip())
            line += text.count("\n", counted, start)
            counted = start
            if stop == -1:
                raise ParseError(line, "sentence not terminated by '.'")
            sentences.append(_parse_sentence(tokens, line))
        if stop == -1:
            break
        pos = stop + 1
    return sentences


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
    a rank-1 prior given as a matrix has one column."""

    name: str
    space: str
    dim: int
    prior: DensityMatrix
    root: np.ndarray


@dataclass(frozen=True, eq=False)
class Plan:
    """How one word's update is applied on one slot tuple of one circuit.

    The kernel reads the row index of the joint (or of its frame) as
    (a, d, ·) and the column index as (·, d, b), d the gate's dimension.
    ``steps`` are the route's row operators, in ascending wire order:
    each K, or W† and W. Each step applies its operator on the row side
    and its adjoint on the column side (``_sandwich``). ``axes`` is None
    when the slots are adjacent, so the joint itself is the frame;
    otherwise it permutes
    the joint to the frame with the wires leading the rows and trailing
    the columns (a = b = 1). The Kraus route sums one step per K, the
    thin route chains two steps through ``mask`` (see ``_apply_gate``);
    ``groups`` are the columns of each factor of W on the thin route.
    ``roundoff`` stacks the route's entrywise bounds G_k, times √(L·eps)
    for sums of L products, so that Σ_k max(G_k √diag ρ)² bounds the
    roundoff of each entry of the result.

    A factor ρ = L L† takes the row side only (``_factor_step``); its
    step costs ``factor_cost`` = (per entry of L, fixed) and makes
    ``fan`` column blocks. ``dense_cost`` is the dense step, in the
    same units (``CALL_COST``).
    """

    axes: tuple[int, ...] | None
    a: int
    b: int
    steps: tuple[np.ndarray, ...]
    mask: np.ndarray | None
    groups: tuple[slice, ...] | None
    roundoff: np.ndarray
    dense_cost: float
    factor_cost: tuple[float, float]
    fan: int

    @property
    def thin(self) -> bool:
        return self.mask is not None


@dataclass(frozen=True, eq=False)
class Gate:
    """One update ρ ↦ Σ K ρ K†, with the Kraus operators K on the slots.

    ``kraus`` is in sentence order; ``plan`` is shared by every gate of
    the circuit with the same word on the same slots.
    """

    slots: tuple[int, ...]
    mechanism: str
    operand: object
    label: str
    kraus: tuple[np.ndarray, ...]
    plan: Plan


@dataclass(frozen=True, eq=False)
class Circuit:
    """Actors, gates in sentence order, and the interaction components:
    each a tuple of actor indices in actor order, the wires that gates
    join directly or through other wires, ordered by their first actor.
    Each gate's plan is built on its component's wires (``_plan``)."""

    actors: tuple[Actor, ...]
    gates: tuple[Gate, ...]
    components: tuple[tuple[int, ...], ...]

    @property
    def joint_dim(self) -> int:
        return math.prod(a.dim for a in self.actors)


def _gate_parts(entry: LexiconEntry, mechanism: str):
    """The operand a gate carries, its Kraus operators on its own slots,
    and its canonical vectors (W, the factor of each column) or None.

    A_k = W_k W_k†: projector W = [v], fuzz and phaser W from
    ``ddm_from_fuzz`` and ``ddm_from_phaser``, ddm the lexicon's own ω.
    """
    if mechanism not in KIND_MECHANISMS[entry.kind]:
        raise LexiconError(
            f"mechanism {mechanism!r} not usable with {entry.kind} "
            f"entry {entry.name!r}"
        )
    if mechanism == "projector":
        p = Projector.onto_pure(entry.operand)
        v = entry.operand.amplitudes / entry.operand.norm()
        return p, (p.matrix,), (v[:, None], np.zeros(1, dtype=int))
    if mechanism == "ddm":
        vectors = canonical_vectors(entry.operand)
        return entry.operand, tuple(ddm_kraus(entry.operand)), vectors
    sigma = from_pure(entry.operand) if entry.kind == "pure" else entry.operand
    if mechanism == "phaser":
        kraus = (linalg.frozen(linalg.matrix_sqrt(sigma.matrix)),)
        try:
            return sigma, kraus, canonical_vectors(ddm_from_phaser(sigma))
        except ZeroTraceError:  # σ = 0, so √σ = 0
            return sigma, kraus, None
    try:
        fuzzed = ddm_from_fuzz(sigma)
    except ZeroTraceError:  # no positive eigenvalue: the fuzz annihilates every state
        return sigma, (), None
    return sigma, tuple(ddm_kraus(fuzzed)), canonical_vectors(fuzzed)


_EPS = np.finfo(np.float64).eps


#: What one BLAS call costs, in complex multiply-adds. On a 2-vCPU host
#: (numpy 2.4.6, OpenBLAS 0.3.31) one product in a stack of small ones
#: (4×4 by 4×4, np.matmul) took 0.58 µs, 2,000 multiply-adds at the rate
#: of one large product (3.5e9/s), and small products run below that
#: rate. Over every route and column form of 118 (word, slots, D) cases
#: of two seeds of the bench lexicons, D = 64, 256 and 1024, the plans
#: that 4,000 picked took 1.3% and 3.3% longer than the fastest in the
#: geometric mean (2.5% at 2,000), with the column side then chosen
#: between a batched form and the 2-D product that ``_sandwich`` keeps.
CALL_COST = 4000

#: What the compression of a factor costs beyond its Gram: EIGH_COST·n³
#: + EIGH_CALL for the eigh of an n × n Gram, in the units of CALL_COST.
#: On the same host (one large product at 4.0e9 multiply-adds/s), eigh
#: took 5.5 µs at n = 1, 49 µs at n = 16, 0.58 ms at n = 64 (9.0·n³) and
#: 2.3 ms at n = 96 (10.7·n³). EIGH_CALL also carries the factor step's
#: own calls: per-gate probes of both steps (every mechanism and slot
#: shape of two bench lexicons, D = 64, 256 and 1024, L of 1-64 columns)
#: lost 0.8-1.0 ms to wrong picks at 400,000, of 123 and 181 ms for the
#: fastest pick of every case, against 2.1-2.4 ms at 200,000.
EIGH_COST = 10
EIGH_CALL = 400_000

#: What writing one entry of a fresh array costs, and one entry of a
#: permuting copy, in the same units: 10.8 and 8.1 at D = 1024 on that
#: host (3.1-3.3 and 7.0-9.6 at D ≤ 256). Without them the same probes
#: lost 21 and 46 ms to wrong picks, dense steps that took longer than
#: the factor's, most of it at D = 1024.
PASS_COST = 10
COPY_COST = 8


def _ascending(m: np.ndarray, sizes: list[int], order: list[int]) -> np.ndarray:
    """m's rows, indexed by the slots in sentence order, in ascending wire order."""
    return m.reshape(*sizes, -1).transpose(*order, len(sizes)).reshape(m.shape)


def _frame(slots, dims):
    """(axes, a, b): None and the wires' neighbours when the slots are
    adjacent, else the permutation to the frame and a = b = 1."""
    wires, n = sorted(slots), len(dims)
    if wires == list(range(wires[0], wires[-1] + 1)):
        return None, math.prod(dims[: wires[0]]), math.prod(dims[wires[-1] + 1 :])
    rest = [w for w in range(n) if w not in wires]
    return tuple(wires + rest + [n + w for w in rest + wires]), 1, 1


def _step_cost(q_out: int, q_in: int, rows: int, cols: int, a: int, b: int):
    """The cost of a step mapping q_in to q_out on each side of a rows × cols
    operand, and its result's shape. Its column side is one 2-D product where
    b = 1, else a transposing copy and the row side again (``_sandwich``)."""
    cost = q_out * rows * cols + CALL_COST * a
    rows = rows * q_out // q_in
    size = rows * cols
    cost += size * q_out + (CALL_COST if b == 1 else COPY_COST * size + CALL_COST * a)
    return cost, rows, cols * q_out // q_in


def _route_costs(frame, d: int, size: int, m: int, r: int | None):
    """The cost of the Kraus route with m operators and of the thin route
    with r vectors (None when r is None), on a size × size joint in
    ``frame`` (``_frame``)."""
    _, a, b = frame
    cost, _, _ = _step_cost(d, d, size, size, a, b)
    kraus = m * cost + max(m - 1, 0) * (CALL_COST + size * size)
    if r is None:
        return kraus, None
    compress, rows, cols = _step_cost(r, d, size, size, a, b)
    expand, _, _ = _step_cost(d, r, rows, cols, a, b)
    return kraus, compress + expand + CALL_COST + rows * cols


@dataclass(frozen=True, eq=False)
class _Route:
    """One word's route on its wires in ascending wire order, shared by
    every slot tuple of the circuit with the same order: the row operators
    (each K, or W† and W), the columns of each factor of W (thin route),
    ``mask`` and the roundoff bounds of ``Plan``."""

    rows: tuple[np.ndarray, ...]
    groups: tuple[slice, ...] | None
    mask: np.ndarray | None
    roundoff: np.ndarray

    @property
    def fan(self) -> int:
        """The column blocks a factor step makes: one per K, or per factor of W."""
        return len(self.rows if self.groups is None else self.groups)


def _route(kraus, vectors, sizes: list[int], order: list[int]) -> _Route:
    """The Kraus route, or the thin one when ``vectors`` (W, the factor of
    each column) is given, A_k = W_k W_k†, on wires of ``sizes`` in slot
    order that ``order`` sorts."""
    d = math.prod(sizes)
    if vectors is None:
        # K's rows, then its columns, in ascending wire order
        ops = tuple(_ascending(_ascending(k, sizes, order).T, sizes, order).T for k in kraus)
        bounds = np.abs(np.array(ops, dtype=np.complex128)).reshape(-1, d, d)
        return _Route(ops, None, None, bounds * np.sqrt(d * _EPS))
    w, owner = vectors
    w, r = _ascending(w, sizes, order), w.shape[1]
    # |W_k||W_k|ᵀ, not |A_k|: the route sums W_k's products term by term.
    magnitudes = np.abs(w)
    factor = owner == np.unique(owner)[:, None, None]
    bounds = (magnitudes * factor) @ magnitudes.T * np.sqrt((d + r) * _EPS)
    same = (owner[:, None] == owner[None, :]).astype(np.float64)
    starts = [int(i) for i in np.flatnonzero(np.diff(owner, prepend=-1))] + [r]
    groups = tuple(slice(i, j) for i, j in zip(starts, starts[1:]))  # contiguous
    return _Route((w.conj().T, w), groups, same.reshape(r, 1, r, 1), bounds)


def _plan(frame, size: int, route: _Route, cost: float) -> Plan:
    """``route`` in ``frame`` (``_frame``) of a size × size joint, with the
    costs of the dense step (``cost``, the route's own entry of
    ``_route_costs``, plus its passes) and of the factor step."""
    axes, a, b = frame
    fan = route.fan
    if route.groups is None:
        passes = max(2 * fan, 1)  # each step's two products, or the zeros
        per_entry, calls = fan * route.roundoff.shape[-1], fan * CALL_COST * a
    else:
        w = route.rows[1]
        ratio = w.shape[1] / w.shape[0]
        passes = 1 + 2 * ratio + ratio**2  # C before and after its columns, W·C, out
        per_entry, calls = 2 * w.shape[1], (1 + fan) * CALL_COST * a
    per_entry += fan * PASS_COST  # the factor's blocks, stacked
    dense = cost + PASS_COST * passes * size * size
    if axes is not None:  # the joint and the result are permuted; a factor's rows too
        dense += 2 * COPY_COST * size * size
        per_entry += COPY_COST * (1 + fan)
    return Plan(axes, a, b, route.rows, route.mask, route.groups, route.roundoff,
                dense, (per_entry, calls), fan)


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
    state unless the lexicon carries an entry for the actor.
    """
    if mechanism is not None and mechanism not in MECHANISMS:
        raise LexiconError(f"unknown mechanism {mechanism!r}")
    table = _ActorTable()
    pending = []
    for s in sentences:
        if isinstance(s, Introduce):
            table.touch(s.actor)
            continue
        if isinstance(s, (IsA, Turns)):
            entry = lexicon.entry(s.noun)
            if len(entry.space) != 1:
                raise LexiconError(f"noun {s.noun!r} must live on a single space")
            table.touch(s.actor, entry.space[0])
            verb = "is" if isinstance(s, IsA) else "turns"
            pending.append(((s.actor,), entry, f"{s.actor} {verb} {s.noun}"))
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
        pending.append(
            ((s.subject, s.object), entry, f"{s.subject} {s.verb} {s.object}")
        )

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
    gate_slots = [tuple(index[n] for n in names) for names, _, _ in pending]
    components = _components(len(dims), gate_slots)
    block, local = {}, {}  # each wire's (block dims, block size), its place in its block
    for wires in components:
        block_dims = tuple(dims[w] for w in wires)
        size = math.prod(block_dims)
        if size > linalg.DIM_CAP:
            raise DimensionOverflowError(
                f"interaction component dimension {size} exceeds cap {linalg.DIM_CAP}"
            )
        for i, w in enumerate(wires):
            block[w], local[w] = (block_dims, size), i

    actors = []
    for name, space, dim, entry in zip(table.order, spaces, dims, priors):
        if entry is None:
            prior, root = DensityMatrix.maximally_mixed(dim), np.eye(dim) / math.sqrt(dim)
        elif entry.kind == "pure":
            prior, root = from_pure(entry.operand), entry.operand.amplitudes[:, None]
        else:  # every direction above roundoff of its rows, however small against the largest
            prior = entry.operand
            evals, evecs = np.linalg.eigh(prior.matrix)
            root = evecs[:, evals > 0] * np.sqrt(evals[evals > 0])
            root = _compress(root, np.diagonal(prior.matrix).real)
        actors.append(Actor(name=name, space=space, dim=dim, prior=prior, root=root))

    parts, routes, plans = {}, {}, {}
    gates = []
    for (names, entry, label), slots in zip(pending, gate_slots):
        effective = mechanism if mechanism is not None else entry.mechanism
        if entry.name not in parts:
            parts[entry.name] = _gate_parts(entry, effective)
        operand, kraus, vectors = parts[entry.name]
        if (entry.name, slots) not in plans:
            block_dims, size = block[slots[0]]
            frame = _frame(tuple(local[w] for w in slots), block_dims)
            r = None if vectors is None else vectors[0].shape[1]
            by_kraus, by_thin = _route_costs(frame, entry.dim, size, len(kraus), r)
            thin = by_thin is not None and by_thin < by_kraus
            order = _order(slots)
            key = entry.name, tuple(order), thin
            if key not in routes:
                sizes = [dims[w] for w in slots]
                routes[key] = _route(kraus, vectors if thin else None, sizes, order)
            costs = by_thin if thin else by_kraus
            plans[entry.name, slots] = _plan(frame, size, routes[key], costs)
        gates.append(
            Gate(
                slots=slots,
                mechanism=effective,
                operand=operand,
                label=label,
                kraus=kraus,
                plan=plans[entry.name, slots],
            )
        )
    return Circuit(actors=tuple(actors), gates=tuple(gates), components=components)


def compile_text(text: str, lexicon: Lexicon, mechanism: str | None = None) -> Circuit:
    return compile_sentences(parse(text), lexicon, mechanism)


@dataclass(frozen=True, eq=False)
class Block:
    """The state of one interaction component on its ``wires`` (actor
    indices, in actor order) of ``dims``: ρ = 2^exponent·S, S of ``trace``
    in [1/2, 2) or 0 (``_exponent``), held as a read-only factor L with
    S = L L† (``factor``, D × c), or once the block has gone dense, as S
    itself (``dense``, and ``factor`` None)."""

    wires: tuple[int, ...]
    dims: tuple[int, ...]
    factor: np.ndarray | None
    dense: DensityMatrix | None
    trace: float
    exponent: int


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
        states = [
            block.dense.matrix if block.factor is None else block.factor @ block.factor.conj().T
            for block in self.blocks
        ]
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
        if self.renormalized:
            return 1.0
        with np.errstate(over="ignore"):
            return float(np.ldexp(math.prod(block.trace for block in self.blocks), self.exponent))

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


def _rows(x: np.ndarray, row: np.ndarray, plan: Plan) -> np.ndarray:
    """``row`` on the gate's wires in x's row index, read as (a, d, ·)."""
    return np.matmul(row, x.reshape(plan.a, row.shape[1], -1))


def _sandwich(x: np.ndarray, row: np.ndarray, plan: Plan) -> np.ndarray:
    """row x row† for a Hermitian x: ``row`` on the gate's wires in x's row
    index, then its adjoint on them in the column index, read as (·, d, b).
    Where b = 1 that is one 2-D product with row†; else it is row (row x)†,
    ``row`` again on the half result's conjugate transpose."""
    half = _rows(x, row, plan)
    del x  # the thin route passes C unnamed, so it is freed here, before the result
    if plan.b == 1:
        return half.reshape(-1, row.shape[1]) @ row.conj().T
    adjoint = np.conjugate(half.reshape(plan.a * row.shape[0] * plan.b, -1).T, order="C")
    del half  # so that the half result is gone before the result is made
    return _rows(adjoint, row, plan)


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


def _apply_gate(joint: np.ndarray, gate: Gate, dims: Sequence[int]) -> np.ndarray:
    """Σ A_k ρ A_k† on the gate's wires only: O(D²·d), not O(D³).

    On adjacent wires the joint is read in place: its row index as
    (a, d, b·D), so one batched product applies an operator to the
    wires' row index; ρ is Hermitian, so the column side is the adjoint
    of the row side (``_sandwich``). Other wires are permuted to lead the
    row index and trail the column index, and back after (``Plan``). The
    Kraus route applies each K. The thin route applies the gate's canonical
    vectors, A_k = W_k W_k†: C = W† ρ W, then only C's same-factor
    blocks expanded as W C W†, 2R + 2R²/d products per D² instead of
    2m·d for m operators.
    The result is Hermitian up to roundoff; its Hermitian part is taken
    where states leave the evaluator. A result whose largest diagonal
    entry is inf or NaN raises NumericalFailureError naming the gate.
    Since |ρ_ab| ≤ √(ρ_aa ρ_bb), each entry's roundoff is below ``noise``
    (``_noise``); a result within 1/ATOL of it keeps only eigenvalues
    above D·noise, so what roundoff leaves of an annihilated state is
    exactly 0.
    """
    plan = gate.plan
    n = len(dims)
    frame = joint
    roots = np.sqrt(np.abs(np.diagonal(joint)))
    if plan.axes is not None:
        frame = np.ascontiguousarray(joint.reshape(list(dims) * 2).transpose(plan.axes))
        roots = roots.reshape(dims).transpose(plan.axes[:n])
    with np.errstate(over="ignore", invalid="ignore"):
        if not plan.steps:  # no operator: the gate annihilates every state
            out = np.zeros(joint.size, dtype=np.complex128)
        elif plan.mask is None:
            row, *rest = plan.steps
            out = _sandwich(frame, row, plan)
            for row in rest:
                out += _sandwich(frame, row, plan)
        else:
            wh, w = plan.steps
            out = _sandwich(_masked(_sandwich(frame, wh, plan), plan), w, plan)
        if plan.axes is not None:
            shape = frame.shape
            del frame  # so that the permuted copy is gone before the one back
            out = out.reshape(shape).transpose(np.argsort(plan.axes))
        back = out.reshape(joint.shape)
        peak = np.abs(np.diagonal(back)).max()
        noise = _noise(plan, roots)
    if not np.isfinite(peak):
        raise NumericalFailureError(f'joint state is not finite after "{gate.label}"')
    if peak * linalg.ATOL < noise:
        evals, evecs = np.linalg.eigh(linalg.hermitize(back))
        keep = evals > joint.shape[0] * noise
        back = (evecs[:, keep] * evals[keep]) @ evecs[:, keep].conj().T
    return back


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
    C = W† L. Non-adjacent wires permute L's rows (D × c), not ρ. The
    checks are the dense kernel's (``_apply_gate``), with diag ρ the
    squared row norms of L: a result that is not finite raises
    NumericalFailureError naming the gate, and one within 1/ATOL of
    its roundoff bound keeps only the eigen-directions above D·noise.
    Returns L' and its diag ρ, which its compression (``_compress``)
    needs before the next gate, or None when it has been cut already.
    """
    plan = gate.plan
    n, size = len(dims), factor.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        roots = np.sqrt(_weights(factor))
        frame = factor
        if plan.axes is not None:
            frame = np.ascontiguousarray(factor.reshape(*dims, -1).transpose(*plan.axes[:n], n))
            roots = roots.reshape(dims).transpose(plan.axes[:n])
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
            out = out.transpose(*np.argsort(plan.axes[:n]), n)
        out = out.reshape(size, columns)
        weights = _weights(out)
        noise = _noise(plan, roots)
    if not np.isfinite(weights.sum()):
        raise NumericalFailureError(f'joint state is not finite after "{gate.label}"')
    if weights.max() * linalg.ATOL < noise:
        return _annihilate(out, size * noise), None
    return out, weights


def _factor_cost(plan: Plan, size: int, columns: int) -> float:
    """The gate on a size × ``columns`` factor, in the units of CALL_COST:
    the step, then the compression its result owes (the rows scaled, the
    Gram, its eigh)."""
    per_entry, calls = plan.factor_cost
    owed = columns * plan.fan
    gram = size * owed * (PASS_COST + owed)
    return per_entry * size * columns + calls + gram + EIGH_COST * owed**3 + EIGH_CALL


def _exponent(tr: float, where: str) -> int:
    """The even k with tr·2^-k in [1/2, 2), or 0 at tr = 0, but k ≥ -1022
    so that 2^-k is a float. NumericalFailureError, the joint state not
    finite ``where``, if tr is not."""
    if not math.isfinite(tr):
        raise NumericalFailureError(f"joint state is not finite {where}")
    return max(math.frexp(tr)[1] & ~1, -1022)


def _factor_block(wires, dims, exponent: int, factor: np.ndarray, owed, where: str):
    """A new factor L as a block and the diag L L† it owes (or None),
    scaled in place by 2^-k/2 and 2^-k (``_exponent``), which is exact;
    k is added to ``exponent``, and L made read-only."""
    tr = float(np.vdot(factor, factor).real)
    k = _exponent(tr, where)
    factor *= math.ldexp(1.0, -k // 2)
    if owed is not None:
        owed *= math.ldexp(1.0, -k)
    factor.setflags(write=False)
    return Block(wires, dims, factor, None, math.ldexp(tr, -k), exponent + k), owed


def _step(block: Block, owed, fresh: bool, gate: Gate, actors: Sequence[Actor]):
    """``gate`` on its block: the new block, and the diag ρ that its
    compression is owed (or None). On the factor, first the compression
    owed by the block's last gate; then the factor step while that costs
    less than the dense step, else once and for all the block's dense joint
    (if ``fresh``, before its first gate, its priors' Kronecker product at
    the block's exponent, else L L†). The result is scaled in place as a
    factor's is (``_factor_block``), before it is frozen."""
    plan, factor = gate.plan, block.factor
    where = f'after "{gate.label}"'
    if factor is not None:
        if owed is not None:
            factor = _compress(factor, owed)
        if _factor_cost(plan, factor.shape[0], factor.shape[1]) <= plan.dense_cost:
            out, owed = _factor_step(factor, gate, block.dims)
            return _factor_block(block.wires, block.dims, block.exponent, out, owed, where)
        if fresh:
            joint = linalg.kron_all(actors[w].prior.matrix for w in block.wires)
            joint *= math.ldexp(1.0, -block.exponent)
        else:
            joint = factor @ factor.conj().T
    else:
        joint = block.dense.matrix
    matrix = _apply_gate(joint, gate, block.dims)
    tr = float(np.trace(matrix).real)
    k = _exponent(tr, where)
    matrix *= math.ldexp(1.0, -k)
    state = DensityMatrix._unchecked(matrix)
    return Block(block.wires, block.dims, None, state, math.ldexp(tr, -k), block.exponent + k), None


def _trajectory(circuit: Circuit, renormalize_each_step: bool) -> Iterator[WorldState]:
    """One block per interaction component, from its priors' factor; each
    gate on its own block only (``_step``), by the same arithmetic in both
    modes, so that the blocks are the same bit for bit.

    The likelihood, ldexp(∏ block traces, Σ exponents), must stay finite,
    as the dense joint's entries did. Renormalizing divides each block by
    its own trace where the world is read (``WorldState``), after each
    gate: ZeroTraceError once a block's trace is 0, and then the
    likelihood may pass the float range.
    """
    names = tuple(a.name for a in circuit.actors)
    dims = tuple(a.dim for a in circuit.actors)
    blocks = []
    for wires in circuit.components:
        factor = np.ones((1, 1), dtype=np.complex128)
        for w in wires:
            factor = np.kron(factor, circuit.actors[w].root)
        wire_dims = tuple(dims[w] for w in wires)
        blocks.append(_factor_block(wires, wire_dims, 0, factor, None, "at the priors")[0])
    where = {w: b for b, wires in enumerate(circuit.components) for w in wires}
    world = WorldState(names, dims, tuple(blocks), False)
    if not math.isfinite(world.trace):
        raise NumericalFailureError("joint state is not finite at the priors")
    yield world
    owed = [None] * len(blocks)  # diag ρ of a factor whose compression is owed
    fresh = [True] * len(blocks)
    for gate in circuit.gates:
        b = where[gate.slots[0]]
        blocks[b], owed[b] = _step(blocks[b], owed[b], fresh[b], gate, circuit.actors)
        fresh[b] = False
        world = WorldState(names, dims, tuple(blocks), renormalize_each_step)
        if renormalize_each_step:
            nonzero_trace(min(block.trace for block in blocks))
        elif not math.isfinite(world.trace):
            raise NumericalFailureError(f'joint state is not finite after "{gate.label}"')
        yield world


def evaluate_trajectory(
    circuit: Circuit, renormalize_each_step: bool = False
) -> list[WorldState]:
    """World state before any gate and after each gate, in order."""
    return list(_trajectory(circuit, renormalize_each_step))


def evaluate(circuit: Circuit, renormalize_each_step: bool = False) -> WorldState:
    """Apply every gate in sentence order to the priors (keeping one state)."""
    for world in _trajectory(circuit, renormalize_each_step):
        pass
    return world


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
        out = linalg.partial_trace(block.dense.matrix, block.dims, [local])
    else:
        x = block.factor.reshape(math.prod(block.dims[:local]), block.dims[local], -1)
        out = np.matmul(x, x.conj().swapaxes(1, 2)).sum(axis=0)
    if world.renormalized:
        out = out / block.trace
    else:
        others = math.prod(other.trace for other in world.blocks if other is not block)
        out = _ldexp(out * others, world.exponent)
    return DensityMatrix(linalg.hermitize(out))
