"""Controlled-grammar texts compiled to circuits of update gates.

Actors are wires carrying density matrices; each sentence becomes a
gate that updates the joint state over all live actors. Transitive
verbs act on the subject and object wires together, which is why the
world is one joint state rather than a bag of per-actor states.
Compiling turns each gate into Kraus operators on its own wires:
projector [P], fuzz [√xᵢ Pᵢ], phaser [√σ], ddm [A_k], each
A_k = Σᵢ |ω_ik⟩⟨ω_ik| over the canonical vectors of the gate's double
density matrix. Evaluation applies either the operators or those
vectors, whichever costs less in products and calls (a plan chosen once
per word and slots), to the touched wires only: on adjacent wires
through views of the joint, without copying it. Every joint state it
makes is Σ K ρ K† of a validated state, so none is re-validated, and is
Hermitian up to roundoff, so none is hermitized: the states that leave
the evaluator through ``reduced_state`` are validated, and their
Hermitian part is taken there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .density import DensityMatrix, Projector, PureState, from_pure, renormalize
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
    name: str
    space: str
    dim: int
    prior: DensityMatrix


@dataclass(frozen=True, eq=False)
class Plan:
    """How one word's update is applied on one slot tuple of one circuit.

    The kernel reads the row index of the joint (or of its frame) as
    (a, d, ·) and the column index as (·, d, b), d the gate's dimension,
    and applies each step (row, col, flat) as ``row`` on the row side,
    then ``col`` on the column side: batched over (·, d, b) views, or,
    if ``flat``, as one 2-D product against col = Mᵀ ⊗ I_b. Operators are
    in ascending wire order. ``axes`` is None when the slots are
    adjacent, so the joint itself is the frame; otherwise it permutes
    the joint to the frame with the wires leading the rows and trailing
    the columns (a = b = 1). The Kraus route sums one step per K, the
    thin route chains two steps through ``mask`` (see ``_apply_gate``).
    ``roundoff`` stacks the route's entrywise bounds G_k, times √(L·eps)
    for sums of L products, so that Σ_k max(G_k √diag ρ)² bounds the
    roundoff of each entry of the result.
    """

    axes: tuple[int, ...] | None
    a: int
    b: int
    steps: tuple[tuple[np.ndarray, np.ndarray, bool], ...]
    mask: np.ndarray | None
    roundoff: np.ndarray

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
    actors: tuple[Actor, ...]
    gates: tuple[Gate, ...]

    @property
    def joint_dim(self) -> int:
        out = 1
        for a in self.actors:
            out *= a.dim
        return out


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


def _significant(kraus: tuple[np.ndarray, ...], vectors, d: int):
    """The operators, and the canonical vectors, of the factors whose update
    is above roundoff: ‖K_k‖² > d·eps·max_j ‖K_j‖². A dropped K_k changes
    no entry of Σ K ρ K† by more than the other terms' roundoff; so a
    fuzz gives none of its weight to σ's kernel, whose eigenvalues are
    roundoff (``linalg.grouped_eigh``), although ``kraus`` lists it.
    Column k of W belongs to K_k (``canonical_vectors``).
    """
    if len(kraus) < 2:
        return kraus, vectors
    weights = np.linalg.norm(np.array(kraus), 2, axis=(1, 2)) ** 2
    keep = weights > d * _EPS * weights.max()
    if keep.all():
        return kraus, vectors
    if vectors is not None:
        w, owner = vectors
        vectors = (w[:, keep[owner]], owner[keep[owner]])
    return tuple(k for k, kept in zip(kraus, keep) if kept), vectors


#: What one BLAS call costs, in complex multiply-adds. On a 2-vCPU host
#: (numpy 2.4.6, OpenBLAS 0.3.31) one product in a stack of small ones
#: (4×4 by 4×4, np.matmul) took 0.58 µs, 2,000 multiply-adds at the rate
#: of one large product (3.5e9/s), and small products run below that
#: rate. Over every route and column form of 118 (word, slots, D) cases
#: of two seeds of the bench lexicons, D = 64, 256 and 1024, the plans
#: that 4,000 picks took 1.3% and 3.3% longer than the fastest in the
#: geometric mean (2.5% at 2,000), and the flat form it picks for a
#: d = 16 phaser before one dim-4 wire is 1.5x faster than the batched.
CALL_COST = 4000


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
    operand, whether its column side is flat, and its result's shape."""
    cost = q_out * rows * cols + CALL_COST * a
    rows = rows * q_out // q_in
    size = rows * cols
    batched = size * q_out + CALL_COST * (size // (q_in * b))
    flat = size * q_out * b + CALL_COST
    return cost + min(batched, flat), flat <= batched, rows, cols * q_out // q_in


def _route_costs(d: int, m: int, r: int | None, size: int, a: int, b: int):
    """(cost, whether each column side is flat) of the Kraus route with m
    operators and of the thin route with r vectors (None when r is None),
    on a size × size joint."""
    cost, flat, _, _ = _step_cost(d, d, size, size, a, b)
    kraus = m * cost + max(m - 1, 0) * (CALL_COST + size * size), flat
    if r is None:
        return kraus, None
    compress, flat, rows, cols = _step_cost(r, d, size, size, a, b)
    expand, flat_expand, _, _ = _step_cost(d, r, rows, cols, a, b)
    return kraus, (compress + expand + CALL_COST + rows * cols, flat, flat_expand)


def _plan(slots, dims, kraus, vectors=None) -> Plan:
    """The plan of a word on ``slots`` of wires ``dims``: through its Kraus
    operators, or through its canonical vectors (W, the factor of each
    column) when ``vectors`` is given, A_k = W_k W_k†.

    Each column side takes whichever form costs less.
    """
    sizes = [dims[w] for w in slots]
    order = sorted(range(len(slots)), key=slots.__getitem__)
    d, size = math.prod(sizes), math.prod(dims)
    axes, a, b = _frame(slots, dims)
    r = None if vectors is None else vectors[0].shape[1]
    (_, flat), thin = _route_costs(d, len(kraus), r, size, a, b)

    def col(m, flat):  # Mᵀ ⊗ I_b if flat
        if not flat:
            return np.ascontiguousarray(m)
        return (m.T[:, None, :, None] * np.eye(b)[:, None]).reshape(m.shape[1] * b, -1)

    if vectors is None:
        # K's rows, then its columns, in ascending wire order
        ops = [_ascending(_ascending(k, sizes, order).T, sizes, order).T for k in kraus]
        steps = tuple((k, col(k.conj(), flat), flat) for k in ops)
        bounds = np.abs(np.array(ops, dtype=np.complex128)).reshape(-1, d, d)
        return Plan(axes, a, b, steps, None, bounds * np.sqrt(d * _EPS))
    w, owner = vectors
    w = _ascending(w, sizes, order)
    _, flat, flat_expand = thin
    steps = ((w.conj().T, col(w.T, flat), flat), (w, col(w.conj(), flat_expand), flat_expand))
    # |W_k||W_k|ᵀ, not |A_k|: the route sums W_k's products term by term.
    magnitudes = np.abs(w)
    factor = owner == np.unique(owner)[:, None, None]
    bounds = (magnitudes * factor) @ magnitudes.T * np.sqrt((d + r) * _EPS)
    same = (owner[:, None] == owner[None, :]).astype(np.float64)
    return Plan(axes, a, b, steps, same.reshape(r, 1, r, 1), bounds)


def _cheapest_plan(slots, dims, kraus, vectors) -> Plan:
    """The plan of the route that costs less, the Kraus one on a tie."""
    _, a, b = _frame(slots, dims)
    d = math.prod(dims[w] for w in slots)
    r = None if vectors is None else vectors[0].shape[1]
    kraus_cost, thin = _route_costs(d, len(kraus), r, math.prod(dims), a, b)
    if thin is not None and thin[0] < kraus_cost[0]:
        return _plan(slots, dims, kraus, vectors)
    return _plan(slots, dims, kraus)


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

    actors = []
    for name in table.order:
        space = table.space[name]
        prior = None
        if name in lexicon.entries:
            entry = lexicon.entries[name]
            if len(entry.space) != 1:
                raise LexiconError(f"actor {name!r} must live on a single space")
            if space is None:
                space = entry.space[0]
            elif entry.space[0] != space:
                raise SpaceMismatchError(name, space, entry.space[0])
            if entry.kind == "pure":
                prior = from_pure(entry.operand)
            elif entry.kind == "density":
                prior = entry.operand
            else:
                raise LexiconError(f"actor {name!r} prior cannot be a ddm entry")
        if space is None:
            raise LexiconError(f"cannot infer a space for actor {name!r}")
        dim = lexicon.space_dim(space)
        if prior is None:
            prior = DensityMatrix.maximally_mixed(dim)
        actors.append(Actor(name=name, space=space, dim=dim, prior=prior))

    joint = 1
    for a in actors:
        joint *= a.dim
        if joint > linalg.DIM_CAP:
            raise DimensionOverflowError(
                f"joint dimension exceeds cap {linalg.DIM_CAP}"
            )

    index = {a.name: i for i, a in enumerate(actors)}
    dims = [a.dim for a in actors]
    parts, plans = {}, {}
    gates = []
    for names, entry, label in pending:
        effective = mechanism if mechanism is not None else entry.mechanism
        if entry.name not in parts:
            operand, kraus, vectors = _gate_parts(entry, effective)
            parts[entry.name] = operand, kraus, *_significant(kraus, vectors, entry.dim)
        operand, kraus, ops, vectors = parts[entry.name]
        slots = tuple(index[n] for n in names)
        if (entry.name, slots) not in plans:
            plans[entry.name, slots] = _cheapest_plan(slots, dims, ops, vectors)
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
    return Circuit(actors=tuple(actors), gates=tuple(gates))


def compile_text(text: str, lexicon: Lexicon, mechanism: str | None = None) -> Circuit:
    return compile_sentences(parse(text), lexicon, mechanism)


@dataclass(frozen=True, eq=False)
class WorldState:
    """Joint state over all actors; per-actor views come by partial trace."""

    actor_names: tuple[str, ...]
    dims: tuple[int, ...]
    joint: DensityMatrix


def _rows(x: np.ndarray, row: np.ndarray, plan: Plan) -> np.ndarray:
    """``row`` on the gate's wires in x's row index, read as (a, d, ·)."""
    return np.matmul(row, x.reshape(plan.a, row.shape[1], -1))


def _cols(y: np.ndarray, col: np.ndarray, flat: bool, plan: Plan) -> np.ndarray:
    """A step's ``col`` on the gate's wires in y's column index, (·, d, b)."""
    if flat:
        return y.reshape(-1, col.shape[0]) @ col
    return np.matmul(col, y.reshape(-1, col.shape[1], plan.b))


def _apply_gate(joint: np.ndarray, gate: Gate, dims: Sequence[int]) -> np.ndarray:
    """Σ A_k ρ A_k† on the gate's wires only: O(D²·d), not O(D³).

    On adjacent wires the joint is read in place: its row index as
    (a, d, b·D), so one batched product applies an operator to the
    wires' row index, and the result's column index as (·, d, b) for the
    column side. Other wires are permuted to lead the row index and
    trail the column index, and back after (``Plan``). The Kraus route
    applies each K and K†. The thin route applies the gate's canonical
    vectors, A_k = W_k W_k†: C = W† ρ W, then only C's same-factor
    blocks expanded as W C W†, 2R + 2R²/d products per D² instead of
    2m·d for m operators.
    The result is Hermitian up to roundoff; its Hermitian part is taken
    where states leave the evaluator. A result whose largest diagonal
    entry is inf or NaN raises NumericalFailureError naming the gate.
    Since |ρ_ab| ≤ √(ρ_aa ρ_bb), each entry's roundoff is below ``noise``,
    Σ_k max(G_k √diag ρ)² over the route's entrywise bounds G_k; a result
    within 1/ATOL of it keeps only eigenvalues above D·noise, so what
    roundoff leaves of an annihilated state is exactly 0.
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
            (row, col, flat), *rest = plan.steps
            out = _cols(_rows(frame, row, plan), col, flat, plan)
            for row, col, flat in rest:
                out += _cols(_rows(frame, row, plan), col, flat, plan)
        else:
            (wh, col, flat), (w, expand, flat_expand) = plan.steps
            r = plan.mask.shape[0]
            blocks = _cols(_rows(frame, wh, plan), col, flat, plan)
            blocks = blocks.reshape(plan.a, r, -1, r, plan.b)
            blocks *= plan.mask
            half = _rows(blocks, w, plan)
            del blocks  # so that C is gone before the result is made
            out = _cols(half, expand, flat_expand, plan)
        if plan.axes is not None:
            shape = frame.shape
            del frame  # so that the permuted copy is gone before the one back
            out = out.reshape(shape).transpose(np.argsort(plan.axes))
        back = out.reshape(joint.shape)
        peak = np.abs(np.diagonal(back)).max()
        d = plan.roundoff.shape[-1]
        roots = roots.reshape(plan.a, d, -1).swapaxes(0, 1).reshape(d, -1)
        spread = plan.roundoff @ roots
        noise = np.square(spread.max(axis=(1, 2), initial=0.0)).sum()
    if not np.isfinite(peak):
        raise NumericalFailureError(f'joint state is not finite after "{gate.label}"')
    if peak * linalg.ATOL < noise:
        evals, evecs = np.linalg.eigh(linalg.hermitize(back))
        keep = evals > joint.shape[0] * noise
        back = (evecs[:, keep] * evals[keep]) @ evecs[:, keep].conj().T
    return back


def _trajectory(circuit: Circuit, renormalize_each_step: bool) -> Iterator[WorldState]:
    names = tuple(a.name for a in circuit.actors)
    dims = tuple(a.dim for a in circuit.actors)
    priors = [a.prior.matrix for a in circuit.actors]
    state = DensityMatrix._unchecked(linalg.kron_all(priors))
    yield WorldState(names, dims, state)
    for gate in circuit.gates:
        state = DensityMatrix._unchecked(_apply_gate(state.matrix, gate, dims))
        if renormalize_each_step:
            state = renormalize(state)
        yield WorldState(names, dims, state)


def evaluate_trajectory(
    circuit: Circuit, renormalize_each_step: bool = False
) -> list[WorldState]:
    """World state before any gate and after each gate, in order."""
    return list(_trajectory(circuit, renormalize_each_step))


def evaluate(circuit: Circuit, renormalize_each_step: bool = False) -> WorldState:
    """Tensor the priors, apply every gate in sentence order (keeping one joint)."""
    for world in _trajectory(circuit, renormalize_each_step):
        pass
    return world


def reduced_state(world: WorldState, actor: str) -> DensityMatrix:
    """One wire of the world: partial trace over every other actor."""
    if actor not in world.actor_names:
        raise UnknownActorError(f"no actor named {actor!r}")
    keep = [world.actor_names.index(actor)]
    out = linalg.partial_trace(world.joint.matrix, world.dims, keep)
    return DensityMatrix(linalg.hermitize(out))
