"""Controlled-grammar texts compiled to circuits of update gates.

Actors are wires carrying density matrices; each sentence becomes a
gate that updates the joint state over all live actors. Transitive
verbs act on the subject and object wires together, which is why the
world is one joint state rather than a bag of per-actor states.
Compiling turns each gate into Kraus operators on its own wires:
projector [P], fuzz [√xᵢ Pᵢ], phaser [√σ], ddm [A_k], each
A_k = Σᵢ |ω_ik⟩⟨ω_ik| over the canonical vectors of the gate's double
density matrix. Evaluation applies either the operators or those
vectors, whichever takes fewer products (chosen once per word), to the
touched wires only. Every joint state it makes is
Σ K ρ K† of a validated state, so none is re-validated, and is Hermitian
up to roundoff, so none is hermitized: the states that leave the
evaluator through ``reduced_state`` are validated, and their Hermitian
part is taken there.
"""

from __future__ import annotations

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
class Gate:
    """One update ρ ↦ Σ K ρ K†, with the Kraus operators K on the slots.

    ``vectors`` is (W, same) when the gate is applied through its
    canonical vectors (see ``_apply_gate``), None when through ``kraus``.
    ``roundoff`` stacks the route's entrywise bounds G_k, times √(L·eps)
    for sums of L products, so that Σ_k max(G_k √diag ρ)² bounds the
    roundoff of each entry of the result.
    """

    slots: tuple[int, ...]
    mechanism: str
    operand: object
    label: str
    kraus: tuple[np.ndarray, ...]
    vectors: tuple[np.ndarray, np.ndarray] | None
    roundoff: np.ndarray


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


def _kraus_route(kraus: Sequence[np.ndarray], d: int):
    """No vectors; G_k = |K_k|, the terms of sums of d products."""
    bounds = np.abs(np.array(kraus, dtype=np.complex128)).reshape(-1, d, d)
    return None, bounds * np.sqrt(d * _EPS)


def _thin_route(w: np.ndarray, owner: np.ndarray):
    """(W, same-factor mask); G_k = |W_k||W_k|ᵀ, sums of d + R products.

    |W_k||W_k|ᵀ, not |A_k|: the route sums W_k's products term by term.
    """
    d, r = w.shape
    blocks = [np.abs(w[:, owner == k]) for k in np.unique(owner)]
    bounds = np.array([b @ b.T for b in blocks]) * np.sqrt((d + r) * _EPS)
    same = (owner[:, None] == owner[None, :]).astype(np.float64)
    return (w, same[:, None, :]), bounds


def _route(kraus: Sequence[np.ndarray], vectors, d: int):
    """The cheaper route by multiply-adds per D²: R(d + R) against m·d²."""
    if vectors is not None:
        r = vectors[0].shape[1]
        if r * (d + r) < len(kraus) * d * d:
            return _thin_route(*vectors)
    return _kraus_route(kraus, d)


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
    parts = {}
    gates = []
    for names, entry, label in pending:
        effective = mechanism if mechanism is not None else entry.mechanism
        if entry.name not in parts:
            operand, kraus, vectors = _gate_parts(entry, effective)
            parts[entry.name] = (operand, kraus, *_route(kraus, vectors, entry.dim))
        operand, kraus, vectors, roundoff = parts[entry.name]
        gates.append(
            Gate(
                slots=tuple(index[n] for n in names),
                mechanism=effective,
                operand=operand,
                label=label,
                kraus=kraus,
                vectors=vectors,
                roundoff=roundoff,
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


def _apply_gate(joint: np.ndarray, gate: Gate, dims: Sequence[int]) -> np.ndarray:
    """Σ A_k ρ A_k† on the gate's wires only: O(D²·d), not O(D³).

    The touched wires are permuted to lead the row index and trail the
    column index, so an operator on them multiplies the row unfolding and
    its adjoint the column one. The Kraus route applies each K and K†.
    The thin route applies the gate's canonical vectors, A_k = W_k W_k†:
    C = W† ρ W, then only C's same-factor blocks expanded as W C W†,
    2R + 2R²/d products per D² instead of 2m·d for m operators.
    The result is Hermitian up to roundoff; its Hermitian part is taken
    where states leave the evaluator. A result whose largest diagonal
    entry is inf or NaN raises NumericalFailureError naming the gate.
    Since |ρ_ab| ≤ √(ρ_aa ρ_bb), each entry's roundoff is below ``noise``,
    Σ_k max(G_k √diag ρ)² over the route's entrywise bounds G_k; a result
    within 1/ATOL of it keeps only eigenvalues above D·noise, so what
    roundoff leaves of an annihilated state is exactly 0.
    """
    n = len(dims)
    slots = list(gate.slots)
    rest = [w for w in range(n) if w not in slots]
    d = int(np.prod([dims[w] for w in slots]))
    axes = slots + rest + [n + w for w in rest + slots]
    frame = joint.reshape(list(dims) * 2).transpose(axes)
    shape = frame.shape
    frame = frame.reshape(d, -1)
    roots = np.sqrt(np.abs(np.diagonal(joint))).reshape(dims).transpose(axes[:n])
    with np.errstate(over="ignore", invalid="ignore"):
        if gate.vectors is None:
            terms = ((k @ frame).reshape(-1, d) @ k.conj().T for k in gate.kraus)
            out = next(terms, None)
            if out is None:
                out = np.zeros((joint.size // d, d), dtype=np.complex128)
            for term in terms:
                out += term
        else:
            w, same = gate.vectors
            r = w.shape[1]
            wh = w.conj().T
            blocks = ((wh @ frame).reshape(-1, d) @ w).reshape(r, -1, r)
            blocks *= same
            out = (w @ blocks.reshape(r, -1)).reshape(-1, r) @ wh
        back = out.reshape(shape).transpose(np.argsort(axes)).reshape(joint.shape)
        peak = np.abs(np.diagonal(back)).max()
        spread = gate.roundoff @ roots.reshape(d, -1)
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
