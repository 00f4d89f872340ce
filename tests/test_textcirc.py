import dataclasses
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st


from fuzzphaser import linalg
from fuzzphaser import textcirc
from fuzzphaser.cli import main
from fuzzphaser.ddm import DdmBranch, DdmFactor, DoubleDensityMatrix
from fuzzphaser.density import DensityMatrix, PureState, from_pure, nonzero_trace
from fuzzphaser.errors import (
    DimensionOverflowError,
    LexiconError,
    NotPSDError,
    NumericalFailureError,
    ParseError,
    SpaceMismatchError,
    UnknownActorError,
    UnknownWordError,
    ZeroTraceError,
)
from fuzzphaser.lexicon import save_lexicon
from fuzzphaser.properties import (
    ALL_CHECKS, _kernel_circuits, apply_gate_dense, check_local_kernel,
)
from fuzzphaser.sampling import (
    DEFAULT_SEED, random_ddm, random_density, random_psd, random_pure, random_unitary,
)
from fuzzphaser.textcirc import (
    MECHANISMS,
    Introduce,
    IsA,
    Lexicon,
    LexiconEntry,
    Transitive,
    Turns,
    compile_sentences,
    compile_text,
    Circuit,
    evaluate,
    evaluate_trajectory,
    Gate,
    _apply_gate,
    _gate_parts,
    parse,
    reduced_state,
)
from fuzzphaser.update import fuzz

#: EIGH_CALL values that pin every gate of an evaluation to the factor
#: step (its cost -inf) or to the dense joint from the first gate (+inf).
ROUTES = {"factor": -math.inf, "dense": math.inf}


def _applied(rho, gate, dims):
    """Σ K ρ K† in actor order by ``_apply_gate``, from ρ in actor order:
    it returns it times 2^-shift (``Plan.shift``), in the plan's frame."""
    out, frame, _ = _apply_gate(rho, None, gate, dims, np.trace(rho).real)
    return textcirc._reframed(out, frame, None, dims) * math.ldexp(1.0, gate.plan.shift)


def _links(actors):
    """Lexicon entries and sentences that join actors (name, space, dim)
    in a chain of verbs, each a fuzz by the identity, which changes no
    state: a text that has them is one interaction component, so
    that every gate runs on the joint of all its actors."""
    entries, sentences = [], []
    for (a, s, d), (b, t, e) in zip(actors, actors[1:]):
        entries.append(LexiconEntry(f"link{a}", (s, t), "density", "fuzz", DensityMatrix.identity(d * e)))
        sentences.append(Transitive(a, f"link{a}", b))
    return entries, sentences


class TestParse:
    def test_four_shapes(self):
        text = "Once there was Bilbo. Bilbo is a hobbit. Bilbo turns old. Gollum bites Bilbo.\n"
        assert parse(text) == [
            Introduce("Bilbo"),
            IsA("Bilbo", "hobbit"),
            Turns("Bilbo", "old"),
            Transitive("Gollum", "bites", "Bilbo"),
        ]

    def test_is_without_article(self):
        assert parse("Door is black.") == [IsA("Door", "black")]

    def test_is_an_article(self):
        assert parse("Rex is an animal.") == [IsA("Rex", "animal")]

    def test_whitespace_segments_skipped(self):
        assert parse("  Door is black.   \n\n ") == [IsA("Door", "black")]
        assert parse("") == []

    def test_unterminated_sentence(self):
        with pytest.raises(ParseError) as err:
            parse("Door is black. Door turns red")
        assert err.value.line == 1
        assert "not terminated" in str(err.value)

    def test_unrecognized_shape_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse("Door is black.\nthe door is very black indeed.\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            ("Door is black. Door is red.\n\n\nDoor is red. Door is.\n", 4),
            ("\n\n  Door is.", 3),
            ("Door is black.\nDoor\nturns red. Door turns\n\nred. Door is red.\n\nDoor turns", 7),
        ],
    )
    def test_error_reports_line_of_its_sentence(self, text, line):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line

    def test_single_word_rejected(self):
        with pytest.raises(ParseError):
            parse("Door.")


def _noun_lexicon() -> Lexicon:
    black = PureState([1.0, 0.0])
    red = PureState([0.8, 0.6])
    return Lexicon(
        {"c": 2},
        [
            LexiconEntry("black", "c", "pure", "projector", black),
            LexiconEntry("red", "c", "pure", "projector", red),
            LexiconEntry("Door", "c", "pure", "projector", PureState([0.6, -0.8])),
        ],
    )


def _verb_lexicon() -> Lexicon:
    verb = random_psd(4, np.random.default_rng(151))
    return Lexicon(
        {"c": 2},
        [
            LexiconEntry("black", "c", "pure", "projector", PureState([1.0, 0.0])),
            LexiconEntry("bites", ("c", "c"), "density", "fuzz", verb),
        ],
    )


class TestLexicon:
    def test_entry_lookup(self):
        lex = _noun_lexicon()
        assert lex.entry("black").dim == 2
        with pytest.raises(UnknownWordError):
            lex.entry("white")

    def test_space_dim(self):
        lex = _noun_lexicon()
        assert lex.space_dim("c") == 2
        with pytest.raises(LexiconError):
            lex.space_dim("nowhere")

    def test_rejects_undeclared_space(self):
        with pytest.raises(LexiconError):
            Lexicon(
                {"c": 2},
                [LexiconEntry("w", "other", "pure", "projector", PureState([1.0, 0]))],
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(LexiconError):
            Lexicon(
                {"c": 3},
                [LexiconEntry("w", "c", "pure", "projector", PureState([1.0, 0]))],
            )

    def test_rejects_duplicates(self):
        e = LexiconEntry("w", "c", "pure", "projector", PureState([1.0, 0]))
        with pytest.raises(LexiconError):
            Lexicon({"c": 2}, [e, e])

    def test_verb_lives_on_product_space(self):
        lex = _verb_lexicon()
        assert lex.entry("bites").dim == 4
        assert lex.entry("bites").space == ("c", "c")

    def test_entry_validates_kind_mechanism(self):
        with pytest.raises(LexiconError):
            LexiconEntry("w", "c", "pure", "ddm", PureState([1.0, 0]))
        with pytest.raises(LexiconError):
            LexiconEntry("w", "c", "density", "projector", DensityMatrix.identity(2))
        with pytest.raises(LexiconError):
            LexiconEntry("w", "c", "sound", "fuzz", DensityMatrix.identity(2))
        with pytest.raises(LexiconError):
            LexiconEntry("w", "c", "pure", "fuzz", DensityMatrix.identity(2))


class TestCompile:
    def test_actor_order_is_first_mention(self):
        lex = _verb_lexicon()
        circuit = compile_sentences(
            [Introduce("Rex"), Transitive("Ann", "bites", "Rex")], lex
        )
        assert [a.name for a in circuit.actors] == ["Rex", "Ann"]
        assert circuit.gates[0].slots == (1, 0)

    def test_actor_prior_from_lexicon(self):
        circuit = compile_sentences([IsA("Door", "black")], _noun_lexicon())
        door = circuit.actors[0]
        expected = from_pure(PureState([0.6, -0.8]))
        assert linalg.max_abs(door.prior.matrix - expected.matrix) < 1e-12

    def test_unlisted_actor_gets_maximally_mixed_prior(self):
        circuit = compile_sentences([IsA("Window", "black")], _noun_lexicon())
        assert np.allclose(circuit.actors[0].prior.matrix, np.eye(2) / 2)

    def test_mechanism_override(self):
        circuit = compile_sentences(
            [IsA("Door", "black")], _noun_lexicon(), mechanism="phaser"
        )
        gate = circuit.gates[0]
        assert gate.mechanism == "phaser"
        assert isinstance(gate.operand, DensityMatrix)

    def test_override_must_fit_operand_kind(self):
        lex = _verb_lexicon()
        with pytest.raises(LexiconError):
            compile_sentences(
                [Transitive("Ann", "bites", "Rex")], lex, mechanism="projector"
            )
        with pytest.raises(LexiconError):
            compile_sentences([IsA("Door", "black")], lex, mechanism="teleport")

    def test_gate_labels(self):
        circuit = compile_text("Door is black. Door turns red.", _noun_lexicon())
        assert [g.label for g in circuit.gates] == ["Door is black", "Door turns red"]

    def test_transitive_needs_distinct_actors(self):
        with pytest.raises(LexiconError):
            compile_sentences([Transitive("Ann", "bites", "Ann")], _verb_lexicon())

    def test_noun_used_as_verb_fails(self):
        with pytest.raises(LexiconError):
            compile_sentences([Transitive("Ann", "black", "Rex")], _verb_lexicon())
        with pytest.raises(LexiconError):
            compile_sentences([IsA("Ann", "bites")], _verb_lexicon())

    def test_unknown_word(self):
        with pytest.raises(UnknownWordError):
            compile_sentences([IsA("Door", "plaid")], _noun_lexicon())

    def test_introduce_only_actor_needs_space(self):
        with pytest.raises(LexiconError):
            compile_sentences([Introduce("Ghost")], _noun_lexicon())

    def test_space_mismatch_detected(self):
        lex = Lexicon(
            {"a": 2, "b": 3},
            [
                LexiconEntry("x", "a", "pure", "projector", PureState([1.0, 0])),
                LexiconEntry("y", "b", "pure", "projector", PureState([1.0, 0, 0])),
            ],
        )
        with pytest.raises(SpaceMismatchError):
            compile_sentences([IsA("Q", "x"), IsA("Q", "y")], lex)

    def test_joint_dimension_cap(self):
        lex = Lexicon(
            {"big": 64},
            [
                LexiconEntry("w", "big", "pure", "projector", PureState.basis(64, 0)),
                LexiconEntry("v", ("big", "big"), "pure", "projector", PureState.basis(4096, 0)),
            ],
        )
        sentences = [IsA(f"A{i}", "w") for i in range(3)]
        sentences += [Transitive("A0", "v", "A1"), Transitive("A1", "v", "A2")]
        with pytest.raises(DimensionOverflowError):
            compile_sentences(sentences, lex)

    def test_component_cap_comes_before_any_prior(self, monkeypatch):
        """One noun on a space of DIM_CAP + 1: the component is refused
        before any prior is built, whose validation alone is O(d³)."""

        def refuse(dim):
            raise AssertionError(f"a prior of dimension {dim} was built")

        monkeypatch.setattr(DensityMatrix, "maximally_mixed", staticmethod(refuse))
        dim = linalg.DIM_CAP + 1
        word = LexiconEntry("w", "big", "pure", "projector", PureState.basis(dim, 0))
        with pytest.raises(DimensionOverflowError):
            compile_sentences([IsA("A", "w")], Lexicon({"big": dim}, [word]))

    def test_unjoined_actors_are_blocks_of_their_own(self, monkeypatch):
        """Three dim-4 actors, verbs of every kind only on A0 and A1 (as in
        the long-text workload): blocks of 16 and 4, and no plan is built
        on the D = 64 joint of all three."""
        rng = np.random.default_rng(9)
        entries = [
            LexiconEntry("n0", "s", "pure", "projector", random_pure(4, rng)),
            LexiconEntry("n1", "s", "density", "fuzz", random_density(4, rng, rank=2)),
            LexiconEntry("n2", "s", "density", "phaser", random_density(4, rng)),
            LexiconEntry("v0", ("s", "s"), "pure", "projector", random_pure(16, rng)),
            LexiconEntry("v1", ("s", "s"), "density", "fuzz", random_density(16, rng, rank=3)),
            LexiconEntry("v2", ("s", "s"), "ddm", "ddm", random_ddm(16, rng, 2)),
        ]
        sentences = [
            Transitive("A0", "v0", "A1"), IsA("A2", "n0"), Transitive("A1", "v1", "A0"),
            IsA("A0", "n1"), Transitive("A0", "v2", "A1"), IsA("A2", "n2"), IsA("A1", "n2"),
        ]
        sizes = []
        route_costs = textcirc._route_costs

        def spy(frame, d, size, m, ranks, gates):
            sizes.append(size)
            return route_costs(frame, d, size, m, ranks, gates)

        monkeypatch.setattr(textcirc, "_route_costs", spy)
        circuit = compile_sentences(sentences, Lexicon({"s": 4}, entries))
        assert circuit.joint_dim == 64
        assert circuit.components == ((0, 1), (2,))
        assert sorted(set(sizes)) == [4, 16]


class TestEvaluate:
    def test_single_actor_projector_chain(self):
        circuit = compile_text("Door turns black. Door turns red.", _noun_lexicon())
        world = evaluate(circuit)
        # Door prior (0.6,-0.8): <black|door>=0.6, then <red|black>=0.8
        assert world.joint.trace == pytest.approx(0.36 * 0.64)
        red = np.array([0.8, 0.6])
        expected = 0.36 * 0.64 * np.outer(red, red)
        assert linalg.max_abs(world.joint.matrix - expected) < 1e-12

    def test_trajectory_lists_every_step(self):
        circuit = compile_text("Door turns black. Door turns red.", _noun_lexicon())
        states = evaluate_trajectory(circuit)
        assert len(states) == 3
        assert states[0].joint.trace == pytest.approx(1.0)

    def test_renormalize_each_step(self):
        circuit = compile_text("Door turns black. Door turns red.", _noun_lexicon())
        states = evaluate_trajectory(circuit, renormalize_each_step=True)
        for world in states:
            assert world.joint.trace == pytest.approx(1.0)

    def test_two_actor_verb_matches_manual_embedding(self):
        lex = _verb_lexicon()
        circuit = compile_sentences(
            [Introduce("Ann"), Introduce("Rex"), Transitive("Ann", "bites", "Rex")],
            lex,
        )
        world = evaluate(circuit)
        sigma = lex.entry("bites").operand
        joint0 = DensityMatrix(np.kron(np.eye(2) / 2, np.eye(2) / 2))
        expected = fuzz(joint0, DensityMatrix(sigma.matrix))
        assert linalg.max_abs(world.joint.matrix - expected.matrix) < 1e-12

    def test_verb_slot_order_respected(self):
        lex = _verb_lexicon()
        back = compile_sentences(
            [Introduce("Rex"), Introduce("Ann"), Transitive("Ann", "bites", "Rex")],
            lex,
        )
        world = evaluate(back)
        sigma = lex.entry("bites").operand
        # subject Ann sits on wire 1, object Rex on wire 0
        swap = linalg.embed_on_subsystem(sigma.matrix, [2, 2], [1, 0])
        joint0 = DensityMatrix(np.eye(4) / 4)
        expected = fuzz(joint0, DensityMatrix(linalg.hermitize(swap)))
        assert linalg.max_abs(world.joint.matrix - expected.matrix) < 1e-12

    def test_empty_text(self):
        world = evaluate(compile_text("", _noun_lexicon()))
        assert world.joint.trace == pytest.approx(1.0)
        assert world.actor_names == ()

    @pytest.mark.parametrize("renorm", [False, True])
    def test_evaluate_is_last_trajectory_state(self, renorm):
        circuit = compile_sentences(
            [Introduce("Ann"), Transitive("Ann", "bites", "Rex"), IsA("Rex", "black")],
            _verb_lexicon(),
        )
        last = evaluate_trajectory(circuit, renorm)[-1].joint.matrix
        assert np.array_equal(evaluate(circuit, renorm).joint.matrix, last)

    @pytest.mark.parametrize("renorm", [False, True])
    def test_joint_is_not_revalidated(self, renorm, monkeypatch):
        circuit = compile_sentences(
            [Introduce("Ann"), Transitive("Ann", "bites", "Rex"), IsA("Rex", "black")],
            _verb_lexicon(),
        )
        dims = []
        min_eigenvalue = linalg.min_eigenvalue

        def counted(m):
            dims.append(len(m))
            return min_eigenvalue(m)

        monkeypatch.setattr(linalg, "min_eigenvalue", counted)
        world = evaluate(circuit, renorm)
        assert circuit.joint_dim not in dims
        assert not world.joint.matrix.flags.writeable

    @pytest.mark.parametrize("renorm", [False, True])
    def test_joint_is_not_hermitized(self, renorm, monkeypatch):
        circuit = compile_sentences(
            [Introduce("Ann"), Transitive("Ann", "bites", "Rex"), IsA("Rex", "black")],
            _verb_lexicon(),
        )
        dims = []
        hermitize = linalg.hermitize

        def counted(m):
            dims.append(len(m))
            return hermitize(m)

        monkeypatch.setattr(linalg, "hermitize", counted)
        evaluate(circuit, renorm)
        assert circuit.joint_dim not in dims

    @pytest.mark.parametrize("renorm", [False, True])
    def test_factor_is_not_revalidated_or_hermitized(self, renorm, monkeypatch):
        """The two tests above with every gate on the factor ρ = L L†."""
        monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES["factor"])
        self.test_joint_is_not_revalidated(renorm, monkeypatch)
        self.test_joint_is_not_hermitized(renorm, monkeypatch)

    def test_fuzz_without_positive_eigenvalue_annihilates(self):
        void = DensityMatrix(np.zeros((2, 2)))
        lex = Lexicon({"c": 2}, [LexiconEntry("void", "c", "density", "fuzz", void)])
        circuit = compile_text("Door is void.", lex)
        assert circuit.gates[0].kraus == ()
        assert linalg.max_abs(evaluate(circuit).joint.matrix) == 0.0
        with pytest.raises(ZeroTraceError):
            evaluate(circuit, renormalize_each_step=True)


def _scaled_word(
    name: str, mechanism: str, spaces, dim: int, scale: float, rng
) -> LexiconEntry:
    if mechanism == "projector":
        return LexiconEntry(name, spaces, "pure", mechanism, random_pure(dim, rng))
    if mechanism == "ddm":
        factors = [DdmFactor(scale * f.y, f.branches) for f in random_ddm(dim, rng).factors]
        return LexiconEntry(name, spaces, "ddm", mechanism, DoubleDensityMatrix(factors))
    rank = int(rng.integers(1, dim + 1))
    sigma = DensityMatrix(scale * random_density(dim, rng, rank=rank).matrix)
    return LexiconEntry(name, spaces, "density", mechanism, sigma)


class TestLocalKernel:
    @settings(max_examples=80)
    @given(
        dims=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        order=st.randoms(use_true_random=False),
        two_slots=st.booleans(),
        mechanism=st.sampled_from(MECHANISMS),
        exponent=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_route(self, dims, order, two_slots, mechanism, exponent, seed):
        rng = np.random.default_rng(seed)
        wires = list(range(len(dims)))
        order.shuffle(wires)
        slots = tuple(wires[: 2 if two_slots and len(dims) > 1 else 1])
        dim = int(np.prod([dims[w] for w in slots]))
        spaces = tuple(f"s{w}" for w in slots)
        entries = [_scaled_word("w", mechanism, spaces, dim, 10.0**exponent, rng)] + [
            LexiconEntry(f"A{w}", f"s{w}", "density", "fuzz", DensityMatrix.identity(d))
            for w, d in enumerate(dims)
        ]
        links, linked = _links([(f"A{w}", f"s{w}", d) for w, d in enumerate(dims)])
        lex = Lexicon({f"s{w}": d for w, d in enumerate(dims)}, entries + links)
        gate_sentence = (
            Transitive(f"A{slots[0]}", "w", f"A{slots[1]}")
            if len(slots) == 2
            else IsA(f"A{slots[0]}", "w")
        )
        sentences = [Introduce(f"A{w}") for w in range(len(dims))] + linked + [gate_sentence]
        *_, gate = compile_sentences(sentences, lex).gates
        assert gate.slots == slots
        rho = linalg.hermitize(random_density(int(np.prod(dims)), rng).matrix)
        dense = apply_gate_dense(rho, gate, dims)
        local = _applied(rho, gate, dims)
        assert linalg.max_abs(local - dense) <= 1e-10 * linalg.max_abs(dense)


def _route_word(kind: str, dim: int, scale: float, rng) -> LexiconEntry:
    """A word whose canonical vectors span every shape the thin route meets.

    fuzz: rank 1..dim, eigenvalues drawn from three levels, so that
    groups are degenerate; ddm: up to 2·dim + 1 branches per factor
    (R > dim), a quarter of them of weight 0.
    """
    if kind == "projector":
        return LexiconEntry("w", "s", "pure", kind, random_pure(dim, rng))
    if kind == "ddm":
        factors = []
        for _ in range(int(rng.integers(1, 4))):
            xs = rng.uniform(0.1, 1.0, size=int(rng.integers(1, 2 * dim + 2)))
            xs[rng.random(xs.size) < 0.25] = 0.0
            xs[0] = max(xs[0], 0.5)
            branches = [DdmBranch(x, random_pure(dim, rng)) for x in xs]
            factors.append(DdmFactor(scale * rng.uniform(0.2, 1.5), branches))
        return LexiconEntry("w", "s", "ddm", kind, DoubleDensityMatrix(factors))
    rank = int(rng.integers(1, dim + 1))
    levels = rng.choice([0.5, 1.0, 2.0], size=rank)
    basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    sigma = (basis[:, :rank] * (scale * levels)) @ basis[:, :rank].conj().T
    return LexiconEntry("w", "s", "density", kind, DensityMatrix(sigma))


#: Every dense route, in the order in which ``_route_costs`` breaks ties.
ROUTE_NAMES = ("kraus", "thin", "doubled", "factored")


def _route_plans(slots, dims, kraus, vectors, offered=True):
    """The plan of each route: Kraus, thin and factored (if the gate has
    canonical vectors) and doubled; or with ``offered``, only those that
    ``_route_costs`` offers, the doubled route where Φ holds no more than
    the joint, the factored one on the whole block where V holds no more
    than the joint and the Kraus operators."""
    frame, size = textcirc._frame(tuple(slots), tuple(dims)), math.prod(dims)
    sizes, order = [dims[w] for w in slots], textcirc._order(slots)
    ranks = textcirc._ranks(vectors)
    costs = textcirc._route_costs(frame, math.prod(sizes), size, len(kraus), ranks)
    routes = [r for r in ROUTE_NAMES if r in costs or not offered and (
        r == "doubled" or r == "factored" and vectors is not None)]
    return [textcirc.Plan(*frame, *textcirc._route(kraus, vectors, sizes, order, route),
                          costs.get(route, math.inf)) for route in routes]


def _four_wire_word(mechanism: str, slots, rng) -> LexiconEntry:
    """A word of ``mechanism`` on ``slots`` of four wires of dimension 4,
    of one Kraus operator or R ≤ d canonical vectors."""
    d = 4 ** len(slots)
    labels = tuple(f"s{w}" for w in slots)
    if mechanism == "projector":
        return LexiconEntry("w", labels, "pure", mechanism, random_pure(d, rng))
    if mechanism == "ddm":
        return LexiconEntry("w", labels, "ddm", mechanism, random_ddm(d, rng, 1))
    rank = d if mechanism == "phaser" else max(1, d // 2)
    return LexiconEntry("w", labels, "density", mechanism, random_density(d, rng, rank=rank))


class TestRoutes:
    @settings(max_examples=120)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        order=st.randoms(use_true_random=False),
        two_slots=st.booleans(),
        mechanism=st.sampled_from(MECHANISMS),
        exponent=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_thin_and_kraus_routes_match_dense(
        self, dims, order, two_slots, mechanism, exponent, seed
    ):
        """Every route of one word, on permuted and non-adjacent slots, and
        on the whole block, where the doubled route permutes nothing."""
        rng = np.random.default_rng(seed)
        wires = list(range(len(dims)))
        order.shuffle(wires)
        slots = tuple(wires[: 2 if two_slots and len(dims) > 1 else 1])
        d = int(np.prod([dims[w] for w in slots]))
        entry = _route_word(mechanism, d, 10.0**exponent, rng)
        operand, kraus, vectors = _gate_parts(entry, mechanism)
        rho = linalg.hermitize(random_density(int(np.prod(dims)), rng).matrix)
        for plan in _route_plans(slots, dims, kraus, vectors, offered=False):
            gate = Gate(slots, mechanism, operand, "w", kraus, plan)
            dense = apply_gate_dense(rho, gate, dims)
            local = _applied(rho, gate, dims)
            assert linalg.max_abs(local - dense) <= 1e-10 * linalg.max_abs(dense)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_every_position_frame_and_form(self, mechanism):
        """Leading, middle and trailing wires, in and out of order, adjacent
        and not, through every route, with the wires trailing the column
        index (b = 1) and not."""
        rng = np.random.default_rng(11)
        dims = (2, 3, 4, 2)
        seen = set()
        for slots in [(0,), (1,), (3,), (0, 1), (1, 0), (1, 2), (2, 1), (2, 3),
                      (3, 2), (0, 2), (3, 1), (0, 3)]:
            d = int(np.prod([dims[w] for w in slots]))
            entry = _route_word(mechanism, d, 1.0, rng)
            operand, kraus, vectors = _gate_parts(entry, mechanism)
            rho = linalg.hermitize(random_density(int(np.prod(dims)), rng).matrix)
            for plan in _route_plans(slots, dims, kraus, vectors, offered=False):
                gate = Gate(slots, mechanism, operand, "w", kraus, plan)
                dense = apply_gate_dense(rho, gate, dims)
                local = _applied(rho, gate, dims)
                assert linalg.max_abs(local - dense) <= 1e-10 * linalg.max_abs(dense)
                seen.add((plan.axes is None, plan.b == 1, plan.route))
        frames = {(True, True), (True, False), (False, True)}
        assert seen == {frame + (route,) for frame in frames for route in ROUTE_NAMES}

    def test_local_kernel_check_takes_both_routes(self, monkeypatch):
        """``verify``'s local-kernel-matches-dense, at its default seed, meets
        every route on the dense joint: the Kraus and thin routes on both
        frames, each on adjacent wires with b = 1 and b > 1; the doubled
        route on the whole block and on a part of it, where it reads its
        paired frame, and on one wire in the paired frame that the step
        before left the block in; and the factored route. On the factor it
        meets the Kraus, thin and doubled routes, on both frames. Each gate
        of its circuits is one of the steps seen."""
        seen, kept, factor_steps = [], [], []
        apply, step = textcirc._apply_gate, textcirc._factor_step

        def spy(x, frame, gate, dims, trace):
            plan = gate.plan
            seen.append((plan.route, plan.axes is None, plan.b == 1, plan.around == (1, 1)))
            if plan.route == "doubled" and len(gate.slots) == 1 and plan.frame is not None:
                kept.append(frame == plan.frame)
            return apply(x, frame, gate, dims, trace)

        def factor_spy(factor, gate, dims):
            factor_steps.append((gate.plan.route, gate.plan.axes is None))
            return step(factor, gate, dims)

        seeds = np.random.SeedSequence(DEFAULT_SEED).spawn(len(ALL_CHECKS))
        seed = seeds[ALL_CHECKS.index(check_local_kernel)]
        circuits = _kernel_circuits(np.random.default_rng(seed), 10)  # n at 100 trials
        gates = sum(len(circuit.gates) for circuit, _ in circuits)
        monkeypatch.setattr(textcirc, "_apply_gate", spy)
        monkeypatch.setattr(textcirc, "_factor_step", factor_spy)
        assert check_local_kernel(np.random.default_rng(seed), 100, (2, 5)).passed
        assert len(seen) + len(factor_steps) == gates
        assert {(route, adjacent) for route, adjacent, _, _ in seen if route in ROUTE_NAMES[:2]} \
            == {(route, adjacent) for route in ROUTE_NAMES[:2] for adjacent in (True, False)}
        assert {(route, last) for route, adjacent, last, _ in seen
                if adjacent and route in ROUTE_NAMES[:2]} == {
            ("kraus", True), ("kraus", False), ("thin", True), ("thin", False)}
        assert {whole for route, _, _, whole in seen if route == "doubled"} == {True, False}
        assert "factored" in {route for route, *_ in seen} and True in kept
        assert {route for route, _ in factor_steps} == set(ROUTE_NAMES[:3])
        assert {adjacent for _, adjacent in factor_steps} == {True, False}

    def test_doubled_route_holds_no_more_than_the_joint(self):
        """A ddm of 14 full-rank factors on one wire of dimension 32, alone
        in its block (D = 32): one d² × d² product would cost less than its
        14 Kraus steps, but Φ would hold 32⁴ entries, a thousand joints, so
        the gate takes another route, and compiling it allocates well below
        one Φ."""
        d, rng = 32, np.random.default_rng(19)
        factors = []
        for _ in range(14):
            basis = random_unitary(d, rng)
            branches = [DdmBranch(float(x), PureState(basis[:, i]))
                        for i, x in enumerate(rng.uniform(0.2, 1.0, d))]
            factors.append(DdmFactor(float(rng.uniform(0.2, 1.0)), branches))
        entries = [LexiconEntry("A", "s", "density", "fuzz", random_density(d, rng)),
                   LexiconEntry("w", "s", "ddm", "ddm", DoubleDensityMatrix(factors))]
        tracemalloc.start()
        try:
            circuit = compile_sentences([Introduce("A"), IsA("A", "w")],
                                        Lexicon({"s": d}, entries))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        plan = circuit.gates[0].plan
        doubled = d**4 + textcirc.CALL_COST + textcirc.PASS_COST * d**2
        assert plan.route != "doubled" and doubled < plan.dense_cost
        assert peak < d**4 * 16 / 4

    def test_factored_route_holds_no_more_than_the_joint(self):
        """A ddm of 3 factors of 16 branches each on one wire of dimension
        16, alone in its block (D = 16) of three gates: V would hold 16² ×
        768 entries, so the gate takes another route, while a projector and
        a fuzz of three levels take V; no compiled V holds more than the
        joint's D² for each gate of the block, the word's m Kraus operators'
        m·d² and 400 more entries (a bound that each gate's D² alone meets
        here)."""
        d, rng = 16, np.random.default_rng(23)
        factors = []
        for _ in range(3):
            basis = random_unitary(d, rng)
            branches = [DdmBranch(float(x), PureState(basis[:, i]))
                        for i, x in enumerate(rng.uniform(0.2, 1.0, d))]
            factors.append(DdmFactor(float(rng.uniform(0.2, 1.0)), branches))
        basis = random_unitary(d, rng)[:, :3]
        levels = DensityMatrix((basis * [0.5, 0.3, 0.2]) @ basis.conj().T)
        entries = [LexiconEntry("A", "s", "density", "fuzz", random_density(d, rng)),
                   LexiconEntry("w", "s", "ddm", "ddm", DoubleDensityMatrix(factors)),
                   LexiconEntry("p", "s", "pure", "projector", random_pure(d, rng)),
                   LexiconEntry("f", "s", "density", "fuzz", levels)]
        sentences = [Introduce("A"), IsA("A", "w"), IsA("A", "p"), IsA("A", "f")]
        circuit = compile_sentences(sentences, Lexicon({"s": d}, entries))
        routes = [gate.plan.route for gate in circuit.gates]
        assert routes[0] in ("kraus", "thin") and routes[1:] == ["factored", "factored"]
        spare = textcirc.CALL_COST // textcirc.PASS_COST
        for gate in circuit.gates[1:]:
            assert gate.plan.doubled[1].size <= d * d + len(gate.kraus) * d * d + spare

    @pytest.mark.parametrize("size, largest", [
        (16, {1: 3, 2000: 2002}), (64, {1: 2, 2000: 2001}), (4096, {1: 2, 2000: 2001}),
    ])
    def test_largest_v_offered(self, size, largest):
        """The largest V offered to a word of one operator on the whole of a
        block that runs n gates: d²·s ≤ n·D² + d² + 400, d = D, so s ≤ n + 2
        at D = 16 (V of 768 and 512,512 entries for n = 1 and 2,000) and
        s ≤ n + 1 at D = 64 (8,192 and 8,196,096) and D = 4,096 (two joints
        and 2,001)."""
        frame = textcirc._frame((0,), (size,))
        for gates, s in largest.items():
            def offered(s):
                return "factored" in textcirc._route_costs(frame, size, size, 1, (1,) * s, gates)
            assert offered(s) and not offered(s + 1)

    @pytest.mark.parametrize("size", [256, 1024, 4096])
    def test_large_v_is_not_picked_at_large_sizes(self, size):
        """From D = 256 up the cost picks V on the whole block only where each
        factor has rank 1 (s = r), so that V holds no more entries than the
        word's Kraus operators, however many gates the block runs."""
        frame = textcirc._frame((0,), (size,))
        for ranks in [(1,), (2,), (1, 2), (2, 2), (3, 3, 3), (4,), (1,) * 8, (8,), (16,)]:
            costs = textcirc._route_costs(frame, size, size, len(ranks), ranks, 10**9)
            picked = min(costs, key=costs.get)
            assert picked != "factored" or set(ranks) == {1}, ranks

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("slots", [(0,), (1,), (3,), (0, 1), (2, 1), (2, 3)])
    def test_adjacent_slots_copy_no_joint(self, mechanism, slots):
        """On adjacent wires the kernel allocates only its products' outputs,
        never a permuted copy of the joint: below 2.5 joints at peak for one
        Kraus operator, or for R ≤ d canonical vectors.

        (A sum of m ≥ 2 Kraus terms also holds the running sum, 3 joints.)
        """
        rng = np.random.default_rng(5)
        dims = [4, 4, 4, 4]
        word = _four_wire_word(mechanism, slots, rng)
        gate, rho = _one_gate(word, slots, dims, rng)
        assert gate.plan.thin or len(gate.kraus) == 1
        tracemalloc.start()
        try:
            _apply_gate(rho, None, gate, dims, np.trace(rho).real)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * rho.nbytes

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("slots", [(0,), (1,), (3,), (0, 1), (2, 1), (2, 3)])
    def test_paired_frame_copies_no_joint(self, mechanism, slots):
        """The doubled route, where it is offered, held in the paired frame
        that its block keeps between single-wire steps, also allocates below
        2.5 joints at peak: it too makes no permuted copy of the joint."""
        rng = np.random.default_rng(5)
        dims = [4, 4, 4, 4]
        word = _four_wire_word(mechanism, slots, rng)
        gate, rho = _one_gate(word, slots, dims, rng)
        plans = _route_plans(slots, dims, gate.kraus, _gate_parts(word, mechanism)[2])
        (plan,) = [plan for plan in plans if plan.route == "doubled"]
        held = textcirc._reframed(rho, None, plan.frame, dims)
        tracemalloc.start()
        try:
            _apply_gate(held, plan.frame, dataclasses.replace(gate, plan=plan), dims,
                        np.trace(rho).real)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * rho.nbytes

    def test_kernel_of_a_fuzz_takes_no_part_in_the_plan(self):
        """σ of rank 2 on C⁴ whose kernel's roundoff eigenvalues average
        4.5e-17: ``kraus``, which export lists, has no factor on the kernel;
        the plan applies σ's two eigenspaces only, and matches the dense
        route."""
        sigma = random_density(4, np.random.default_rng(0), rank=2)
        word = LexiconEntry("w", "s1", "density", "fuzz", sigma)
        dims = [2, 4, 3]
        gate, rho = _one_gate(word, (1,), dims, np.random.default_rng(1))
        assert len(gate.kraus) == 2
        plan = gate.plan
        assert (plan.mask.shape[0] if plan.thin else len(plan.steps)) == 2
        dense = apply_gate_dense(rho, gate, dims)
        local = _applied(rho, gate, dims)
        assert linalg.max_abs(local - dense) <= 1e-10 * linalg.max_abs(dense)


def _text(dims, priors, words, rng, scales=None, groups=None):
    """A circuit over actors A0.. on wires ``dims`` with priors of the given
    kinds ("ket", "density" of random rank, each scaled by 10^scale, or
    None for the default, whose wire a fuzz by the identity opens), and
    one gate per (mechanism or "void", subject, object): a noun where
    subject and object coincide, else a verb. Without ``groups`` the
    actors are joined into one block (``_links``) and the object is any
    actor modulo the wire count; with them, it is drawn among the actors
    of the subject's group, so that each group is a union of blocks."""
    n = len(dims)
    scales = scales or [0.0] * n
    entries, sentences = [], []
    if groups is None:
        entries, sentences = _links([(f"A{w}", f"s{w}", d) for w, d in enumerate(dims)])
        groups = [0] * n
    sentences = [Introduce(f"A{w}") for w in range(n)] + sentences
    for w, (d, kind, scale) in enumerate(zip(dims, priors, scales)):
        if kind == "ket":
            ket = PureState(10.0 ** (scale / 2) * random_pure(d, rng).amplitudes)
            entries.append(LexiconEntry(f"A{w}", f"s{w}", "pure", "projector", ket))
        elif kind == "density":
            rank = int(rng.integers(1, d + 1))
            prior = DensityMatrix(10.0**scale * random_density(d, rng, rank=rank).matrix)
            entries.append(LexiconEntry(f"A{w}", f"s{w}", "density", "fuzz", prior))
        else:
            one = DensityMatrix.identity(d)
            entries.append(LexiconEntry(f"one{w}", f"s{w}", "density", "fuzz", one))
            sentences.append(IsA(f"A{w}", f"one{w}"))
    for g, (mechanism, subject, obj) in enumerate(words):
        subject = subject % n
        group = [w for w in range(n) if groups[w] == groups[subject]]
        obj = group[obj % len(group)]
        slots = (subject,) if subject == obj else (subject, obj)
        labels = tuple(f"s{w}" for w in slots)
        d = int(np.prod([dims[w] for w in slots]))
        if mechanism == "void":  # no positive eigenvalue: annihilates every state
            zero = DensityMatrix(np.zeros((d, d)))
            entries.append(LexiconEntry(f"w{g}", labels, "density", "fuzz", zero))
        else:
            entries.append(_scaled_word(f"w{g}", mechanism, labels, d, 1.0, rng))
        if len(slots) == 1:
            sentences.append(IsA(f"A{subject}", f"w{g}"))
        else:
            sentences.append(Transitive(f"A{subject}", f"w{g}", f"A{obj}"))
    spaces = {f"s{w}": d for w, d in enumerate(dims)}
    return compile_sentences(sentences, Lexicon(spaces, entries))


class TestFactorRoute:
    @settings(max_examples=100)
    @given(
        dims=st.lists(st.integers(2, 4), min_size=1, max_size=4),
        priors=st.lists(st.sampled_from(["ket", "density", None]), min_size=4, max_size=4),
        words=st.lists(
            st.tuples(
                st.sampled_from(MECHANISMS + ("void",)), st.integers(0, 3), st.integers(0, 3)
            ),
            min_size=1,
            max_size=6,
        ),
        renorm=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_factor_and_dense_agree(self, dims, priors, words, renorm, seed):
        """Every gate on the factor, or every gate on the dense joint: the
        joint trace and each reduced state agree within 1e-10 of their
        scale, and an annihilated state raises under renormalization on
        both."""
        circuit = _text(dims, priors, words, np.random.default_rng(seed))
        results = {}
        for route, cost in ROUTES.items():
            with mock.patch.object(textcirc, "EIGH_CALL", cost):
                try:
                    world = evaluate(circuit, renorm)
                except ZeroTraceError:
                    results[route] = None
                    continue
            assert (world.factor is not None) == (route == "factor")
            states = [reduced_state(world, a.name).matrix for a in circuit.actors]
            results[route] = world.trace, states
        factor, dense = results["factor"], results["dense"]
        assert (factor is None) == (dense is None)
        if dense is not None:
            scale = max(abs(dense[0]), *map(linalg.max_abs, dense[1]))
            assert abs(factor[0] - dense[0]) <= 1e-10 * scale
            for ours, theirs in zip(factor[1], dense[1]):
                assert linalg.max_abs(ours - theirs) <= 1e-10 * scale

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_compression_keeps_a_small_eigenvalue(self, monkeypatch, route):
        """diag(1, 1e-11) through two identity phasers: compressing L between
        them keeps the small eigenvalue, which is the whole weight of its rows."""
        monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES[route])
        prior = DensityMatrix(np.diag([1.0, 1e-11]))
        one = DensityMatrix.identity(2)
        lex = Lexicon(
            {"c": 2},
            [
                LexiconEntry("Door", "c", "density", "fuzz", prior),
                LexiconEntry("one", "c", "density", "phaser", one),
            ],
        )
        world = evaluate(compile_text("Door is one. Door is one.", lex))
        assert reduced_state(world, "Door").matrix[1, 1].real == pytest.approx(1e-11, rel=1e-6)

    @pytest.mark.parametrize("route", ["factor", "default"])
    @pytest.mark.parametrize(
        "prior, vast",
        [([1.0, 1e-20, 0.0, 0.0], [0.0, 1e300, 0.0, 0.0]), ([1.0, 1e30, 0.0, 0.0], [1e300, 0.0, 0.0, 0.0])],
    )
    def test_compression_keeps_what_the_dense_joint_keeps(self, monkeypatch, route, prior, vast):
        """Four kets and Door, joined (D = 1024): a gate on another wire, then a
        phaser that keeps only Door's direction of weight 1e-20 (or 1, next
        to 1e30). The compression before the phaser must keep that
        direction, however small against the largest eigenvalue, so the
        trace and Door's state match the dense route's."""
        rng = np.random.default_rng(11)
        entries = [
            LexiconEntry(f"A{w}", "c", "pure", "projector", random_pure(4, rng)) for w in range(4)
        ]
        entries += [
            LexiconEntry("Door", "c", "density", "fuzz", DensityMatrix(np.diag(prior))),
            LexiconEntry("one", "c", "density", "phaser", DensityMatrix.identity(4)),
            LexiconEntry("vast", "c", "density", "phaser", DensityMatrix(np.diag(vast))),
        ]
        links, linked = _links([(name, "c", 4) for name in ("A0", "A1", "A2", "A3", "Door")])
        text = "".join(f"Once there was A{w}. " for w in range(4))
        text += "Once there was Door. " + "".join(f"{s.subject} {s.verb} {s.object}. " for s in linked)
        circuit = compile_text(text + "A0 is one. Door is vast.", Lexicon({"c": 4}, entries + links))
        monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES["dense"])
        dense = evaluate(circuit)
        monkeypatch.undo()
        if route == "factor":
            monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES["factor"])
        world = evaluate(circuit)
        assert world.factor is not None
        assert dense.trace > 1e279
        assert world.trace == pytest.approx(dense.trace, rel=1e-12)
        ours, theirs = reduced_state(world, "Door").matrix, reduced_state(dense, "Door").matrix
        assert linalg.max_abs(ours - theirs) <= 1e-12 * linalg.max_abs(theirs)

    def test_a_text_switches_once_then_stays_dense(self, monkeypatch):
        """Four pure dim-4 actors, joined (D = 256), under a full-rank fuzz: each gate
        multiplies the rank by 4 until the dense step costs less than the
        factor's; from there every gate is dense."""
        rng = np.random.default_rng(3)
        entries = [
            LexiconEntry(f"A{w}", "s", "pure", "projector", random_pure(4, rng)) for w in range(4)
        ]
        entries.append(LexiconEntry("w", "s", "density", "fuzz", random_density(4, rng)))
        links, sentences = _links([(f"A{w}", "s", 4) for w in range(4)])
        sentences += [IsA(f"A{g % 4}", "w") for g in range(8)]
        circuit = compile_sentences(sentences, Lexicon({"s": 4}, entries + links))
        steps = []
        for name in ("_factor_step", "_apply_gate"):
            def spy(*args, real=getattr(textcirc, name), name=name):
                steps.append(name)
                return real(*args)

            monkeypatch.setattr(textcirc, name, spy)
        worlds = evaluate_trajectory(circuit)
        switch = steps.index("_apply_gate")
        assert switch > 0 and set(steps[switch:]) == {"_apply_gate"}
        assert [w.factor is not None for w in worlds] == [True] * (switch + 1) + [False] * (
            len(steps) - switch
        )
        monkeypatch.setattr(textcirc, "EIGH_CALL", math.inf)
        dense = evaluate(circuit).joint.matrix
        assert linalg.max_abs(worlds[-1].joint.matrix - dense) <= 1e-10 * linalg.max_abs(dense)

    def test_chain_evaluates_without_the_dense_joint(self, monkeypatch):
        """Five dim-4 actors chained by four verbs, one per mechanism, from
        two kets, a rank-4 state and two default priors (D = 1024): no
        Kronecker product of the priors, and less memory at peak than one
        D × D joint (16 MiB)."""
        rng = np.random.default_rng(5)
        entries = [
            LexiconEntry("A0", "s", "pure", "projector", random_pure(4, rng)),
            LexiconEntry("A2", "s", "density", "fuzz", random_density(4, rng)),
            LexiconEntry("A4", "s", "pure", "projector", random_pure(4, rng)),
            LexiconEntry("v0", ("s", "s"), "pure", "projector", random_pure(16, rng)),
            LexiconEntry("v1", ("s", "s"), "density", "fuzz", random_density(16, rng, rank=3)),
            LexiconEntry("v2", ("s", "s"), "density", "phaser", random_density(16, rng)),
            LexiconEntry("v3", ("s", "s"), "ddm", "ddm", random_ddm(16, rng, 2)),
        ]
        sentences = [Transitive(f"A{i}", f"v{i}", f"A{i + 1}") for i in range(4)]
        circuit = compile_sentences(sentences, Lexicon({"s": 4}, entries))

        def kron_all(matrices):
            raise AssertionError("the priors' Kronecker product was built")

        monkeypatch.setattr(linalg, "kron_all", kron_all)
        tracemalloc.start()
        try:
            world = evaluate(circuit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert world.factor is not None and world.trace > 0
        assert peak < 1024 * 1024 * 16

    def test_long_text_runs_dense_from_each_first_gate(self, monkeypatch):
        """Three dim-4 actors as in the long-text benchmark: A0 a ket, A1 the
        default prior, so L has 4 columns at D = 16, and A2 a full-rank
        density; verbs of every mechanism join only A0 and A1. Every gate
        runs dense from its block's first gate: no factor step is taken."""
        rng = np.random.default_rng(13)
        entries = [
            LexiconEntry("A0", "s", "pure", "projector", random_pure(4, rng)),
            LexiconEntry("A2", "s", "density", "fuzz", random_density(4, rng)),
        ]
        for prefix, space, dim in (("n", "s", 4), ("v", ("s", "s"), 16)):
            entries += [
                LexiconEntry(f"{prefix}0", space, "pure", "projector", random_pure(dim, rng)),
                LexiconEntry(f"{prefix}1", space, "density", "fuzz", random_density(dim, rng, rank=2)),
                LexiconEntry(f"{prefix}2", space, "density", "phaser", random_density(dim, rng)),
                LexiconEntry(f"{prefix}3", space, "ddm", "ddm", random_ddm(dim, rng, 2)),
            ]
        sentences = [Introduce(f"A{w}") for w in range(3)]
        for i in range(48):
            if i % 3 == 0:
                pair = ("A0", "A1") if i % 2 else ("A1", "A0")
                sentences.append(Transitive(pair[0], f"v{i % 4}", pair[1]))
            else:
                sentences.append(IsA(f"A{i // 3 % 3}", f"n{i % 4}"))
        circuit = compile_sentences(sentences, Lexicon({"s": 4}, entries))
        assert circuit.components == ((0, 1), (2,))

        def factor_step(*args):
            raise AssertionError("a gate ran on the factor")

        monkeypatch.setattr(textcirc, "_factor_step", factor_step)
        worlds = evaluate_trajectory(circuit, True)
        assert [block.factor.shape for block in worlds[0].blocks] == [(16, 4), (4, 4)]
        for gate, world in zip(circuit.gates, worlds[1:]):
            (block,) = (block for block in world.blocks if gate.slots[0] in block.wires)
            assert block.factor is None


class TestPriorRoot:
    def test_rank_one_density_prior_keeps_one_column(self, monkeypatch):
        """Five rank-1 priors given as matrices, chained by four verbs
        (D = 1024): each root has one column, not the prior's roundoff
        eigenvalues besides, so every gate stays on the factor; the result
        matches the dense route."""
        rng = np.random.default_rng(5)
        entries = [
            LexiconEntry(f"A{i}", "s", "density", "fuzz", from_pure(random_pure(4, rng)))
            for i in range(5)
        ]
        entries += [
            LexiconEntry("v0", ("s", "s"), "pure", "projector", random_pure(16, rng)),
            LexiconEntry("v1", ("s", "s"), "density", "fuzz", random_density(16, rng, rank=3)),
            LexiconEntry("v2", ("s", "s"), "density", "phaser", random_density(16, rng)),
            LexiconEntry("v3", ("s", "s"), "ddm", "ddm", random_ddm(16, rng, 2)),
        ]
        sentences = [Transitive(f"A{i}", f"v{i}", f"A{i + 1}") for i in range(4)]
        circuit = compile_sentences(sentences, Lexicon({"s": 4}, entries))
        assert [a.root.shape[1] for a in circuit.actors] == [1] * 5
        steps = []
        step = textcirc._factor_step

        def spy(factor, gate, dims):
            steps.append(gate.label)
            return step(factor, gate, dims)

        monkeypatch.setattr(textcirc, "_factor_step", spy)
        world = evaluate(circuit)
        assert world.factor is not None and len(steps) == 4
        monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES["dense"])
        dense = evaluate(circuit)
        assert world.trace == pytest.approx(dense.trace, rel=1e-10)
        for a in circuit.actors:
            ours, theirs = reduced_state(world, a.name).matrix, reduced_state(dense, a.name).matrix
            assert linalg.max_abs(ours - theirs) <= 1e-10 * linalg.max_abs(theirs)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("diagonal", [[1.0, 1e30], [1.0, 1e-20]])
    def test_diagonal_prior_keeps_both_columns(self, monkeypatch, route, diagonal):
        """diag(1, 1e30) keeps its 1 and diag(1, 1e-20) its 1e-20: each is
        the whole weight of its row. A phaser that keeps only that row
        gives the same state on the factor and on the dense joint."""
        prior = DensityMatrix(np.diag(diagonal))
        keep = 1 if diagonal[1] < 1 else 0
        lex = Lexicon(
            {"c": 2},
            [
                LexiconEntry("Door", "c", "density", "fuzz", prior),
                LexiconEntry("one", "c", "density", "phaser", DensityMatrix.identity(2)),
                LexiconEntry("row", "c", "pure", "projector", PureState.basis(2, keep)),
            ],
        )
        circuit = compile_text("Door is one. Door is row.", lex)
        root = circuit.actors[0].root
        assert root.shape[1] == 2
        assert np.diagonal(root @ root.conj().T).real == pytest.approx(diagonal, rel=1e-12)
        monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES[route])
        world = evaluate(circuit)
        assert (world.factor is not None) == (route == "factor")
        assert world.trace == pytest.approx(diagonal[keep], rel=1e-12)
        assert reduced_state(world, "Door").matrix[keep, keep].real == pytest.approx(diagonal[keep], rel=1e-12)


class TestBlocks:
    @settings(max_examples=150)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=2, max_size=6).filter(
            lambda dims: math.prod(dims) <= 256
        ),
        priors=st.lists(st.sampled_from(["ket", "density", None]), min_size=6, max_size=6),
        scales=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
        groups=st.lists(st.integers(0, 3), min_size=6, max_size=6),
        words=st.lists(
            st.tuples(
                st.sampled_from(MECHANISMS + ("void",)), st.integers(0, 5), st.integers(0, 5)
            ),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_match_the_dense_joint(self, dims, priors, scales, groups, words, seed):
        """One block per component against the dense joint of all actors
        (the priors' Kronecker product, each gate by the dense route on its
        global slots), in both modes: the joint trace, the joint and each
        reduced state agree within 1e-10 of their scale, and an
        annihilated state raises under renormalization on both sides or
        on neither. Both modes hold the same blocks, bit for bit."""
        circuit = _text(dims, priors, words, np.random.default_rng(seed), scales, groups)
        dims = [a.dim for a in circuit.actors]
        for renorm in (False, True):
            try:
                joint = linalg.kron_all(a.prior.matrix for a in circuit.actors)
                for gate in circuit.gates:
                    joint = apply_gate_dense(joint, gate, dims)
                    if renorm:
                        joint = joint / nonzero_trace(np.trace(joint).real)
            except ZeroTraceError:
                with pytest.raises(ZeroTraceError):
                    evaluate(circuit, renorm)
                continue
            world = evaluate(circuit, renorm)
            assert not renorm or _same_blocks(world, evaluate(circuit))
            states = [linalg.partial_trace(joint, dims, [w]) for w in range(len(dims))]
            scale = max(abs(np.trace(joint).real), *map(linalg.max_abs, states))
            assert abs(world.trace - np.trace(joint).real) <= 1e-10 * scale
            assert linalg.max_abs(world.joint.matrix - joint) <= 1e-10 * scale
            for actor, theirs in zip(circuit.actors, states):
                ours = reduced_state(world, actor.name).matrix
                assert linalg.max_abs(ours - theirs) <= 1e-10 * scale


def _same_blocks(a, b) -> bool:
    """Whether two worlds hold the same blocks, bit for bit."""

    def held(block):
        return block.dense if block.factor is None else block.factor

    return len(a.blocks) == len(b.blocks) and all(
        (x.wires, x.frame, x.exponent, x.trace) == (y.wires, y.frame, y.exponent, y.trace)
        and (x.factor is None) == (y.factor is None)
        and held(x).shape == held(y).shape
        and held(x).tobytes() == held(y).tobytes()
        for x, y in zip(a.blocks, b.blocks)
    )


class TestLongText:
    def test_likelihood_below_the_float_range(self):
        """400 sentences over three dim-4 actors, A0 and A1 joined by
        verbs, every mechanism: each gate keeps about a seventh of the
        trace, so the likelihood falls far below the float range. Both
        modes hold the same blocks, bit for bit, and the log-likelihood
        stays finite."""
        rng = np.random.default_rng(17)
        entries, words = [], {m: [] for m in MECHANISMS}
        for i in range(16):
            mechanism, verb = MECHANISMS[i % 4], i >= 8
            name = f"{'v' if verb else 'n'}{i}"
            spaces, d = (("c", "c"), 16) if verb else ("c", 4)
            entries.append(_scaled_word(name, mechanism, spaces, d, 1.0, rng))
            words[mechanism].append((name, verb))
        sentences = []
        for g in range(400):
            name, verb = words[MECHANISMS[g % 4]][int(rng.integers(4))]
            if verb:
                a, b = ("A0", "A1") if rng.random() < 0.5 else ("A1", "A0")
                sentences.append(Transitive(a, name, b))
            else:
                sentences.append(IsA(f"A{int(rng.integers(3))}", name))
        circuit = compile_sentences(sentences, Lexicon({"c": 4}, entries))
        assert sorted(map(len, circuit.components)) == [1, 2]
        world = evaluate(circuit)
        assert world.trace == 0.0
        assert -math.inf < world.log_trace < -745.0
        assert _same_blocks(world, evaluate(circuit, True))


def _one_gate(word: LexiconEntry, slots, dims, rng):
    """The gate of ``word`` on ``slots`` among actors A0.. on wires ``dims``,
    joined into one block, and a random joint state."""
    links, sentences = _links([(f"A{w}", f"s{w}", d) for w, d in enumerate(dims)])
    sentences = [Introduce(f"A{w}") for w in range(len(dims))] + sentences
    if len(slots) == 2:
        sentences.append(Transitive(f"A{slots[0]}", word.name, f"A{slots[1]}"))
    else:
        sentences.append(IsA(f"A{slots[0]}", word.name))
    entries = [word] + links + [
        LexiconEntry(f"A{w}", f"s{w}", "density", "fuzz", DensityMatrix.identity(d))
        for w, d in enumerate(dims)
    ]
    spaces = {f"s{w}": d for w, d in enumerate(dims)}
    *_, gate = compile_sentences(sentences, Lexicon(spaces, entries)).gates
    rho = linalg.hermitize(random_density(int(np.prod(dims)), rng).matrix)
    return gate, rho


def _scaled_lexicon(words, actors: int, scale: float, seed: int) -> Lexicon:
    """Actor priors, then one word per (name, mechanism, spaces).

    Only the fuzz and phaser operands are multiplied by ``scale``.
    """
    rng = np.random.default_rng(seed)
    entries = [
        LexiconEntry(f"A{i}", "c", "pure", "projector", random_pure(2, rng))
        for i in range(actors)
    ]
    for name, mechanism, spaces in words:
        c = scale if mechanism in ("fuzz", "phaser") else 1.0
        entries.append(_scaled_word(name, mechanism, spaces, 2 ** len(spaces), c, rng))
    return Lexicon({"c": 2}, entries)


class TestScaleFree:
    @settings(max_examples=60)
    @given(
        actors=st.integers(1, 3),
        gates=st.lists(
            st.tuples(st.sampled_from(MECHANISMS), st.integers(0, 2), st.integers(0, 2)),
            min_size=1,
            max_size=5,
        ),
        exponent=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_operand_scale_factors_out(self, actors, gates, exponent, seed):
        """Scaling each fuzz/phaser operand by c scales the final joint by c^k,
        and so moves its log-likelihood by k·ln c."""
        words, sentences = [], [Introduce(f"A{i}") for i in range(actors)]
        for g, (mechanism, subject, obj) in enumerate(gates):
            subject, obj = subject % actors, obj % actors
            transitive = subject != obj
            words.append((f"w{g}", mechanism, ("c", "c") if transitive else ("c",)))
            if transitive:
                sentences.append(Transitive(f"A{subject}", f"w{g}", f"A{obj}"))
            else:
                sentences.append(IsA(f"A{subject}", f"w{g}"))
        c = 10.0**exponent
        k = sum(mechanism in ("fuzz", "phaser") for mechanism, _, _ in gates)
        base, scaled = (
            evaluate(compile_sentences(sentences, _scaled_lexicon(words, actors, x, seed)))
            for x in (1.0, c)
        )
        expected = c**k * base.joint.matrix
        gap = linalg.max_abs(scaled.joint.matrix - expected)
        assert gap <= 1e-9 * linalg.max_abs(expected)
        assert scaled.log_trace == pytest.approx(base.log_trace + k * math.log(c), abs=1e-9)

    @settings(max_examples=100)
    @given(
        actors=st.integers(1, 3),
        gates=st.lists(
            st.tuples(st.sampled_from(MECHANISMS), st.integers(0, 2), st.integers(0, 2)),
            min_size=1,
            max_size=5,
        ),
        exponent=st.integers(-300, 300),
        route=st.sampled_from(sorted(ROUTES)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_prior_scale_factors_out(self, actors, gates, exponent, route, seed):
        """Scaling every density prior by c = 10^e, however far from 1,
        leaves each renormalized reduced state within 1e-12 of its largest
        entry, on the factor and on the dense joint, though the priors'
        product, their eigenvalues or the first dense joint leave the float
        range."""
        rng = np.random.default_rng(seed)
        priors = [random_density(2, rng).matrix for _ in range(actors)]
        words, sentences = [], [Introduce(f"A{i}") for i in range(actors)]
        for g, (mechanism, subject, obj) in enumerate(gates):
            subject, obj = subject % actors, obj % actors
            transitive = subject != obj
            spaces, dim = (("c", "c"), 4) if transitive else ("c", 2)
            words.append(_scaled_word(f"w{g}", mechanism, spaces, dim, 1.0, rng))
            if transitive:
                sentences.append(Transitive(f"A{subject}", f"w{g}", f"A{obj}"))
            else:
                sentences.append(IsA(f"A{subject}", f"w{g}"))
        states = []
        for c in (1.0, 10.0**exponent):
            entries = [
                LexiconEntry(f"A{i}", "c", "density", "fuzz", DensityMatrix(c * prior))
                for i, prior in enumerate(priors)
            ]
            circuit = compile_sentences(sentences, Lexicon({"c": 2}, entries + words))
            with mock.patch.object(textcirc, "EIGH_CALL", ROUTES[route]):
                world = evaluate(circuit, True)
            states.append([reduced_state(world, a.name).matrix for a in circuit.actors])
        for ours, theirs in zip(*states):
            assert linalg.max_abs(ours - theirs) <= 1e-12 * linalg.max_abs(theirs)


class TestHermitianPart:
    @settings(max_examples=60)
    @given(
        actors=st.integers(1, 4),
        gates=st.lists(
            st.tuples(
                st.sampled_from(MECHANISMS),
                st.integers(0, 1),
                st.integers(0, 3),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=40,
        ),
        renorm=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        actors=2,
        gates=[("projector", 1, 0, 1), ("projector", 1, 1, 0)],
        renorm=False,
        seed=4294967295,
    )
    def test_hermitian_part_at_exit_equals_one_per_gate(
        self, actors, gates, renorm, seed
    ):
        """Every gate preserves Hermiticity, so where Herm is taken is roundoff.

        The chain hermitizes after every gate, as the kernel once did. Words
        are reused across gates and slots. Verbs by the identity after the
        last gate join the actors into one block, so that every gate of the
        chain applies to the joint of all of them. The bound allows D·eps
        per gate of the circuit, the joining verbs included, relative to
        the largest entry of any state along the chain: a gate's roundoff
        scales with its input, not with a nearly annihilated result (the
        pinned example ends at 1.6e-4 of its priors' scale).
        """
        words, sentences = {}, [Introduce(f"A{i}") for i in range(actors)]
        for mechanism, variant, subject, obj in gates:
            subject, obj = subject % actors, obj % actors
            transitive = subject != obj
            name = f"{mechanism}{variant}{'v' if transitive else 'n'}"
            words[name] = (name, mechanism, ("c", "c") if transitive else ("c",))
            if transitive:
                sentences.append(Transitive(f"A{subject}", name, f"A{obj}"))
            else:
                sentences.append(IsA(f"A{subject}", name))
        lex = _scaled_lexicon(list(words.values()), actors, 1.0, seed)
        links, linked = _links([(f"A{i}", "c", 2) for i in range(actors)])
        lex = Lexicon(lex.spaces, [*lex.entries.values(), *links])
        circuit = compile_sentences(sentences + linked, lex)
        dims = [a.dim for a in circuit.actors]
        chain = linalg.kron_all(a.prior.matrix for a in circuit.actors)
        peak = linalg.max_abs(chain)
        for gate in circuit.gates:
            chain = linalg.hermitize(_applied(chain, gate, dims))
            if renorm:
                chain = chain / np.trace(chain).real
            peak = max(peak, linalg.max_abs(chain))
        exit_state = linalg.hermitize(evaluate(circuit, renorm).joint.matrix)
        bound = len(circuit.gates) * circuit.joint_dim * np.finfo(float).eps
        assert linalg.max_abs(exit_state - chain) <= bound * peak


def _near_annihilation(mechanism: str, exponent: int, dim: int, weights) -> Circuit:
    rng = np.random.default_rng(7)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q = np.linalg.qr(z)[0]
    a, rest = q[:, 0], q[:, 1 : 1 + len(weights)]
    weight = 10.0**-exponent
    if mechanism == "projector":
        ket = np.sqrt(1 - weight) * rest[:, 0] + np.sqrt(weight) * a
        word = LexiconEntry("w", "c", "pure", mechanism, PureState(ket))
    else:
        sigma = (rest * weights) @ rest.conj().T + weight * np.outer(a, a.conj())
        word = LexiconEntry("w", "c", "density", mechanism, DensityMatrix(sigma))
    door = LexiconEntry("Door", "c", "pure", "projector", PureState(a))
    circuit = compile_text("Door is w.", Lexicon({"c": dim}, [door, word]))
    world = evaluate(circuit)
    door_state = reduced_state(world, "Door")
    if exponent == 20:
        assert linalg.max_abs(world.joint.matrix) == 0.0
    else:
        assert door_state.trace == pytest.approx(weight, rel=1e-6, abs=0.0)
    return circuit


class TestReducedState:
    def test_reduction_after_gate(self):
        lex = _verb_lexicon()
        circuit = compile_sentences(
            [Introduce("Ann"), Introduce("Rex"), Transitive("Ann", "bites", "Rex")],
            lex,
        )
        world = evaluate(circuit)
        ann = reduced_state(world, "Ann")
        assert ann.dim == 2
        assert ann.trace == pytest.approx(world.joint.trace)

    @pytest.mark.parametrize("mechanism", ["projector", "fuzz", "phaser"])
    @pytest.mark.parametrize("exponent", [10, 20])
    def test_near_annihilation_leaves_a_psd_state(self, mechanism, exponent):
        """The word keeps weight 10^-exponent on Door's prior ket a.

        Its other directions leave roundoff far above 1e-20, or above
        1e-9 of 1e-10, on the state; it must neither fail the PSD check
        nor be kept when it is below roundoff.
        """
        _near_annihilation(mechanism, exponent, 3, [0.7, 0.3])

    @pytest.mark.parametrize("mechanism", ["projector", "fuzz", "phaser"])
    @pytest.mark.parametrize("exponent", [10, 20])
    def test_near_annihilation_on_the_thin_route(self, monkeypatch, mechanism, exponent):
        """As above at dim 5, where each word takes the thin route when
        the route is chosen by multiply-adds alone, calls and passes
        costing nothing.

        The fuzz weights every other direction.
        """
        monkeypatch.setattr(textcirc, "CALL_COST", 0)
        monkeypatch.setattr(textcirc, "PASS_COST", 0)
        weights = [0.4, 0.3, 0.2, 0.1] if mechanism == "fuzz" else [0.7, 0.3]
        circuit = _near_annihilation(mechanism, exponent, 5, weights)
        assert circuit.gates[0].plan.thin

    @pytest.mark.parametrize("dim", [4, 5])
    def test_fuzz_keeps_a_small_eigenvalue_next_to_its_kernel(self, dim):
        """σ = 0.7|r1⟩⟨r1| + 0.3|r2⟩⟨r2| + 1e-10|a⟩⟨a| with a kernel: the
        fuzz keeps 1e-10 of Door = |a⟩ and gives σ's kernel no weight."""
        _near_annihilation("fuzz", 10, dim, [0.7, 0.3])

    @pytest.mark.parametrize("mechanism", ["projector", "fuzz", "phaser"])
    @pytest.mark.parametrize("exponent", [10, 20])
    def test_near_annihilation_on_the_factor(self, monkeypatch, mechanism, exponent):
        """The two tests above with every gate on the factor ρ = L L†: the
        floor that makes an annihilated state exactly 0 is the factor's."""
        monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES["factor"])
        self.test_near_annihilation_leaves_a_psd_state(mechanism, exponent)
        self.test_near_annihilation_on_the_thin_route(monkeypatch, mechanism, exponent)

    @pytest.mark.parametrize("dim", [4, 5])
    def test_fuzz_keeps_a_small_eigenvalue_on_the_factor(self, monkeypatch, dim):
        """As above, with every gate on the factor ρ = L L†."""
        monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES["factor"])
        self.test_fuzz_keeps_a_small_eigenvalue_next_to_its_kernel(dim)

    def test_unknown_actor(self):
        world = evaluate(compile_text("Door is black.", _noun_lexicon()))
        with pytest.raises(UnknownActorError):
            reduced_state(world, "Window")


def _exact_bound_only(monkeypatch):
    """Every plan compiled from here on has gain inf: the cheap bound
    never clears a result, so the exact one runs at every gate."""
    route = textcirc._route
    monkeypatch.setattr(textcirc, "_route", lambda *args: (*route(*args)[:-1], math.inf))


def _switching_circuit() -> Circuit:
    """Four pure dim-4 actors, joined (D = 256), under a full-rank fuzz:
    the block starts on the factor and goes dense along the text."""
    rng = np.random.default_rng(3)
    entries = [
        LexiconEntry(f"A{w}", "s", "pure", "projector", random_pure(4, rng)) for w in range(4)
    ]
    entries.append(LexiconEntry("w", "s", "density", "fuzz", random_density(4, rng)))
    links, sentences = _links([(f"A{w}", "s", 4) for w in range(4)])
    sentences += [IsA(f"A{g % 4}", "w") for g in range(8)]
    return compile_sentences(sentences, Lexicon({"s": 4}, entries + links))


def _door_circuit(word: LexiconEntry, text: str) -> Circuit:
    door = LexiconEntry("Door", "c", "pure", "projector", PureState([1.0, 0.0]))
    return compile_text(text, Lexicon({"c": 2}, [door, word]))


#: Texts whose results the roundoff cut decides: the form switch, then a
#: phaser by 1e-14·I, an orthogonal projector, a fuzz without operators,
#: and words that keep 1e-10 or 1e-20 of Door's ket.
CUT_CASES = {
    "switch": _switching_circuit,
    "dim": lambda: _door_circuit(
        LexiconEntry("dim", "c", "density", "phaser", DensityMatrix(1e-14 * np.eye(2))),
        "Door is dim.",
    ),
    "down": lambda: _door_circuit(
        LexiconEntry("down", "c", "pure", "projector", PureState([0.0, 1.0])), "Door turns down."
    ),
    "void": lambda: _door_circuit(
        LexiconEntry("void", "c", "density", "fuzz", DensityMatrix(np.zeros((2, 2)))),
        "Door is void. Door is void.",
    ),
    **{
        f"{mechanism}-{exponent}": (
            lambda mechanism=mechanism, exponent=exponent: _near_annihilation(
                mechanism, exponent, 3, [0.7, 0.3]
            )
        )
        for mechanism in ("projector", "fuzz", "phaser")
        for exponent in (10, 20)
    },
}


class TestCheapBound:
    @settings(max_examples=60)
    @given(
        mechanism=st.sampled_from(MECHANISMS + ("void",)),
        low=st.floats(-20.0, -1.0),
        columns=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cheap_bound_covers_the_exact_one(self, mechanism, low, columns, seed):
        """gain·max|ρ_ii| ≥ ``_noise`` for every route of every mechanism and
        the fuzz without operators, on slots of both frames, from the
        diagonal of a dense joint and of a factor, whose entries span
        10^low to 1."""
        rng = np.random.default_rng(seed)
        dims = (2, 3, 2)
        size = math.prod(dims)
        factor = rng.normal(size=(size, columns)) + 1j * rng.normal(size=(size, columns))
        exponents = rng.uniform(low, 0.0, size)
        exponents[0], exponents[-1] = 0.0, low
        factor *= (10.0 ** (exponents / 2) / np.linalg.norm(factor, axis=1))[:, None]
        joint = factor @ factor.conj().T
        frames = set()
        for slots in [(0,), (1,), (2,), (0, 1), (1, 0), (1, 2), (0, 2), (2, 0)]:
            d = math.prod(dims[w] for w in slots)
            if mechanism == "void":
                entry = LexiconEntry("w", "s", "density", "fuzz", DensityMatrix(np.zeros((d, d))))
            else:
                entry = _route_word(mechanism, d, 1.0, rng)
            _, kraus, vectors = _gate_parts(entry, entry.mechanism)
            for plan in _route_plans(slots, dims, kraus, vectors):
                frames.add(plan.axes is None)
                for diag in (np.abs(joint.diagonal()), textcirc._weights(factor)):
                    assert diag.max() == pytest.approx(1.0) and diag.min() < 10.0 ** (low + 1e-9)
                    roots = np.sqrt(diag)
                    if plan.axes is not None:
                        roots = roots.reshape(dims).transpose(plan.axes[: len(dims)])
                    assert plan.gain * diag.max() >= textcirc._noise(plan, roots)
        assert frames == {True, False}

    @pytest.mark.parametrize("route", ["default", *sorted(ROUTES)])
    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    def test_exact_bound_at_every_gate_changes_no_bit(self, monkeypatch, route, case):
        """With the gain inf, every gate pays for the exact bound; each world
        of the trajectory is the same, bit for bit, as with the cheap bound
        first, on the default form choice, the factor and the dense joint."""
        if route != "default":
            monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES[route])
        cheap = evaluate_trajectory(CUT_CASES[case]())
        _exact_bound_only(monkeypatch)
        circuit = CUT_CASES[case]()
        calls = []
        noise = textcirc._noise
        monkeypatch.setattr(textcirc, "_noise", lambda *args: calls.append(1) or noise(*args))
        exact = evaluate_trajectory(circuit)
        assert len(calls) == len(circuit.gates)
        assert len(cheap) == len(exact) and all(map(_same_blocks, cheap, exact))

    def test_switching_text_switches(self):
        """The switch case above starts on the factor and ends dense."""
        worlds = evaluate_trajectory(_switching_circuit())
        assert worlds[0].factor is not None and worlds[-1].factor is None

    def test_long_text_pays_no_exact_bound(self, monkeypatch):
        """2,000 sentences over three dim-4 actors, A0 a ket and A2 a
        full-rank density, verbs joining A0 and A1 only, words of every
        mechanism: the cheap bound clears every gate, so ``_noise`` is never
        called, and compiling builds one Gate per distinct sentence. Each
        plan's step adjoints are formed once, when its route is compiled:
        evaluating forms no route, and every product with an adjoint takes
        one of those arrays. The gates take every route; each doubled plan's
        Φ is Σ_k S_k ⊗ S̄_k of its own steps S_k, and each factored plan's
        V·V† is that of its A_k = W_k W_k†, in the paired frame's order."""
        rng = np.random.default_rng(1401)
        entries = [
            LexiconEntry("A0", "c", "pure", "projector", random_pure(4, rng)),
            LexiconEntry("A2", "c", "density", "fuzz", random_density(4, rng)),
        ]
        words = {m: [] for m in MECHANISMS}
        for i in range(24):
            mechanism, verb = MECHANISMS[i % 4], i >= 16
            name = f"{'v' if verb else 'n'}{i}"
            spaces, d = (("c", "c"), 16) if verb else ("c", 4)
            entries.append(_scaled_word(name, mechanism, spaces, d, 1.0, rng))
            words[mechanism].append((name, verb))
        sentences = []
        for _ in range(2000):
            mechanism = MECHANISMS[int(rng.integers(4))]
            if rng.random() < 0.25:
                verbs = [name for name, verb in words[mechanism] if verb]
                a, b = ("A0", "A1") if rng.random() < 0.5 else ("A1", "A0")
                sentences.append(Transitive(a, verbs[int(rng.integers(len(verbs)))], b))
            else:
                nouns = [name for name, verb in words[mechanism] if not verb]
                actor, noun = f"A{int(rng.integers(3))}", nouns[int(rng.integers(len(nouns)))]
                sentences.append((IsA if rng.random() < 0.5 else Turns)(actor, noun))
        made, calls, routes = [], [], []
        gate, noise, route = textcirc.Gate, textcirc._noise, textcirc._route
        monkeypatch.setattr(textcirc, "Gate", lambda *a, **kw: made.append(1) or gate(*a, **kw))
        monkeypatch.setattr(textcirc, "_noise", lambda *args: calls.append(1) or noise(*args))
        monkeypatch.setattr(textcirc, "_route", lambda *args: routes.append(1) or route(*args))
        circuit = compile_sentences(sentences, Lexicon({"c": 4}, entries))
        distinct = len(set(sentences))
        assert len(circuit.gates) == 2000 and distinct < 200
        assert len(made) == len({id(g) for g in circuit.gates}) == distinct
        plans = {id(g.plan): g.plan for g in circuit.gates}
        assert 0 < len(routes) <= len(plans) < distinct
        adjoints = {id(a) for plan in plans.values() for a in plan.adjoints}
        assert {plan.route for plan in plans.values()} == set(ROUTE_NAMES)
        for plan in plans.values():
            assert len(plan.adjoints) == len(plan.steps)
            for step, adjoint in zip(plan.steps, plan.adjoints):
                assert adjoint.tobytes() == step.conj().T.tobytes()
            if plan.route == "doubled":  # on one wire the paired frame's order is kron's
                kron = sum(np.kron(step, step.conj()) for step in plan.steps)
                assert np.abs(plan.doubled[0] - kron).max() <= 1e-15 * np.abs(kron).max()
            if plan.route == "factored":  # on both wires of the block
                w = plan.steps[1]
                kron = sum(np.kron(a, a.conj()) for a in (w[:, g] @ w[:, g].conj().T
                                                           for g in plan.groups))
                paired = (0, 2, 1, 3, 4, 6, 5, 7)  # (i₀, i₁, j₀, j₁) as (i₀, j₀, i₁, j₁), both sides
                kron = kron.reshape([4] * 8).transpose(paired).reshape(256, 256)
                vh, v = plan.doubled
                assert vh.tobytes() == v.conj().T.tobytes()
                assert np.abs(v @ vh - kron).max() <= 1e-14 * np.abs(kron).max()
        compiled, used, sandwich = len(routes), set(), textcirc._sandwich
        monkeypatch.setattr(
            textcirc, "_sandwich", lambda *args: used.add(id(args[2])) or sandwich(*args)
        )
        world = evaluate(circuit, True)
        assert calls == [] and len(routes) == compiled
        assert used and used <= adjoints
        assert all(block.factor is None for block in world.blocks)


def _trace_test_holds(circuit: Circuit, renorm: bool) -> int:
    """Run the trajectory, checking at every dense step the two facts that
    its cheap roundoff test rests on (``_apply_gate``): the input's largest
    |S_ii| is at most twice its block's carried trace, and wherever the
    test on the trace clears the result before any cut, ``Plan.clears`` on
    the true diagonals clears it too. Stops where renormalizing meets an
    annihilated block. Every gate the walk took must have been a factor
    step or a checked dense step. Returns the number of dense steps checked."""
    checked, factor_steps, apply, step = [], [], textcirc._apply_gate, textcirc._factor_step

    def spy(x, frame, gate, dims, trace):
        before = np.abs(x.take(textcirc._diagonal_at(frame, tuple(dims))))
        assert before.max() <= 2.0 * trace
        bare = dataclasses.replace(gate, plan=dataclasses.replace(gate.plan, gain=0.0))
        out, held, tr = apply(x, frame, bare, dims, trace)  # gain 0: no cut
        if gate.plan.clears(tr / x.shape[0], 2.0 * trace):
            peak = np.abs(out.take(textcirc._diagonal_at(held, tuple(dims)))).max()
            assert gate.plan.clears(peak, before.max())
        checked.append(gate.label)
        return apply(x, frame, gate, dims, trace)

    def factor_spy(factor, gate, dims):
        factor_steps.append(gate.label)
        return step(factor, gate, dims)

    walked = 0  # the priors, then each gate the walk finished
    with mock.patch.object(textcirc, "_apply_gate", spy), \
            mock.patch.object(textcirc, "_factor_step", factor_spy):
        try:
            for _ in textcirc._trajectory(circuit, renorm):
                walked += 1
            gates = walked - 1
        except ZeroTraceError:
            assert renorm
            gates = walked  # with the gate that annihilated its block, if any
    assert len(checked) + len(factor_steps) == gates
    return len(checked)


def _pinned_route(route: str):
    """``_route_costs`` with ``route``'s cost set one unit below the
    cheapest, wherever the gate has that route: the Kraus and doubled
    routes always, the doubled one also where its Φ would outgrow the
    joint, and the thin and factored ones where the gate has canonical
    vectors, the factored one also on a part of its block."""
    costs = textcirc._route_costs

    def pinned(frame, d, size, m, ranks, gates):
        by = costs(frame, d, size, m, ranks, gates)
        if route in by or route == "doubled" or route == "factored" and ranks is not None:
            by[route] = min(by.values()) - 1
        return by

    return pinned


class TestTraceTest:
    @settings(max_examples=80)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        priors=st.lists(st.sampled_from(["ket", "density", None]), min_size=4, max_size=4),
        scales=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
        words=st.lists(
            st.tuples(
                st.sampled_from(MECHANISMS + ("void",)), st.integers(0, 3), st.integers(0, 3)
            ),
            min_size=1,
            max_size=8,
        ),
        route=st.sampled_from(ROUTE_NAMES),
        form=st.sampled_from(["default", "dense"]),
        renorm=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trace_test_rests_on_the_diagonals(
        self, dims, priors, scales, words, route, form, renorm, seed
    ):
        """Random texts of every mechanism, one block, each route, the
        default form choice or dense from the first gate, both modes."""
        rng = np.random.default_rng(seed)
        with mock.patch.object(textcirc, "_route_costs", _pinned_route(route)), \
                mock.patch.object(textcirc, "EIGH_CALL", ROUTES["dense"] if form == "dense"
                                  else textcirc.EIGH_CALL):
            circuit = _text(dims, priors[: len(dims)], words, rng, scales[: len(dims)])
            _trace_test_holds(circuit, renorm)

    @pytest.mark.parametrize("renorm", [False, True])
    @pytest.mark.parametrize("route", ROUTE_NAMES)
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_every_frame(self, monkeypatch, mechanism, route, renorm):
        """Each mechanism on every slot shape of wires (2, 3, 2) on the
        dense joint: adjacent with b = 1 and b > 1, and permuted."""
        monkeypatch.setattr(textcirc, "_route_costs", _pinned_route(route))
        monkeypatch.setattr(textcirc, "EIGH_CALL", ROUTES["dense"])
        slots = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (0, 2), (2, 0)]
        words = [(mechanism, s, o) for s, o in slots] * 2
        circuit = _text((2, 3, 2), ["ket", "density", None], words, np.random.default_rng(5))
        plans = [gate.plan for gate in circuit.gates]
        assert {plan.route for plan in plans} == {route}
        frames = {(plan.axes is None, plan.b == 1) for plan in plans}
        assert frames == {(True, True), (True, False), (False, True)}
        assert _trace_test_holds(circuit, renorm) == len(circuit.gates)

    @pytest.mark.parametrize("renorm", [False, True])
    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    def test_form_switch_and_annihilations(self, case, renorm):
        """The text that goes dense along the way, and the texts whose
        results the roundoff cut decides, where the next step reads the
        state that the cut leaves, in actor order."""
        assert _trace_test_holds(CUT_CASES[case](), renorm) > 0 or renorm


def _walk(circuit: Circuit, renorm: bool) -> list:
    """The blocks at each step of the walk, as ``evaluate_trajectory`` reads
    them, then ``evaluate``'s, up to the error that stops them, if any."""
    steps = []
    try:
        steps.extend(textcirc._trajectory(circuit, renorm))
        steps.append(evaluate(circuit, renorm).blocks)
    except (ZeroTraceError, NumericalFailureError) as exc:
        steps.append(str(exc))
    return steps


def _reduced(circuit: Circuit, blocks, renorm: bool) -> list:
    """Each actor's reduced state of the world of ``blocks``, or the error's type."""
    world = textcirc._world(circuit, blocks, renorm)
    states = []
    for actor in circuit.actors:
        try:
            states.append(reduced_state(world, actor.name).matrix)
        except (ZeroTraceError, NumericalFailureError, NotPSDError) as exc:
            states.append(type(exc))
    return states


class TestWindow:
    @settings(max_examples=100)
    @given(
        actors=st.integers(1, 3),
        gates=st.lists(
            st.tuples(
                st.sampled_from(MECHANISMS + ("near", "near ket")),
                st.integers(0, 2),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=12,
        ),
        kets=st.lists(st.booleans(), min_size=3, max_size=3),
        prior=st.integers(-300, 300),
        word=st.integers(-280, 280),
        near=st.sampled_from([3, 10, 20, 155]),
        form=st.sampled_from(sorted(ROUTES)),
        renorm=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        actors=1,
        gates=[("near ket", 0, 0), ("near ket", 0, 0)],
        kets=[True] * 3,
        prior=0,
        word=0,
        near=155,
        form="factor",
        renorm=False,
        seed=0,
    )
    def test_rescaling_out_of_the_window_is_exact(
        self, actors, gates, kets, prior, word, near, form, renorm, seed
    ):
        """A dense block rescaled only where its trace leaves [2^-WINDOW, 2)
        gives the bits of one rescaled at every gate (WINDOW = 1, [1/2, 2)):
        each block's state, trace, exponent and frame and each reduced state,
        after every gate and at the end, or the error that stops the walk,
        with priors scaled by 10^±300 and words by 10^±280, both forms and
        both modes. "near" words keep 10^-near of e0, on which the ket
        priors lie, and "near ket" projectors 10^-2·near: at 10^-155 a
        factor's trace falls below what 2^1022 lifts into [1/2, 2). Every
        block that leaves the evaluator is read-only."""
        rng = np.random.default_rng(seed)
        entries, sentences = [], [Introduce(f"A{i}") for i in range(actors)]
        for i, ket in enumerate(kets[:actors]):
            if ket:
                e0 = PureState(10.0 ** (prior / 2) * np.eye(2)[0])
                entries.append(LexiconEntry(f"A{i}", "c", "pure", "projector", e0))
            else:
                rho = DensityMatrix(10.0**prior * random_density(2, rng).matrix)
                entries.append(LexiconEntry(f"A{i}", "c", "density", "fuzz", rho))
        for g, (mechanism, subject, obj) in enumerate(gates):
            subject, obj = subject % actors, obj % actors
            transitive = subject != obj
            spaces, dim = (("c", "c"), 4) if transitive else ("c", 2)
            if mechanism == "near":
                sigma = 10.0**word * np.diag([10.0**-near] + [1.0] * (dim - 1))
                entries.append(LexiconEntry(f"w{g}", spaces, "density", "phaser",
                                            DensityMatrix(sigma)))
            elif mechanism == "near ket":
                ket = PureState([10.0**-near] + [1.0] * (dim - 1))
                entries.append(LexiconEntry(f"w{g}", spaces, "pure", "projector", ket))
            else:
                entries.append(_scaled_word(f"w{g}", mechanism, spaces, dim, 10.0**word, rng))
            if transitive:
                sentences.append(Transitive(f"A{subject}", f"w{g}", f"A{obj}"))
            else:
                sentences.append(IsA(f"A{subject}", f"w{g}"))
        circuit = compile_sentences(sentences, Lexicon({"c": 2}, entries))
        runs = []
        for window in (1, textcirc.WINDOW):
            with mock.patch.object(textcirc, "WINDOW", window), \
                    mock.patch.object(textcirc, "EIGH_CALL", ROUTES[form]):
                runs.append(_walk(circuit, renorm))
        every, windowed = runs
        assert len(every) == len(windowed)
        for theirs, ours in zip(every, windowed):
            if isinstance(ours, str):
                assert ours == theirs
                continue
            for a, b in zip(theirs, ours):
                assert (a.trace, a.exponent, a.frame) == (b.trace, b.exponent, b.frame)
                state_a, state_b = (x.dense if x.factor is None else x.factor for x in (a, b))
                assert np.array_equal(state_a, state_b)
                assert not state_a.flags.writeable and not state_b.flags.writeable
            for x, y in zip(_reduced(circuit, theirs, renorm), _reduced(circuit, ours, renorm)):
                assert x is y if isinstance(x, type) else np.array_equal(x, y)

    @pytest.mark.parametrize("renorm", [False, True])
    def test_window_is_exact_down_to_its_floor(self, renorm):
        """A ket prior under a phaser that keeps 10^-3 of its weight, 120
        times on the dense joint: the trace falls through the window every
        seventh gate, down to 2^-WINDOW, and reads the bits of rescaling at
        every gate all the way. A floor past the normal range would not:
        the state would fall below 2^-1022 after about 100 gates."""
        door = LexiconEntry("Door", "c", "pure", "projector", PureState([1.0, 0.0]))
        dim = LexiconEntry("dim", "c", "density", "phaser", DensityMatrix(np.diag([1e-3, 1.0])))
        circuit = compile_text("Door is dim. " * 120, Lexicon({"c": 2}, [door, dim]))
        runs = []
        for window in (1, textcirc.WINDOW):
            with mock.patch.object(textcirc, "WINDOW", window), \
                    mock.patch.object(textcirc, "EIGH_CALL", ROUTES["dense"]):
                runs.append(_walk(circuit, renorm))
        assert len(runs[0]) == len(runs[1]) == 122
        for (a,), (b,) in zip(*runs):
            assert (a.trace, a.exponent) == (b.trace, b.exponent)
            assert np.array_equal(a.dense, b.dense)

    @pytest.mark.parametrize("renorm", [False, True])
    @pytest.mark.parametrize("sentences", [1, 2])
    def test_factor_trace_below_the_normal_range(self, renorm, sentences):
        """A ket prior on the factor under a projector whose ket keeps 10^-155
        of e0: the new factor's trace, about 10^-310, is below what 2^1022
        (``_exponent``'s bound) lifts into [1/2, 2), so its block keeps that
        trace below 1/2 and the exponent the plan's shift less 1022, in
        ``evaluate`` and in ``evaluate_trajectory``; the same word again
        leaves the likelihood as it is and brings the trace into [1/2, 2)."""
        door = LexiconEntry("Door", "c", "pure", "projector", PureState([1.0, 0.0]))
        dim = LexiconEntry("dim", "c", "pure", "projector", PureState([1e-155, 1.0]))
        circuit = compile_text("Door is dim. " * sentences, Lexicon({"c": 2}, [door, dim]))
        with mock.patch.object(textcirc, "EIGH_CALL", ROUTES["factor"]):
            steps = [world.blocks for world in evaluate_trajectory(circuit, renorm)]
            last = evaluate(circuit, renorm).blocks
        assert len(steps) == sentences + 1
        (first,) = steps[1]
        assert first.dense is None and first.trace < 0.5
        assert first.exponent == circuit.gates[0].plan.shift - 1022
        likelihood = math.ldexp(first.trace, first.exponent)
        assert likelihood == pytest.approx(1e-310, rel=1e-10)
        for (a,) in steps[1:]:
            assert a.dense is None and not a.factor.flags.writeable
        (a,), (b,) = steps[-1], last
        assert (a.trace, a.exponent) == (b.trace, b.exponent)
        assert np.array_equal(a.factor, b.factor) and not b.factor.flags.writeable
        if sentences == 2:
            assert 0.5 <= b.trace < 2.0
            assert math.ldexp(b.trace, b.exponent) == pytest.approx(likelihood, rel=1e-10)

    def test_long_text_rescales_rarely(self, tmp_path):
        """On long-text seed 7 (``tests/test_bench_workloads.py``'s inputs) a
        dense block's trace stays in [2^-WINDOW, 2) through all but a few of
        its steps: the walk rescales under 5% of them, where rescaling at
        every gate moved 65% (1,303 of 2,002 steps of one text). A rescale
        shows as an input trace other than the result's trace of the block's
        last dense step."""
        from test_bench_workloads import SEED, _gen

        from fuzzphaser.lexicon import load_lexicon

        manifest = _gen().generate("long-text", SEED, tmp_path)
        lexicon = load_lexicon(manifest["lexicon"])
        apply, last, steps, rescaled = textcirc._apply_gate, {}, [], []

        def spy(x, frame, gate, dims, trace):
            if last.get(gate.block, trace) != trace:
                rescaled.append(gate.label)
            out = apply(x, frame, gate, dims, trace)
            last[gate.block] = out[2]
            steps.append(gate.label)
            return out

        with mock.patch.object(textcirc, "_apply_gate", spy):
            for case in manifest["texts"]:
                last.clear()
                circuit = compile_text(Path(case["path"]).read_text(encoding="utf-8"), lexicon)
                evaluate(circuit, True)
        assert len(steps) > 7000
        assert len(rescaled) < 0.05 * len(steps)


#: (sentence, its Sentence) pairs for texts drawn with repeats: both forms
#: of "is", "an", "turns", verbs both ways and "Once there was".
POOL = [
    ("Once there was C", Introduce("C")),
    ("A is a n0", IsA("A", "n0")),
    ("A is n0", IsA("A", "n0")),
    ("B is an n1", IsA("B", "n1")),
    ("B turns n2", Turns("B", "n2")),
    ("A v0 B", Transitive("A", "v0", "B")),
    ("C v1 A", Transitive("C", "v1", "A")),
    ("B v0 C", Transitive("B", "v0", "C")),
]

#: Sentences that fail: an unknown word, a noun on another space (a space
#: mismatch wherever A also takes a word on "c"), a self-transitive verb,
#: and a shape that matches no pattern.
BAD_POOL = [
    ("A is zz", IsA("A", "zz")),
    ("A is m0", IsA("A", "m0")),
    ("A v0 A", Transitive("A", "v0", "A")),
    ("A B C D E", None),
]


def _pool_lexicon() -> Lexicon:
    rng = np.random.default_rng(18)
    entries = [
        LexiconEntry("n0", "c", "pure", "projector", random_pure(2, rng)),
        LexiconEntry("n1", "c", "density", "fuzz", random_density(2, rng)),
        LexiconEntry("n2", "c", "density", "phaser", random_density(2, rng)),
        LexiconEntry("v0", ("c", "c"), "ddm", "ddm", random_ddm(4, rng)),
        LexiconEntry("v1", ("c", "c"), "density", "fuzz", random_density(4, rng, rank=2)),
        LexiconEntry("m0", "d", "density", "fuzz", random_density(3, rng)),
        LexiconEntry("C", "c", "pure", "projector", random_pure(2, rng)),
    ]
    return Lexicon({"c": 2, "d": 3}, entries)


def _compiled(sentences) -> Circuit | Exception:
    try:
        return compile_sentences(sentences, _pool_lexicon())
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return exc


class TestDistinctSentences:
    @settings(max_examples=150)
    @given(
        drawn=st.lists(st.integers(0, len(POOL) + len(BAD_POOL) - 1), min_size=1, max_size=30),
        bad=st.booleans(),
        gaps=st.lists(st.sampled_from([" ", "\n", "  \n ", "\n\n"]), min_size=30, max_size=30),
    )
    def test_shared_sentences_compile_as_fresh_copies(self, drawn, bad, gaps):
        """A text drawn from a pool with repeats: parse shares one Sentence
        per token sequence, and compiling those is compiling fresh, unshared
        copies of them: the same actors, spaces, components, labels, slots
        and mechanisms, one Gate per distinct label, the same trajectory bit
        for bit, or the same first error, raised at its first occurrence."""
        pool = POOL + BAD_POOL if bad else POOL
        drawn = [i % len(pool) for i in drawn]
        text = "".join(pool[i][0] + "." + gap for i, gap in zip(drawn, gaps))
        shapeless = [n for n, i in enumerate(drawn) if pool[i][1] is None]
        if shapeless:
            with pytest.raises(ParseError) as err:
                parse(text)
            n = shapeless[0]
            first = "".join(pool[i][0] + "." + gap for i, gap in zip(drawn[:n], gaps))
            assert err.value.line == first.count("\n") + 1
            assert err.value.reason == "unrecognized sentence shape: 'A B C D E'"
            return
        sentences = parse(text)
        assert sentences == [pool[i][1] for i in drawn]
        assert len({id(s) for s in sentences}) == len({pool[i][0] for i in drawn})
        fresh = [dataclasses.replace(s) for s in sentences]
        assert len({id(s) for s in fresh}) == len(fresh)
        shared, copied = _compiled(sentences), _compiled(fresh)
        if isinstance(copied, Exception):
            assert type(shared) is type(copied) and str(shared) == str(copied)
            return
        assert [(a.name, a.space, a.dim) for a in shared.actors] == [
            (a.name, a.space, a.dim) for a in copied.actors]
        assert shared.components == copied.components
        assert [(g.label, g.slots, g.mechanism) for g in shared.gates] == [
            (g.label, g.slots, g.mechanism) for g in copied.gates]
        labels = {g.label for g in shared.gates}
        assert len({id(g) for g in shared.gates}) == len(labels)
        assert len({id(g) for g in copied.gates}) == len(labels)
        for renorm in (False, True):
            worlds = zip(evaluate_trajectory(shared, renorm), evaluate_trajectory(copied, renorm))
            assert all(_same_blocks(a, b) for a, b in worlds)


def _scaled_by(entry: LexiconEntry, k: int) -> LexiconEntry:
    """``entry`` with its operand times 2^k: a ket's amplitudes, a density
    matrix, or each ddm factor's weight y."""
    f = math.ldexp(1.0, k)
    if entry.kind == "pure":
        operand = PureState(entry.operand.amplitudes * f)
    elif entry.kind == "density":
        operand = DensityMatrix(entry.operand.matrix * f)
    else:
        factors = [DdmFactor(x.y * f, x.branches) for x in entry.operand.factors]
        operand = DoubleDensityMatrix(factors)
    return LexiconEntry(entry.name, entry.space, entry.kind, entry.mechanism, operand)


def _bench_like_text(rng):
    """A lexicon and 2,000 sentences shaped like the benchmark's long text:
    three dim-4 actors, A0 a ket, A1 the default prior and A2 a density;
    four nouns and two verbs per mechanism, projector words kets, fuzz and
    phaser words densities; verbs join A0 and A1 only."""
    entries = [
        LexiconEntry("A0", "c", "pure", "projector", random_pure(4, rng)),
        LexiconEntry("A2", "c", "density", "fuzz", random_density(4, rng)),
    ]
    words = {m: ([], []) for m in MECHANISMS}
    for i in range(24):
        mechanism, verb = MECHANISMS[i % 4], i >= 16
        name = f"{'v' if verb else 'n'}{i:03d}"
        spaces, d = (("c", "c"), 16) if verb else ("c", 4)
        entries.append(_scaled_word(name, mechanism, spaces, d, 1.0, rng))
        words[mechanism][verb].append(name)
    sentences = []
    for _ in range(2000):
        nouns, verbs = words[MECHANISMS[int(rng.integers(4))]]
        if rng.random() < 0.25:
            a, b = ("A0", "A1") if rng.random() < 0.5 else ("A1", "A0")
            sentences.append(Transitive(a, verbs[int(rng.integers(len(verbs)))], b))
        else:
            actor, noun = f"A{int(rng.integers(3))}", nouns[int(rng.integers(len(nouns)))]
            sentences.append((IsA if rng.random() < 0.5 else Turns)(actor, noun))
    return entries, sentences


def _render(s) -> str:
    if isinstance(s, Transitive):
        return f"{s.subject} {s.verb} {s.object}."
    return f"{s.actor} {'is' if isinstance(s, IsA) else 'turns'} {s.noun}."


class TestOperatorsCannotOverflow:
    @pytest.mark.parametrize("k", [-400, -256, -100, -4, 4, 100, 256, 400])
    def test_operand_scale_changes_no_bit(self, k):
        """Every operand and prior of a long text times 2^k: each plan's
        steps are the same (``Plan.shift`` takes up the scale), so the
        renormalized states are the same bit for bit, and the likelihood
        moves by exactly 2^(k·n), n the gates that are no projector plus 2
        for A0's ket and 1 for A2's density; or, past the float range,
        fails naming its sentence or the priors. k is a multiple of 4, since the thin
        route takes y^(1/4) of each ddm weight, and |k| ≤ 480: beyond, a
        ket's direction is read over its largest entry (``PureState``) and
        LAPACK scales the operands it decomposes."""
        entries, sentences = _bench_like_text(np.random.default_rng(1801))
        base = compile_sentences(sentences, Lexicon({"c": 4}, entries))
        scaled = [_scaled_by(e, k) for e in entries]
        scaled = compile_sentences(sentences, Lexicon({"c": 4}, scaled))
        power = k * (sum(g.mechanism != "projector" for g in base.gates) + 3)
        for renorm in (True, False):
            before = evaluate(base, renorm)
            try:
                after = evaluate(scaled, renorm)
            except NumericalFailureError as exc:
                assert not renorm and k > 0
                assert re.fullmatch(r'joint state is not finite (after "[^"]+"|at the priors)', str(exc))
                continue
            for x, y in zip(before.blocks, after.blocks):
                held = [b.dense if b.factor is None else b.factor for b in (x, y)]
                assert x.trace == y.trace and held[0].tobytes() == held[1].tobytes()
            assert after.exponent - before.exponent == power
            if not renorm:
                assert after.log_trace - before.log_trace == pytest.approx(
                    power * math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("flags", [[], ["--renormalize"]], ids=["likelihood", "renormalize"])
    def test_run_path_enters_no_errstate(self, tmp_path, capsys, monkeypatch, flags):
        """``fuzzphaser run`` on a 2,000-sentence text enters np.errstate
        zero times: no gate's products can overflow."""
        entries, sentences = _bench_like_text(np.random.default_rng(1802))
        lex, text = tmp_path / "lexicon.json", tmp_path / "text.txt"
        save_lexicon(Lexicon({"c": 4}, entries), lex)
        text.write_text("\n".join(map(_render, sentences)) + "\n")
        entered, errstate = [], np.errstate
        monkeypatch.setattr(
            np, "errstate", lambda *a, **kw: entered.append(1) or errstate(*a, **kw)
        )
        assert main(["run", str(text), "--lexicon", str(lex), *flags]) == 0
        assert "gates applied: 2000\n" in capsys.readouterr().out
        assert entered == []


def _weakest_word(name, mechanism, slots, rho, dims, keep, rng) -> LexiconEntry:
    """A word on ``slots`` that keeps ``keep`` of the weakest nonzero
    eigendirection u of ρ's reduced state on them (in slot order): a fuzz
    or phaser by I − (1 − keep)|u⟩⟨u|, or the projector onto √(1 − keep)·s
    + √keep·u, s the strongest direction."""
    kept = linalg.partial_trace(rho, dims, slots)
    if list(slots) != sorted(slots):  # partial_trace keeps wire order
        a, b = (dims[w] for w in sorted(slots))
        kept = kept.reshape(a, b, a, b).transpose(1, 0, 3, 2).reshape(a * b, a * b)
    evals, evecs = np.linalg.eigh(linalg.hermitize(kept))
    weakest = int(np.flatnonzero(evals > 1e-12 * evals[-1])[0])
    u, strongest = evecs[:, weakest], evecs[:, -1]
    labels = tuple(f"s{w}" for w in slots)
    if mechanism == "projector" or weakest == evals.size - 1:
        ket = np.sqrt(1.0 - keep) * strongest + np.sqrt(keep) * u
        if weakest == evals.size - 1:  # one direction only: a random other one
            other = random_pure(u.size, rng).amplitudes
            ket = np.sqrt(1.0 - keep) * other + np.sqrt(keep) * u
        return LexiconEntry(name, labels, "pure", "projector", PureState(ket))
    sigma = np.eye(u.size) - (1.0 - keep) * np.outer(u, u.conj())
    return LexiconEntry(name, labels, "density", mechanism, DensityMatrix(sigma))


class TestChainedRoundoff:
    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.lists(st.integers(2, 4), min_size=1, max_size=3),
        groups=st.lists(st.integers(0, 1), min_size=3, max_size=3),
        words=st.lists(
            st.tuples(
                st.sampled_from(["projector", "fuzz", "phaser"]),
                st.integers(0, 2),
                st.integers(0, 2),
                st.floats(4.0, 6.0),
            ),
            min_size=1,
            max_size=8,
        ),
        route=st.sampled_from(ROUTE_NAMES),
        form=st.sampled_from(["default", "factor", "dense"]),
        renorm=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exit_states_pass_the_check(self, dims, groups, words, route, form, renorm, seed):
        """Chains of projectors, fuzzes and phasers on 1-3 wires, in one
        block or several, each gate keeping 10^-4 to 10^-6 of the weakest
        direction of the state on its wires, on each route pinned, the
        default form choice or either form pinned, in both modes: every
        actor's state at exit passes ``reduced_state``'s check."""
        rng = np.random.default_rng(seed)
        n = len(dims)
        groups = groups[:n]
        entries, sentences = [], [Introduce(f"A{w}") for w in range(n)]
        for g in set(groups):
            members = [(f"A{w}", f"s{w}", dims[w]) for w in range(n) if groups[w] == g]
            links, linked = _links(members)
            entries, sentences = entries + links, sentences + linked
        for w, d in enumerate(dims):
            entries.append(LexiconEntry(f"A{w}", f"s{w}", "density", "fuzz", random_density(d, rng)))
        rho = linalg.kron_all(e.operand.matrix for e in entries[-n:])
        for i, (mechanism, subject, obj, exponent) in enumerate(words):
            subject = subject % n
            group = [w for w in range(n) if groups[w] == groups[subject]]
            obj = group[obj % len(group)]
            slots = (subject,) if subject == obj else (subject, obj)
            word = _weakest_word(f"w{i}", mechanism, slots, rho, dims, 10.0**-exponent, rng)
            entries.append(word)
            if len(slots) == 1:
                sentences.append(IsA(f"A{subject}", word.name))
            else:
                sentences.append(Transitive(f"A{subject}", word.name, f"A{obj}"))
            _, kraus, _ = _gate_parts(word, word.mechanism)
            rho = sum(
                k @ rho @ k.conj().T
                for k in (linalg.embed_on_subsystem(k, dims, slots) for k in kraus)
            )
            rho = rho / np.trace(rho).real
        eigh_call = {"default": textcirc.EIGH_CALL, **ROUTES}[form]
        with mock.patch.object(textcirc, "_route_costs", _pinned_route(route)), \
                mock.patch.object(textcirc, "EIGH_CALL", eigh_call):
            lexicon = Lexicon({f"s{w}": d for w, d in enumerate(dims)}, entries)
            circuit = compile_sentences(sentences, lexicon)
            world = evaluate(circuit, renorm)
        assert {gate.plan.route for gate in circuit.gates[-len(words):]} == {route}
        for w in range(n):
            reduced_state(world, f"A{w}")
