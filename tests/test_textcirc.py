import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


from fuzzphaser import linalg
from fuzzphaser import textcirc
from fuzzphaser.ddm import DdmBranch, DdmFactor, DoubleDensityMatrix
from fuzzphaser.density import DensityMatrix, PureState, from_pure, nonzero_trace
from fuzzphaser.errors import (
    DimensionOverflowError,
    LexiconError,
    ParseError,
    SpaceMismatchError,
    UnknownActorError,
    UnknownWordError,
    ZeroTraceError,
)
from fuzzphaser.properties import ALL_CHECKS, apply_gate_dense, check_local_kernel
from fuzzphaser.sampling import DEFAULT_SEED, random_ddm, random_density, random_psd, random_pure
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
    _plan,
    parse,
    reduced_state,
)
from fuzzphaser.update import fuzz

#: EIGH_CALL values that pin every gate of an evaluation to the factor
#: step (its cost -inf) or to the dense joint from the first gate (+inf).
ROUTES = {"factor": -math.inf, "dense": math.inf}


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
        plan = textcirc._plan

        def spy(frame, size, route, costs):
            sizes.append(size)
            return plan(frame, size, route, costs)

        monkeypatch.setattr(textcirc, "_plan", spy)
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
    @settings(max_examples=80, deadline=None, derandomize=True)
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
        local = _apply_gate(rho, gate, dims)
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


def _both_forms(slots, dims, kraus, vectors):
    """The Kraus and, if any, the thin plan."""
    frame, size = textcirc._frame(slots, dims), math.prod(dims)
    sizes, order = [dims[w] for w in slots], textcirc._order(slots)
    r = None if vectors is None else vectors[0].shape[1]
    plans = []
    by_kraus, by_thin = textcirc._route_costs(frame, math.prod(sizes), size, len(kraus), r)
    plans.append(_plan(frame, size, textcirc._route(kraus, None, sizes, order), by_kraus))
    if vectors is not None:
        route = textcirc._route(kraus, vectors, sizes, order)
        plans.append(_plan(frame, size, route, by_thin))
    return plans


class TestRoutes:
    @settings(max_examples=120, deadline=None, derandomize=True)
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
        """Both routes of one word, on permuted and non-adjacent slots."""
        rng = np.random.default_rng(seed)
        wires = list(range(len(dims)))
        order.shuffle(wires)
        slots = tuple(wires[: 2 if two_slots and len(dims) > 1 else 1])
        d = int(np.prod([dims[w] for w in slots]))
        entry = _route_word(mechanism, d, 10.0**exponent, rng)
        operand, kraus, vectors = _gate_parts(entry, mechanism)
        rho = linalg.hermitize(random_density(int(np.prod(dims)), rng).matrix)
        for plan in _both_forms(slots, dims, kraus, vectors):
            gate = Gate(slots, mechanism, operand, "w", kraus, plan)
            dense = apply_gate_dense(rho, gate, dims)
            local = _apply_gate(rho, gate, dims)
            assert linalg.max_abs(local - dense) <= 1e-10 * linalg.max_abs(dense)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_every_position_frame_and_form(self, mechanism):
        """Leading, middle and trailing wires, in and out of order, adjacent
        and not, through both routes, with the wires trailing the column
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
            for plan in _both_forms(slots, dims, kraus, vectors):
                gate = Gate(slots, mechanism, operand, "w", kraus, plan)
                dense = apply_gate_dense(rho, gate, dims)
                local = _apply_gate(rho, gate, dims)
                assert linalg.max_abs(local - dense) <= 1e-10 * linalg.max_abs(dense)
                seen.add((plan.axes is None, plan.b == 1, plan.thin))
        frames = {(True, True), (True, False), (False, True)}
        assert seen == {frame + (thin,) for frame in frames for thin in (True, False)}

    def test_local_kernel_check_takes_both_routes(self, monkeypatch):
        """``verify``'s local-kernel-matches-dense, at its default seed, meets
        both routes and both frames on the dense joint, each route on
        adjacent wires with b = 1 and b > 1, and both routes and both
        frames on the factor."""
        seen, factor_steps = [], set()
        apply, step = textcirc._apply_gate, textcirc._factor_step

        def spy(joint, gate, dims):
            plan = gate.plan
            seen.append((plan.thin, plan.axes is None, plan.b == 1))
            return apply(joint, gate, dims)

        def factor_spy(factor, gate, dims):
            factor_steps.add((gate.plan.thin, gate.plan.axes is None))
            return step(factor, gate, dims)

        monkeypatch.setattr(textcirc, "_apply_gate", spy)
        monkeypatch.setattr(textcirc, "_factor_step", factor_spy)
        seeds = np.random.SeedSequence(DEFAULT_SEED).spawn(len(ALL_CHECKS))
        rng = np.random.default_rng(seeds[ALL_CHECKS.index(check_local_kernel)])
        assert check_local_kernel(rng, 100, (2, 5)).passed
        assert {thin for thin, _, _ in seen} == {True, False}
        assert {adjacent for _, adjacent, _ in seen} == {True, False}
        assert {(thin, last) for thin, adjacent, last in seen if adjacent} == {
            (True, True), (True, False), (False, True), (False, False)}
        assert {thin for thin, _ in factor_steps} == {True, False}
        assert {adjacent for _, adjacent in factor_steps} == {True, False}

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
        d = int(np.prod([dims[w] for w in slots]))
        labels = tuple(f"s{w}" for w in slots)
        if mechanism == "projector":
            word = LexiconEntry("w", labels, "pure", mechanism, random_pure(d, rng))
        elif mechanism == "ddm":
            word = LexiconEntry("w", labels, "ddm", mechanism, random_ddm(d, rng, 1))
        else:
            rank = d if mechanism == "phaser" else max(1, d // 2)
            sigma = random_density(d, rng, rank=rank)
            word = LexiconEntry("w", labels, "density", mechanism, sigma)
        gate, rho = _one_gate(word, slots, dims, rng)
        assert gate.plan.thin or len(gate.kraus) == 1
        tracemalloc.start()
        try:
            _apply_gate(rho, gate, dims)
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
        local = _apply_gate(rho, gate, dims)
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
    @settings(max_examples=100, deadline=None, derandomize=True)
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
    @settings(max_examples=150, deadline=None, derandomize=True)
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
        return block.dense.matrix if block.factor is None else block.factor

    return len(a.blocks) == len(b.blocks) and all(
        (x.wires, x.exponent, x.trace) == (y.wires, y.exponent, y.trace)
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
    @settings(max_examples=60, deadline=None, derandomize=True)
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
        """Scaling each fuzz/phaser operand by c scales the final joint by c^k."""
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


class TestHermitianPart:
    @settings(max_examples=60, deadline=None, derandomize=True)
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
    def test_hermitian_part_at_exit_equals_one_per_gate(
        self, actors, gates, renorm, seed
    ):
        """Every gate preserves Hermiticity, so where Herm is taken is roundoff.

        The chain hermitizes after every gate, as the kernel once did. Words
        are reused across gates and slots. Verbs by the identity after the
        last gate join the actors into one block, so that every gate of the
        chain applies to the joint of all of them.
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
        for gate in circuit.gates:
            chain = linalg.hermitize(_apply_gate(chain, gate, dims))
            if renorm:
                chain = chain / np.trace(chain).real
        exit_state = linalg.hermitize(evaluate(circuit, renorm).joint.matrix)
        bound = len(gates) * circuit.joint_dim * np.finfo(float).eps
        assert linalg.max_abs(exit_state - chain) <= bound * linalg.max_abs(chain)


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
        the route is chosen by multiply-adds alone, calls costing nothing.

        The fuzz weights every other direction.
        """
        monkeypatch.setattr(textcirc, "CALL_COST", 0)
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
