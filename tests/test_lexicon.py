import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzphaser import lexicon

from fuzzphaser.ddm import DoubleDensityMatrix
from fuzzphaser.density import DensityMatrix, PureState
from fuzzphaser.errors import LexiconError
from fuzzphaser.lexicon import (
    entry_from_document,
    entry_to_document,
    lexicon_from_document,
    lexicon_to_document,
    load_lexicon,
    save_lexicon,
)
from fuzzphaser.textcirc import LexiconEntry

PURE_DOC = {
    "name": "red",
    "space": "c",
    "kind": "pure",
    "mechanism": "projector",
    "data": [[0.8, 0.0], [0.6, 0.0]],
}

DENSITY_DOC = {
    "name": "black",
    "space": "c",
    "kind": "density",
    "mechanism": "fuzz",
    "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
}

DDM_DOC = {
    "name": "blur",
    "space": "c",
    "kind": "ddm",
    "mechanism": "ddm",
    "data": {
        "factors": [
            {
                "y": 2.0,
                "branches": [
                    {"x": 1.0, "phi": [[1.0, 0.0], [0.0, 0.0]]},
                    {"x": 0.5, "phi": [[0.0, 0.0], [1.0, 0.0]]},
                ],
            }
        ]
    },
}


def _doc():
    return {"spaces": {"c": 2}, "entries": [PURE_DOC, DENSITY_DOC, DDM_DOC]}


class TestEntryParsing:
    def test_pure_entry(self):
        entry = entry_from_document(PURE_DOC)
        assert isinstance(entry.operand, PureState)
        assert np.allclose(entry.operand.amplitudes, np.array([0.8, 0.6]))

    def test_density_entry(self):
        entry = entry_from_document(DENSITY_DOC)
        assert isinstance(entry.operand, DensityMatrix)
        assert entry.operand.trace == pytest.approx(2.0)

    def test_ddm_entry(self):
        entry = entry_from_document(DDM_DOC)
        assert isinstance(entry.operand, DoubleDensityMatrix)
        assert entry.operand.factors[0].y == 2.0

    def test_bare_reals_accepted(self):
        doc = dict(PURE_DOC, data=[0.8, 0.6])
        entry = entry_from_document(doc)
        assert np.allclose(entry.operand.amplitudes, np.array([0.8, 0.6]))

    def test_complex_pairs(self):
        doc = dict(PURE_DOC, data=[[0.0, 1.0], [1.0, 0.0]])
        entry = entry_from_document(doc)
        assert entry.operand.amplitudes[0] == 1.0j

    def test_missing_key(self):
        bad = {k: v for k, v in PURE_DOC.items() if k != "mechanism"}
        with pytest.raises(LexiconError) as err:
            entry_from_document(bad)
        assert "mechanism" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(LexiconError):
            entry_from_document(dict(PURE_DOC, kind="sound"))

    def test_non_square_matrix(self):
        bad = dict(DENSITY_DOC, data=[[[1.0, 0.0]], [[0.0, 0.0]]])
        with pytest.raises(LexiconError):
            entry_from_document(bad)

    def test_bool_is_not_a_number(self):
        with pytest.raises(LexiconError):
            entry_from_document(dict(PURE_DOC, data=[True, 0.0]))

    @pytest.mark.parametrize("leaf", [True, "0.5", None], ids=["bool", "string", "null"])
    def test_leaf_that_numpy_would_take_is_not_a_number(self, leaf):
        """numpy reads True, "0.5" and None as floats; each array is read
        whole only when every leaf is an int or a float, so each of these
        still fails with the per-number reader's message, in a pair or bare,
        in a vector or a matrix."""
        cases = [
            (PURE_DOC, [[leaf, 0.0], [0.6, 0.0]], "expected a real number"),
            (PURE_DOC, [leaf, 0.6], "expected a number or an [re, im] pair"),
            (DENSITY_DOC, [[[leaf, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
             "expected a real number"),
            (DENSITY_DOC, [[leaf, 0.0], [0.0, 1.0]], "expected a number or an [re, im] pair"),
        ]
        for doc, data, message in cases:
            with pytest.raises(LexiconError, match=re.escape(message)):
                entry_from_document(dict(doc, data=data))

    @settings(max_examples=200)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False),
                st.integers(-(2**70), 2**70),
                st.lists(st.one_of(st.floats(allow_nan=False), st.integers(-(2**70), 2**70)),
                         min_size=2, max_size=2),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_array_reader_reads_as_the_per_number_reader(self, values):
        """Pairs, bare reals, ints past 2^63 and signed zeros, all pairs,
        all bare or mixed: the same complex128 bits either way."""
        got = lexicon._vector_in(values, "entry")
        want = np.array([lexicon._complex_in(v, "entry") for v in values], dtype=np.complex128)
        assert got.tobytes() == want.tobytes()

    def test_invalid_operand_reported_with_entry_name(self):
        bad = dict(DENSITY_DOC, data=[[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(LexiconError) as err:
            entry_from_document(bad)
        assert "black" in str(err.value)


class TestDocumentParsing:
    def test_full_document(self):
        lex = lexicon_from_document(_doc())
        assert lex.spaces == {"c": 2}
        assert set(lex.entries) == {"red", "black", "blur"}

    def test_verb_space_pair(self):
        doc = {
            "spaces": {"c": 2},
            "entries": [
                {
                    "name": "bites",
                    "space": ["c", "c"],
                    "kind": "density",
                    "mechanism": "fuzz",
                    "data": [[[float(i == j), 0.0] for j in range(4)] for i in range(4)],
                }
            ],
        }
        lex = lexicon_from_document(doc)
        assert lex.entry("bites").space == ("c", "c")

    def test_rejects_malformed_top_level(self):
        with pytest.raises(LexiconError):
            lexicon_from_document([])
        with pytest.raises(LexiconError):
            lexicon_from_document({"spaces": {}, "entries": []})
        with pytest.raises(LexiconError):
            lexicon_from_document({"spaces": {"c": 2}, "entries": {}})
        with pytest.raises(LexiconError):
            lexicon_from_document({"spaces": {"c": 0}, "entries": []})
        with pytest.raises(LexiconError):
            lexicon_from_document({"spaces": {"c": True}, "entries": []})


class TestRoundTrip:
    def test_entry_round_trip(self):
        for doc in (PURE_DOC, DENSITY_DOC, DDM_DOC):
            assert entry_to_document(entry_from_document(doc)) == doc

    def test_document_round_trip(self):
        doc = _doc()
        assert lexicon_to_document(lexicon_from_document(doc)) == doc

    def test_round_trip_normalizes_bare_reals(self):
        doc = dict(PURE_DOC, data=[0.8, 0.6])
        out = entry_to_document(entry_from_document(doc))
        assert out["data"] == [[0.8, 0.0], [0.6, 0.0]]

    def test_entry_to_document_verb_space_is_list(self):
        entry = LexiconEntry(
            "bites", ("c", "c"), "density", "fuzz", DensityMatrix.identity(4)
        )
        assert entry_to_document(entry)["space"] == ["c", "c"]


class TestFiles:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "lex.json"
        lex = lexicon_from_document(_doc())
        save_lexicon(lex, path)
        again = load_lexicon(path)
        assert lexicon_to_document(again) == lexicon_to_document(lex)
        # canonical form is stable under one more save
        path2 = tmp_path / "lex2.json"
        save_lexicon(again, path2)
        assert path.read_text() == path2.read_text()

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(LexiconError) as err:
            load_lexicon(path)
        assert "broken.json" in str(err.value)

    def test_load_rejects_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(json.dumps(_doc()).encode("utf-8").replace(b'"c"', b'"\xe9"', 1))
        with pytest.raises(LexiconError) as err:
            load_lexicon(path)
        assert "latin.json" in str(err.value) and "UTF-8" in str(err.value)

    @pytest.mark.parametrize("data", [[10**400, 0], [[1, 0], [0, -(10**400)]]])
    def test_integer_past_the_float_range(self, data):
        doc = dict(PURE_DOC, data=data)
        with pytest.raises(LexiconError) as err:
            entry_from_document(doc)
        assert "'red'" in str(err.value) and "too large for a float" in str(err.value)

    def test_saved_file_is_plain_json(self, tmp_path):
        path = tmp_path / "lex.json"
        save_lexicon(lexicon_from_document(_doc()), path)
        doc = json.loads(path.read_text())
        assert doc == _doc()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


#: One part of an amplitude: an ordinary float, an int (some past 2^53), or
#: a number at the ends of the range that the readers scale exactly: near
#: 2^±480, where a ket's norm leaves what its squares can hold, subnormal,
#: and near the float maximum.
_PARTS = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False),
    st.integers(-(2**60), 2**60),
    st.sampled_from([2.0**480, -(2.0**481), 2.0**-480, 3.0 * 2.0**-482, 5e-324, -1e-310, 1e308]),
)


def _ket_doc(draw, dim: int, pairs: bool) -> list:
    if pairs:
        return [[draw(_PARTS), draw(_PARTS)] for _ in range(dim)]
    return [draw(_PARTS) for _ in range(dim)]


def _per_item_vector(data) -> np.ndarray:
    return np.array([lexicon._complex_in(v, "x") for v in data], dtype=np.complex128)


class TestArrayReaders:
    @settings(max_examples=200)
    @given(data=st.data(), dim=st.integers(1, 6), branches=st.integers(1, 5), pairs=st.booleans())
    def test_array_passes_match_the_per_item_constructors(self, data, dim, branches, pairs):
        """A ket, a matrix and a ddm factor's branches, read in one array pass
        each, equal the per-number readers and the per-branch constructors
        bit for bit, at every scale the readers take: a ket normalized
        among others is the ket normalized alone."""
        draw = data.draw
        ket = _ket_doc(draw, dim, pairs)
        assert _same_bits(lexicon._vector_in(ket, "x"), _per_item_vector(ket))
        rows = [_ket_doc(draw, dim, pairs) for _ in range(dim)]
        per_row = np.array([_per_item_vector(row) for row in rows])
        assert _same_bits(lexicon._matrix_in(rows, "x"), per_row)

        docs = [{"x": draw(st.one_of(st.floats(0.0, 2.0), st.sampled_from([0, 3, 1e308, 5e-324]))),
                 "phi": _ket_doc(draw, dim, pairs)} for _ in range(branches)]
        kets = [_per_item_vector(doc["phi"]) for doc in docs]
        if not all(np.any(k) for k in kets):  # a zero ket: the per-branch reader names it
            assert lexicon._branches_in(docs) is None
            return
        read = lexicon._branches_in(docs)
        made = [lexicon._branch_in(doc, "x") for doc in docs]
        assert [b.x for b in read] == [b.x for b in made]
        assert all(_same_bits(a.phi.amplitudes, b.phi.amplitudes) for a, b in zip(read, made))
        assert all(_same_bits(a.phi.amplitudes, PureState(k).normalized().amplitudes)
                   for a, k in zip(read, kets))
        if any(doc["x"] > 0 for doc in docs[:1]) and any(doc["x"] > 0 for doc in docs[1:]):
            # an entry of two factors, read in one pass, split back into its factors
            factors = [{"y": 1.0, "branches": docs[:1]}, {"y": 2.0, "branches": docs[1:]}]
            entry = entry_from_document({**DDM_DOC, "data": {"factors": factors}})
            got = [b for f in entry.operand.factors for b in f.branches]
            assert [len(f.branches) for f in entry.operand.factors] == [1, branches - 1]
            assert all(_same_bits(a.phi.amplitudes, b.phi.amplitudes) for a, b in zip(got, made))

    @pytest.mark.parametrize("branch, fault", [
        ({"x": -1.0, "phi": [1.0, 0.0]}, "branch weight must be a finite real >= 0"),
        ({"x": True, "phi": [1.0, 0.0]}, "branches[1].x: expected a real number"),
        ({"x": 10**400, "phi": [1.0, 0.0]}, "branches[1].x: integer too large for a float"),
        ({"x": 1.0, "phi": [0.0, 0.0]}, "state must have nonzero norm"),
        ({"x": 1.0, "phi": [1.0]}, "branch vectors must share one dimension"),
        ({"x": 1.0, "phi": ["1", 0.0]}, "branches[1].phi: expected a number or an [re, im] pair"),
        ({"x": 1.0, "phi": []}, "branches[1].phi: expected a non-empty vector"),
        ({"phi": [1.0, 0.0]}, "branches[1].x: expected a real number"),
        ([1.0, 0.0], "branches[1]: expected x and phi"),
        ({"x": 1.0, "phi": [[1.0, 0.0], 0.5]}, None),
    ])
    def test_the_array_pass_leaves_the_rest_to_the_per_branch_reader(self, branch, fault):
        """Where a branch of a factor is not an {x, phi} of a finite x >= 0
        and a finite nonzero ket of the factor's length and form, the array
        pass reads none of the factor's branches: the per-branch reader
        names the fault, or reads a ket that mixes [re, im] pairs with bare
        reals."""
        good = {"x": 0.5, "phi": [0.6, 0.8]}
        assert lexicon._branches_in([good, branch]) is None
        doc = {**DDM_DOC, "data": {"factors": [{"y": 1.0, "branches": [good, branch]}]}}
        if fault is None:
            (factor,) = entry_from_document(doc).operand.factors
            unit = PureState([1.0, 0.5]).normalized().amplitudes
            assert _same_bits(factor.branches[1].phi.amplitudes, unit)
            return
        with pytest.raises(LexiconError, match=re.escape(fault)):
            entry_from_document(doc)
