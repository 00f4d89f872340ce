"""JSON lexicon documents: load, validate, and write back canonically.

Document shape::

    {"spaces": {"concepts": 4},
     "entries": [{"name": "red", "space": "concepts", "kind": "pure",
                  "mechanism": "projector", "data": [[0.8, 0], ...]}]}

Complex numbers are [re, im] pairs (bare reals accepted on input);
density matrices are row-major nested arrays; double density matrices
are {"factors": [{"y": r, "branches": [{"x": r, "phi": [...]}]}]}.
A transitive verb declares "space" as a two-element array and its
operand lives on the product space.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from . import linalg
from .ddm import DdmBranch, DdmFactor, DoubleDensityMatrix
from .density import DensityMatrix, PureState
from .errors import FuzzPhaserError, LexiconError
from .textcirc import Lexicon, LexiconEntry


def _real_in(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise LexiconError(f"{where}: expected a real number")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the float range
        raise LexiconError(f"{where}: integer too large for a float") from None


def _complex_in(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_real_in(value, where), 0.0)
    if isinstance(value, list) and len(value) == 2:
        return complex(_real_in(value[0], where), _real_in(value[1], where))
    raise LexiconError(f"{where}: expected a number or an [re, im] pair")


def _array_in(data, ndim: int) -> np.ndarray | None:
    """``data`` read by numpy at once as an ``ndim``-dimensional complex
    array, all of [re, im] pairs or all of bare reals, each leaf an int or
    a float (not a bool, nor a string, which numpy would take); None where
    it is not that, so that the per-number readers name the fault."""
    try:
        parts = np.array(data, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):  # ragged, not numbers, or an int past the range
        return None
    pairs = parts.ndim == ndim + 1 and parts.shape[-1] == 2
    if not pairs and parts.ndim != ndim:
        return None
    leaves = data
    for _ in range(parts.ndim - 1):
        leaves = list(itertools.chain.from_iterable(leaves))
    if not set(map(type, leaves)) <= {float, int}:
        return None
    return parts.view(np.complex128)[..., 0] if pairs else parts.astype(np.complex128)


def _vector_in(data, where: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise LexiconError(f"{where}: expected a non-empty vector")
    vector = _array_in(data, 1)
    if vector is not None:
        return vector
    return np.array([_complex_in(v, where) for v in data], dtype=np.complex128)


def _matrix_in(data, where: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise LexiconError(f"{where}: expected a non-empty matrix")
    matrix = _array_in(data, 2)
    if matrix is not None and matrix.shape == (len(data), len(data)):
        return matrix
    rows = [_vector_in(row, where) for row in data]
    if any(row.size != len(rows) for row in rows):
        raise LexiconError(f"{where}: matrix must be square, rows of equal length")
    return np.array(rows, dtype=np.complex128)


def _branches_in(docs: list) -> list[DdmBranch] | None:
    """Branches read, checked and normalized as one array, as the
    per-branch constructors would make them (``linalg.unit_columns``), or
    None where any is not an {x, phi} of a finite x ≥ 0 and a finite
    nonzero ket, or the kets differ in length or form: the per-branch
    reader then names the fault."""
    if not docs or not all(isinstance(doc, dict) for doc in docs):
        return None
    xs, phis = [doc.get("x") for doc in docs], [doc.get("phi") for doc in docs]
    if not all(type(x) in (int, float) for x in xs) or not all(
        isinstance(phi, list) and phi for phi in phis
    ):
        return None
    kets = _array_in(phis, 2)
    if kets is None or not np.isfinite(kets.view(np.float64)).all() or not kets.any(axis=1).all():
        return None
    try:
        weights = np.array(xs, dtype=np.float64)
    except OverflowError:  # an integer literal past the float range
        return None
    if not np.isfinite(weights).all() or not np.all(weights >= 0.0):
        return None
    units = linalg.unit_columns(kets.T).T
    return [DdmBranch._unchecked(x, PureState._unchecked(u)) for x, u in zip(weights.tolist(), units)]


def _branch_in(bdoc, where: str) -> DdmBranch:
    if not isinstance(bdoc, dict):
        raise LexiconError(f"{where}: expected x and phi")
    return DdmBranch(
        _real_in(bdoc.get("x"), f"{where}.x"),
        PureState(_vector_in(bdoc.get("phi"), f"{where}.phi")),
    )


def _ddm_in(data, where: str) -> DoubleDensityMatrix:
    """A ddm's factors, their branches read in one array pass (``_branches_in``)
    where every factor has a nonempty branch list, else branch by branch."""
    if not isinstance(data, dict) or not isinstance(data.get("factors"), list):
        raise LexiconError(f'{where}: ddm data must be {{"factors": [...]}}')
    docs = data["factors"]
    listed = all(isinstance(f, dict) and isinstance(f.get("branches"), list) for f in docs)
    read = _branches_in([b for f in docs for b in f["branches"]]) if listed else None
    factors, start = [], 0
    for k, fdoc in enumerate(docs):
        fwhere = f"{where}.factors[{k}]"
        if not isinstance(fdoc, dict) or not isinstance(fdoc.get("branches"), list):
            raise LexiconError(f"{fwhere}: expected y and a branch list")
        if read is None or not fdoc["branches"]:
            branches = [_branch_in(bdoc, f"{fwhere}.branches[{i}]")
                        for i, bdoc in enumerate(fdoc["branches"])]
        else:
            branches, start = read[start : start + len(fdoc["branches"])], start + len(fdoc["branches"])
        factors.append(DdmFactor(_real_in(fdoc.get("y"), f"{fwhere}.y"), branches))
    return DoubleDensityMatrix(factors)


def entry_from_document(obj, where: str = "entry") -> LexiconEntry:
    if not isinstance(obj, dict):
        raise LexiconError(f"{where}: expected an object")
    for key in ("name", "space", "kind", "mechanism", "data"):
        if key not in obj:
            raise LexiconError(f"{where}: missing key {key!r}")
    name, kind = obj["name"], obj["kind"]
    if not isinstance(name, str):
        raise LexiconError(f"{where}: entry name must be a string")
    where = f"{where} ({name!r})"
    try:
        if kind == "pure":
            operand = PureState(_vector_in(obj["data"], where))
        elif kind == "density":
            operand = DensityMatrix(_matrix_in(obj["data"], where))
        elif kind == "ddm":
            operand = _ddm_in(obj["data"], where)
        else:
            raise LexiconError(f"{where}: unknown kind {kind!r}")
        return LexiconEntry(name, obj["space"], kind, obj["mechanism"], operand)
    except LexiconError:
        raise
    except (FuzzPhaserError, ValueError, TypeError) as exc:
        raise LexiconError(f"{where}: {exc}") from exc


def lexicon_from_document(doc) -> Lexicon:
    if not isinstance(doc, dict):
        raise LexiconError("lexicon document must be a JSON object")
    spaces, entries = doc.get("spaces"), doc.get("entries")
    if not isinstance(spaces, dict) or not spaces:
        raise LexiconError('"spaces" must map space names to dimensions')
    if not isinstance(entries, list):
        raise LexiconError('"entries" must be a list')
    for label, dim in spaces.items():
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise LexiconError(f"space {label!r}: dimension must be a positive integer")
    parsed = [
        entry_from_document(obj, where=f"entries[{i}]") for i, obj in enumerate(entries)
    ]
    return Lexicon(spaces, parsed)


def _complex_out(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _vector_out(v: np.ndarray) -> list:
    return [_complex_out(z) for z in np.asarray(v)]


def _matrix_out(m: np.ndarray) -> list:
    return [_vector_out(row) for row in np.asarray(m)]


def entry_to_document(entry: LexiconEntry) -> dict:
    if entry.kind == "pure":
        data = _vector_out(entry.operand.amplitudes)
    elif entry.kind == "density":
        data = _matrix_out(entry.operand.matrix)
    else:
        data = {
            "factors": [
                {
                    "y": float(f.y),
                    "branches": [
                        {"x": float(b.x), "phi": _vector_out(b.phi.amplitudes)}
                        for b in f.branches
                    ],
                }
                for f in entry.operand.factors
            ]
        }
    space = entry.space[0] if len(entry.space) == 1 else list(entry.space)
    return {
        "name": entry.name,
        "space": space,
        "kind": entry.kind,
        "mechanism": entry.mechanism,
        "data": data,
    }


def lexicon_to_document(lexicon: Lexicon) -> dict:
    return {
        "spaces": dict(lexicon.spaces),
        "entries": [entry_to_document(e) for e in lexicon.entries.values()],
    }


def load_lexicon(path) -> Lexicon:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise LexiconError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer of more digits than int takes
        raise LexiconError(f"{path}: not valid JSON ({exc})") from exc
    return lexicon_from_document(doc)


def save_lexicon(lexicon: Lexicon, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lexicon_to_document(lexicon), fh, indent=2)
        fh.write("\n")
