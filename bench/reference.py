"""Independent reference evaluator for `fuzzphaser run` outputs.

Numpy only; it never imports fuzzphaser. It reads the same lexicon JSON
and text the program reads, builds each gate's Kraus operators from the
paper's formulas -- projector [P], fuzz [sqrt(x_i) P_i] over the
operand's eigenspaces, phaser [sqrt(sigma)], double density matrix
[A_k = sqrt(y_k) sum_i x_ik |phi_ik><phi_ik|] -- applies them on the
touched wires only, and partial-traces each actor out of the joint.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

#: Relative gap below which eigenvalues share one eigenspace.
GROUP_RTOL = 1e-8
#: Relative tolerance against full-precision JSON: far above the roundoff
#: of any correct order of evaluation on the generated inputs (about 1e-14),
#: well below the error of any wrong formula.
JSON_RTOL = 1e-9
#: Relative tolerance against the 6-significant-digit text format.
TEXT_RTOL = 2e-5


def _vector(doc) -> np.ndarray:
    return np.array([complex(*z) if isinstance(z, list) else complex(z) for z in doc])


def _matrix(doc) -> np.ndarray:
    return np.array([_vector(row) for row in doc])


def load_lexicon(path) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = {}
    for e in doc["entries"]:
        space = (e["space"],) if isinstance(e["space"], str) else tuple(e["space"])
        entries[e["name"]] = {**e, "space": space}
    return {"spaces": doc["spaces"], "entries": entries}


def parse(text: str) -> list[tuple]:
    """("intro", X), ("noun", X, N) or ("verb", S, V, O), in text order."""
    out = []
    for raw in text.split(".")[:-1]:
        w = raw.split()
        if not w:
            continue
        if w[:3] == ["Once", "there", "was"] and len(w) == 4:
            out.append(("intro", w[3]))
        elif len(w) == 4 and w[1] == "is" and w[2] in ("a", "an"):
            out.append(("noun", w[0], w[3]))
        elif len(w) == 3 and w[1] in ("is", "turns"):
            out.append(("noun", w[0], w[2]))
        elif len(w) == 3:
            out.append(("verb", w[0], w[1], w[2]))
        else:
            raise ValueError(f"unparsed sentence {raw!r}")
    if text.split(".")[-1].strip():
        raise ValueError("text ends without '.'")
    return out


def _operand(entry) -> np.ndarray:
    """The entry as a matrix: |psi><psi| for kets, the density itself."""
    if entry["kind"] == "pure":
        v = _vector(entry["data"])
        return np.outer(v, v.conj())
    return _matrix(entry["data"])


def _eigenspaces(sigma: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(eigenvalue, projector) per eigenspace, near-equal values merged."""
    vals, vecs = np.linalg.eigh((sigma + sigma.conj().T) / 2)
    gap = GROUP_RTOL * max(1.0, float(np.abs(vals).max()))
    groups, start = [], 0
    for i in range(1, vals.size + 1):
        if i == vals.size or vals[i] - vals[i - 1] > gap:
            block = vecs[:, start:i]
            groups.append((float(vals[start:i].mean()), block @ block.conj().T))
            start = i
    return groups


def kraus(entry, mechanism: str) -> list[np.ndarray]:
    if mechanism == "projector":
        v = _vector(entry["data"])
        v = v / np.linalg.norm(v)
        return [np.outer(v, v.conj())]
    if mechanism == "fuzz":
        return [math.sqrt(x) * p for x, p in _eigenspaces(_operand(entry)) if x > 0]
    if mechanism == "phaser":
        vals, vecs = np.linalg.eigh(_operand(entry))
        return [(vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T]
    if mechanism == "ddm":
        ops = []
        for f in entry["data"]["factors"]:
            a = 0
            for b in f["branches"]:
                phi = _vector(b["phi"])
                phi = phi / np.linalg.norm(phi)
                a = a + b["x"] * np.outer(phi, phi.conj())
            ops.append(math.sqrt(f["y"]) * a)
        return ops
    raise ValueError(f"unknown mechanism {mechanism!r}")


def _apply(rho: np.ndarray, ops, slots: list[int]) -> np.ndarray:
    """sum_K K rho K^dagger with K acting on wires `slots` of the tensor rho.

    rho has 2n axes: n row wires, then n column wires.
    """
    n, m = rho.ndim // 2, len(slots)
    rows, cols = list(slots), [n + s for s in slots]
    out = np.zeros_like(rho)
    for k in ops:
        kt = k.reshape([rho.shape[s] for s in slots] * 2)
        left = np.tensordot(kt, rho, axes=(list(range(m, 2 * m)), rows))
        left = np.moveaxis(left, list(range(m)), rows)
        both = np.tensordot(left, kt.conj(), axes=(cols, list(range(m, 2 * m))))
        out += np.moveaxis(both, list(range(2 * n - m, 2 * n)), cols)
    return out


def evaluate(lexicon: dict, text: str, renormalize: bool = False) -> dict:
    """Actors in first-mention order, each with trace and reduced matrix."""
    entries = lexicon["entries"]
    sentences = parse(text)
    order, space = [], {}
    for s in sentences:
        mentioned = [s[1]] if s[0] != "verb" else [s[1], s[3]]
        word = None if s[0] == "intro" else entries[s[2]]
        for i, actor in enumerate(mentioned):
            if actor not in space:
                order.append(actor)
                space[actor] = None
            if word is not None and space[actor] is None:
                space[actor] = word["space"][i]
    priors = []
    for actor in order:
        if actor in entries:
            space[actor] = entries[actor]["space"][0]
            priors.append(_operand(entries[actor]))
        else:
            d = lexicon["spaces"][space[actor]]
            priors.append(np.eye(d) / d)
    dims = [p.shape[0] for p in priors]
    rho = np.ones((1, 1), dtype=complex)
    for p in priors:
        rho = np.kron(rho, p)
    rho = rho.reshape(dims * 2)
    index = {a: i for i, a in enumerate(order)}
    gates = 0
    for s in sentences:
        if s[0] == "intro":
            continue
        word, actors = (s[2], [s[1]]) if s[0] == "noun" else (s[2], [s[1], s[3]])
        entry = entries[word]
        rho = _apply(rho, kraus(entry, entry["mechanism"]), [index[a] for a in actors])
        gates += 1
        if renormalize:
            rho = rho / np.trace(rho.reshape(math.prod(dims), -1)).real
    total = math.prod(dims)
    joint = rho.reshape(total, total)
    actors = []
    for i, (name, d) in enumerate(zip(order, dims)):
        before, after = math.prod(dims[:i]), math.prod(dims[i + 1:])
        red = np.einsum("aibajb->ij", joint.reshape(before, d, after, before, d, after))
        actors.append({"name": name, "trace": float(np.trace(red).real), "matrix": red})
    return {"gates": gates, "joint_trace": float(np.trace(joint).real), "actors": actors}


_UNSIGNED = r"(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)"
_ACTOR_LINE = re.compile(rf"^(\S+) \(space (\S+), dim (\d+)\): trace (-?{_UNSIGNED}), purity")
_COMPLEX = re.compile(rf"(-?{_UNSIGNED})([-+])({_UNSIGNED})j")


def parse_text_output(out: str) -> dict:
    """Read `run`'s text format back into the shape of its JSON format."""
    lines = out.splitlines()
    doc = {"gates": int(lines[0].split(":")[1]),
           "joint_trace": float(lines[1].split(":")[1]), "actors": []}
    i = 2
    while i < len(lines):
        head = _ACTOR_LINE.match(lines[i])
        if head is None:
            raise ValueError(f"unexpected line {lines[i]!r}")
        dim = int(head.group(3))
        rows = []
        for line in lines[i + 1:i + 1 + dim]:
            row = []
            for cell in line.strip().strip("[]").split(", "):
                z = _COMPLEX.fullmatch(cell)
                if z is None:
                    raise ValueError(f"unreadable matrix entry {cell!r}")
                row.append([float(z.group(1)), float(z.group(2) + z.group(3))])
            rows.append(row)
        doc["actors"].append({"name": head.group(1), "trace": float(head.group(4)),
                              "matrix": rows})
        i += 1 + dim
    return doc


def compare(doc: dict, ref: dict, rtol: float) -> tuple[list[str], float]:
    """Mismatches between a `run` output document and the reference.

    Traces are compared relatively; matrices after dividing each by its
    own trace, relative to the largest entry of the reference. Returns
    the mismatch messages and the largest relative error seen.
    """
    problems, worst = [], 0.0
    gates = len(doc["gates"]) if isinstance(doc["gates"], list) else doc["gates"]
    if gates != ref["gates"]:
        problems.append(f"gates {gates} != {ref['gates']}")
    names = [a["name"] for a in doc["actors"]]
    if names != [a["name"] for a in ref["actors"]]:
        return problems + [f"actors {names} differ from the reference"], math.inf
    pairs = [("joint trace", doc["joint_trace"], ref["joint_trace"])]
    pairs += [(f"{a['name']} trace", a["trace"], r["trace"])
              for a, r in zip(doc["actors"], ref["actors"])]
    for what, got, want in pairs:
        err = abs(got - want) / abs(want) if want else math.inf
        worst = max(worst, err)
        if not err <= rtol:
            problems.append(f"{what} {got!r} != {want!r} (rel err {err:.3g})")
    for a, r in zip(doc["actors"], ref["actors"]):
        got = _matrix(a["matrix"])
        want = r["matrix"] / r["trace"]
        err = float(np.abs(got / a["trace"] - want).max() / np.abs(want).max())
        worst = max(worst, err)
        if not err <= rtol:
            problems.append(f"{a['name']} matrix differs (rel err {err:.3g})")
    return problems, worst


def demo_answers(demo_dir) -> list[str]:
    """Check the reference against the hand-known answers of the demos.

    paint-it-black leaves a pure black door, and a red one in the
    swapped order; black-fuzztones collapses the door and the poem to
    one reading each and leaves metal an even mixture of both.
    """
    demo = Path(demo_dir)
    black, genre = np.eye(4)[0], np.eye(4)[1]
    red = np.array([0.8, 0, 0.6, 0])
    failures = []

    def final(lexicon_file, text, actor):
        res = evaluate(load_lexicon(demo / lexicon_file), text)
        (state,) = [a for a in res["actors"] if a["name"] == actor]
        return state["matrix"] / state["trace"]

    def expect(label, rho, target):
        want = np.outer(target, target)
        if not np.abs(rho - want).max() < 1e-9:
            failures.append(f"{label}: reference gives\n{np.round(rho, 6)}")

    painted = (demo / "paint_it_black.txt").read_text(encoding="utf-8")
    expect("paint-it-black: black door", final("colors.json", painted, "Door"), black)
    swapped = "Door turns black. Door turns red.\n"
    expect("paint-it-black swapped: red door", final("colors.json", swapped, "Door"), red)
    for actor, reading in (("Door", black), ("Poem", genre)):
        text = (demo / f"black_{actor.lower()}.txt").read_text(encoding="utf-8")
        expect(f"black-fuzztones: {actor} on one reading",
               final("fuzztones.json", text, actor), reading)
    metal_text = (demo / "black_metal.txt").read_text(encoding="utf-8")
    metal = final("fuzztones.json", metal_text, "Metal")
    even = (np.outer(black, black) + np.outer(genre, genre)) / 2
    if not np.abs(metal - even).max() < 1e-9:
        failures.append(f"black-fuzztones: metal not an even mixture\n{np.round(metal, 6)}")
    return failures
