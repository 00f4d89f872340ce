"""Seeded generator of lexicons and texts for the benchmark workloads.

The program under test receives only the files written here: one JSON
lexicon and one text file per `run` call. Every draw comes from one
numpy Generator seeded by (seed, workload), so the same seed writes
byte-identical files.

Lexicon conventions follow the shipped demos: one space of dimension 4,
unit-norm kets, unit-trace density matrices (some rank-deficient, some
with an exactly degenerate pair of eigenvalues), and double density
matrices whose Kraus factors satisfy sum_k A_k^2 <= I. Other nonzero
eigenvalues of density operands are kept well apart, so eigenspace
grouping is never a judgment call. No operand scales a trace up, which keeps every workload
clear of the absolute-tolerance defect listed in the roadmap.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SPACE = "concept"
DIM = 4
MECHANISMS = ("projector", "fuzz", "phaser", "ddm")

def _unit_ket(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _density(rng, dim: int, rank: int, degenerate: bool) -> np.ndarray:
    """Unit-trace density of the given rank.

    Eigenvalues are 1, 2, ..., rank, each jittered by under 0.4, so
    neighbours stay at least 0.2/sum apart. `degenerate` makes the top
    two exactly equal, as in the shipped ambiguous "black".
    """
    weights = np.arange(1, rank + 1) + 0.4 * rng.random(rank)
    if degenerate and rank >= 2:
        weights[-2] = weights[-1]
    weights = weights / weights.sum()
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    vecs = np.linalg.qr(z)[0][:, :rank]
    m = (vecs * weights) @ vecs.conj().T
    return (m + m.conj().T) / 2


def _ddm(rng, dim: int, factors: int, branches: int) -> dict:
    """y and each factor's x sum to 1, so sum_k A_k^2 <= I."""
    out = []
    for y in rng.dirichlet(np.full(factors, 2.0)):
        xs = rng.dirichlet(np.full(branches, 2.0))
        out.append({
            "y": float(y),
            "branches": [
                {"x": float(x), "phi": _vec_doc(_unit_ket(rng, dim))} for x in xs
            ],
        })
    return {"factors": out}


def _vec_doc(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _mat_doc(m: np.ndarray) -> list:
    return [_vec_doc(row) for row in m]


def _entry(rng, name: str, verb: bool, mechanism: str, j: int) -> dict:
    """The `j`-th lexicon entry whose default mechanism is `mechanism`.

    Projector words are kets, ddm words double density matrices, fuzz
    and phaser words densities. The shape of an operand follows from `j`
    alone and only its values are drawn, so every seed gets the same mix
    of shapes: cost at D=1024 grows with the number of eigenspaces, and a
    drawn shape would make the cost of a workload depend on its seed.
    Fuzz densities cycle through ranks 3, full, 1 and full-1 with a
    degenerate top pair (as the shipped "black"). Phaser densities are
    full rank, alternately with a degenerate top pair: the square root
    of a zero eigenvalue amplifies its roundoff to 1e-8, which would
    make a correct result differ from the reference on states nearly
    outside the operand's support. Ddms cycle through 2x2, 3x3 and 1x4
    factors x branches.
    """
    dim = DIM * DIM if verb else DIM
    if mechanism == "projector":
        kind, data = "pure", _vec_doc(_unit_ket(rng, dim))
    elif mechanism == "ddm":
        factors, branches = ((2, 2), (3, 3), (1, 4))[j % 3]
        kind, data = "ddm", _ddm(rng, dim, factors, branches)
    elif mechanism == "fuzz":
        rank = (3, dim, 1, dim - 1)[j % 4]
        kind, data = "density", _mat_doc(_density(rng, dim, rank, j % 4 == 3))
    else:
        kind, data = "density", _mat_doc(_density(rng, dim, dim, j % 2 == 1))
    return {"name": name, "space": [SPACE, SPACE] if verb else SPACE,
            "kind": kind, "mechanism": mechanism, "data": data}


def _words(rng, prefix: str, per_mechanism: int,
           verb: bool) -> tuple[list[dict], dict[str, list[str]]]:
    """`per_mechanism` entries of each mechanism, and their names by mechanism."""
    entries = [
        _entry(rng, f"{prefix}{i:03d}", verb, MECHANISMS[i % 4], i // 4)
        for i in range(per_mechanism * 4)
    ]
    return entries, {m: [e["name"] for e in entries if e["mechanism"] == m]
                     for m in MECHANISMS}


def _priors(rng, actors: list[str]) -> list[dict]:
    """Every other actor gets a prior, alternately a ket and a density."""
    out = []
    for i, name in enumerate(actors[::2]):
        if i % 2 == 0:
            kind, mech, data = "pure", "projector", _vec_doc(_unit_ket(rng, DIM))
        else:
            kind, mech, data = "density", "fuzz", _mat_doc(_density(rng, DIM, DIM, False))
        out.append({"name": name, "space": SPACE, "kind": kind,
                    "mechanism": mech, "data": data})
    return out


def _noun(rng, actor, noun):
    return ("turns" if rng.random() < 0.5 else "is", str(actor), str(noun))


def _joint_1024(rng):
    """5 actors and one verb per mechanism. Each text is the chain
    A0-A1-A2-A3-A4 of those 4 verbs, so the world is one D=1024
    component; texts differ in each verb's subject/object order. The
    cost of a dense eigensolve depends on the rank of the state, so a
    fixed chain keeps every text, under every seed, at one cost."""
    actors = [f"A{i}" for i in range(5)]
    verbs, verb_by = _words(rng, "v", 1, True)
    texts = []
    for _ in range(6):
        sentences = []
        for i, mech in enumerate(MECHANISMS):
            pair = [actors[i], actors[i + 1]]
            a, b = pair if rng.random() < 0.5 else pair[::-1]
            sentences.append((a, verb_by[mech][0], b))
        texts.append(sentences)
    return _priors(rng, actors) + verbs, texts


def _long_text(rng):
    """3 actors, 2000 sentences per text, mechanisms drawn uniformly.
    Verbs join only A0 and A1, so the world splits 16+4."""
    actors = ["A0", "A1", "A2"]
    nouns, noun_by = _words(rng, "n", 4, False)
    verbs, verb_by = _words(rng, "v", 2, True)
    texts = []
    for _ in range(4):
        sentences = []
        for _ in range(2000):
            mech = MECHANISMS[int(rng.integers(4))]
            if rng.random() < 0.25:
                a, b = ("A0", "A1") if rng.random() < 0.5 else ("A1", "A0")
                sentences.append((a, str(rng.choice(verb_by[mech])), b))
            else:
                sentences.append(_noun(rng, rng.choice(actors), rng.choice(noun_by[mech])))
        texts.append(sentences)
    return _priors(rng, actors) + nouns + verbs, texts


def _small_texts(rng):
    """400 texts of 1-3 sentences over 1-2 of 20 actors, against 120
    nouns, 72 verbs and 10 actor priors. One text in five opens with
    "Once there was X." for an actor its first sentence names."""
    actors = [f"A{i}" for i in range(20)]
    nouns, _ = _words(rng, "n", 30, False)
    verbs, _ = _words(rng, "v", 18, True)
    texts = []
    for _ in range(400):
        cast = [str(a) for a in rng.choice(actors, size=1 + int(rng.integers(2)),
                                           replace=False)]
        sentences = []
        for _ in range(1 + int(rng.integers(3))):
            if len(cast) == 2 and rng.random() < 0.5:
                a, b = cast if rng.random() < 0.5 else cast[::-1]
                sentences.append((a, verbs[int(rng.integers(len(verbs)))]["name"], b))
            else:
                noun = nouns[int(rng.integers(len(nouns)))]["name"]
                sentences.append(_noun(rng, rng.choice(cast), noun))
        if rng.random() < 0.2:
            first = sentences[0][1] if sentences[0][0] in ("is", "turns") else sentences[0][0]
            sentences.insert(0, ("Once", first))
        texts.append(sentences)
    return _priors(rng, actors) + nouns + verbs, texts


#: Per workload: the function that draws its texts, and its `fuzzphaser run` flags.
WORKLOADS = {
    "joint-1024": (_joint_1024, ["--format", "json"]),
    "long-text": (_long_text, ["--renormalize"]),
    "small-texts": (_small_texts, ["--format", "json"]),
}


def _render(sentence: tuple) -> str:
    """("Once", X), (is|turns, X, noun) or (subject, verb, object)."""
    if sentence[0] == "Once":
        return f"Once there was {sentence[1]}."
    if sentence[0] in ("is", "turns"):
        verb, actor, noun = sentence
        return f"{actor} {verb} {noun}."
    return " ".join(sentence) + "."


def generate(workload: str, seed: int, outdir) -> dict:
    """Write `lexicon.json` and `tNNN.txt` files; return the manifest.

    The manifest lists each text's path, gate count, actor count and
    joint dimension, and the mechanism mix over all texts.
    """
    build, flags = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    entries, texts = build(rng)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    lex_path = out / "lexicon.json"
    doc = {"spaces": {SPACE: DIM}, "entries": entries}
    lex_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    mechanism_of = {e["name"]: e["mechanism"] for e in entries}
    mix = dict.fromkeys(MECHANISMS, 0)
    cases = []
    for i, sentences in enumerate(texts):
        path = out / f"t{i:03d}.txt"
        path.write_text("".join(_render(s) + "\n" for s in sentences), encoding="utf-8")
        cast = set()
        for s in sentences:
            if s[0] == "Once":
                cast.add(s[1])
            elif s[0] in ("is", "turns"):
                cast.add(s[1])
                mix[mechanism_of[s[2]]] += 1
            else:
                cast.update((s[0], s[2]))
                mix[mechanism_of[s[1]]] += 1
        gates = sum(1 for s in sentences if s[0] != "Once")
        cases.append({"id": i, "path": str(path), "gates": gates,
                      "actors": len(cast), "joint_dim": DIM ** len(cast)})
    return {
        "workload": workload,
        "seed": seed,
        "lexicon": str(lex_path),
        "entries": len(entries),
        "flags": flags,
        "mechanism_mix": mix,
        "texts": cases,
    }
