"""Seeded mutation fuzzing of every kind of file the CLI reads.

Valid treebank, model, raw-EDU and synth-config files are built from the
``conftest.py`` generators, then truncated, cut, overwritten byte by byte
(invalid UTF-8 included) or partly duplicated.  Whatever the damage, the
CLI must exit 0, 1 (usage or configuration error) or 2 (data error): never
3, which is reserved for internal faults.  A treebank that ``parse`` writes
after exit 0 must load again.  (Odd values of every int and float flag
are ``test_cli.py``'s ``TestFlagGrid``.)
"""

import json
import random

import pytest

from conftest import make_doc, random_tree, validate_treebank
from rstboost.boosting import BoostConfig, save_model, train
from rstboost.cli import main
from rstboost.encoder import EncoderConfig
from rstboost.errors import DataError
from rstboost.treebank import Treebank, load_treebank, save_treebank
from rstboost.weak_learner import LearnerConfig

MUTANTS_PER_FILE = 100
RELATIONS = ("contrast", "elaboration")
# Bytes that matter to the formats, plus bytes that are never valid UTF-8
# or only valid inside a multi-byte sequence.
SPECIAL = b'()"\\#\n {}[],:-.0129eE\x00\x80\xbf\xc3\xe2\xfe\xff'


def mutate(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One seeded mutation: truncation, deletion, substitution or duplication."""
    n = len(data)
    i, j = sorted(rng.randrange(n + 1) for _ in range(2))
    kind = rng.choice(("truncate", "delete", "substitute", "duplicate"))
    if kind == "truncate":
        return f"truncate at {i}", data[:i]
    if kind == "delete":
        return f"delete [{i}:{j}]", data[:i] + data[j:]
    if kind == "duplicate":
        return f"duplicate [{i}:{j}]", data[:j] + data[i:j] + data[j:]
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(n)
        out[pos] = rng.choice(SPECIAL) if rng.random() < 0.7 else rng.randrange(256)
    return "substitute", bytes(out)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid files of each kind: a generated treebank, a tiny model trained on
    it, its documents as raw EDUs, and a small synth config."""
    base = tmp_path_factory.mktemp("fuzz")
    rng = random.Random(7)
    entries = tuple((make_doc(n, doc_id=f"d{k}"), random_tree(rng, n, RELATIONS))
                    for k, n in enumerate((1, 2, 3, 5, 6)))
    tb = Treebank("gold", "news", RELATIONS, entries)
    save_treebank(tb, base / "gold.tb")
    enc = EncoderConfig(hash_dim=16)
    learner = LearnerConfig(input_dim=enc.width, n_relations=len(RELATIONS), hidden_dim=3)
    ensemble, _ = train(tb, BoostConfig(learner=learner, n_steps=2, epochs_max=2), enc)
    save_model(ensemble, base / "model.json")
    (base / "raw.txt").write_text("\n\n".join(
        "\n".join(" ".join(edu) for edu in doc.edus) for doc, _ in entries) + "\n")
    (base / "synth.json").write_text(json.dumps(
        {"n_train": 3, "n_test": 2, "edu_range": [1, 5], "shared_vocab": 20,
         "p_domain": 0.5, "domain_b": "chat", "domain_relations_b": ["temporal"]}))
    return base


# For each kind of file, the commands that read it; "{}" is the mutant.
COMMANDS = {
    "gold.tb": (
        ["eval", "{gold}", "{}"],
        ["parse", "{model}", "{}", "--out", "{out}/pred.tb"],
        ["curve", "{model}", "{}", "--out", "{out}/curve.csv"],
        ["train", "{}", "--out", "{out}/m.json", "--steps", "1", "--hash-dim", "16",
         "--hidden-dim", "2", "--epochs-max", "1"],
    ),
    "model.json": (
        ["parse", "{}", "{gold}", "--out", "{out}/pred.tb", "--trace"],
        ["curve", "{}", "{gold}", "--out", "{out}/curve.csv"],
    ),
    "raw.txt": (["parse", "{model}", "{}", "--out", "{out}/pred.tb"],),
    "synth.json": (["synth", "--config", "{}", "--out", "{out}/data"],),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_mutated_input_never_exits_internal(valid, tmp_path, name):
    data = (valid / name).read_bytes()
    rng = random.Random(f"fuzz:{name}")
    pred = tmp_path / "pred.tb"
    bad = []
    for k in range(MUTANTS_PER_FILE):
        what, mutant = mutate(data, rng)
        path = tmp_path / f"mutant{k}_{name}"
        path.write_bytes(mutant)
        for command in COMMANDS[name]:
            argv = [a.format(path, gold=valid / "gold.tb", model=valid / "model.json",
                             out=tmp_path) for a in command]
            pred.unlink(missing_ok=True)
            code = main(["--quiet", *argv])
            if code not in (0, 1, 2):
                bad.append((k, what, command[0], code))
            elif code == 0 and command[0] == "parse":
                # What parse writes must read back.
                try:
                    load_treebank(pred)
                except DataError as exc:
                    bad.append((k, what, "pred.tb does not load", str(exc)))
    assert not bad, f"mutants of {name} that exited outside {{0, 1, 2}}: {bad}"


def test_every_loaded_mutant_is_valid(valid, tmp_path):
    """``load_treebank`` does not run ``validate``: the parser must already
    reject whatever ``validate`` would."""
    data = (valid / "gold.tb").read_bytes()
    rng = random.Random("fuzz:validate")
    loaded, bad = 0, []
    for k in range(20 * MUTANTS_PER_FILE):
        what, mutant = mutate(data, rng)
        path = tmp_path / f"mutant{k}.tb"
        path.write_bytes(mutant)
        try:
            tb = load_treebank(path)
        except (DataError, UnicodeDecodeError):
            continue
        loaded += 1
        if validate_treebank(tb):
            bad.append((k, what, validate_treebank(tb)[:1]))
    assert not bad, f"mutants that load but fail validation: {bad}"
    assert loaded >= MUTANTS_PER_FILE, f"only {loaded} mutants loaded"


# Synth settings that size the generated treebanks, each at a size that could never be
# built; ``synthesize_treebank`` is replaced, so a config that got past the check exits 3.
SYNTH_SIZES = {"n_train": 10**15, "n_test": 10**15, "edu_range": [1, 10**15]}


@pytest.mark.parametrize("key", sorted(SYNTH_SIZES))
def test_synth_size_too_large_exits_usage(valid, tmp_path, monkeypatch, key):
    config = {**json.loads((valid / "synth.json").read_text()), key: SYNTH_SIZES[key]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    monkeypatch.setattr("rstboost.treebank.synthesize_treebank", None)
    assert main(["--quiet", "synth", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert not list(tmp_path.glob("*.tb"))
