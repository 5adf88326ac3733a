"""Golden pins of the seed-1 pipeline: synth -> train -> parse --trace -> curve.

A small synthetic config is trained with the default train flags, and the
digests of the primary artifacts plus the exact curve CSV are compared to
pinned values.  Any change that moves them changes default behaviour.  A
second pin trains the same data at a weak setting (``WEAK_TRAIN``), where
every step is kept on dev CE, the curve moves between m = 1 and m = 5 and
the prefixes of most test documents decode to different action sequences,
so that it covers the frozen logits of steps k >= 2 and the decoder's group
splits.  The same pipelines run with one and with two BLAS threads must give
the same outputs.  A third pin runs README quick-start steps 1-6, ``compare``'s report
included, as written: ``README_STEPS`` is read from the ``rstboost`` lines of the README's
quick-start block.  A fourth trains without a hidden layer (``LINEAR_TRAIN``), where the
SGD epoch gathers and writes back both heads' columns.  Two L2 pins
(``L2_TRAIN``, the benchmark's ``train-l2`` setting, and ``LINEAR_L2_TRAIN``) cover
the eager decay of the small arrays and the lazy decay of the input-wide ones,
with and without a hidden layer.  The ``synth`` pins
(``SYNTH_PINS``) cover settings other than the defaults: the benchmark's two
configs and a config with the domains swapped and no domain rules.  The
sparse pin (``SPARSE_SYNTH``) is the README's data-sparse probe: ten training
documents, where span F1 moves with m in both domains.  The README's data-sparse and
weak-learner commands are checked against ``SPARSE_SYNTH``, ``SPARSE_TRAIN`` and
``WEAK_TRAIN``, so a command edited on one side alone fails a test.
"""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from rstboost.cli import main

SYNTH = {"n_train": 30, "n_test": 10, "edu_range": [2, 6]}

GOLDEN_SHA256 = {
    "model.json": "70702d1c86e72e06e3ab3416c6bed944f8de7da759f4b0863563ce1bf5ee9c99",
    "pred.tb": "9cd93768a96dd3e2b340ebb628c52edbb4cd67ed3a3e676bd012785eedb33f01",
    "pred.tb.trace": "9d64f002097d3e78f2073c3140515f1d160e83158b693cf54731257c33ac65c1",
}

GOLDEN_CURVE = """\
m,domain,docs,span_p,span_r,span_f1,nuc_p,nuc_r,nuc_f1,rel_p,rel_r,rel_f1
1,news,10,0.9667,0.9667,0.9667,0.9000,0.9000,0.9000,0.9000,0.9000,0.9000
2,news,10,0.9667,0.9667,0.9667,0.9000,0.9000,0.9000,0.9000,0.9000,0.9000
3,news,10,0.9667,0.9667,0.9667,0.9000,0.9000,0.9000,0.9000,0.9000,0.9000
4,news,10,0.9667,0.9667,0.9667,0.9000,0.9000,0.9000,0.9000,0.9000,0.9000
5,news,10,0.9667,0.9667,0.9667,0.9000,0.9000,0.9000,0.9000,0.9000,0.9000
1,chat,10,0.8611,0.8611,0.8611,0.6111,0.6111,0.6111,0.3611,0.3611,0.3611
2,chat,10,0.8611,0.8611,0.8611,0.6111,0.6111,0.6111,0.3889,0.3889,0.3889
3,chat,10,0.8611,0.8611,0.8611,0.6111,0.6111,0.6111,0.3889,0.3889,0.3889
4,chat,10,0.8611,0.8611,0.8611,0.6111,0.6111,0.6111,0.3889,0.3889,0.3889
5,chat,10,0.8611,0.8611,0.8611,0.6111,0.6111,0.6111,0.4444,0.4444,0.4444
"""

WEAK_TRAIN = ["--hidden-dim", "2", "--epochs-max", "2"]

WEAK_SHA256 = {
    "model.json": "ca04bf91f2ba0f233cfaf79937dbb4683f1273f6bb77cc821edf95ca6f6379f9",
    "pred.tb": "abf68d98316f3f98a6174ca897d2d9fc197185aab4cfd24b1544b64e0331b51f",
    "pred.tb.trace": "00bd5e602bb810b3a7a7ff2d2b8dbecacc524db6917a3e5394cd53d8d5f64f0f",
}

WEAK_CURVE = """\
m,domain,docs,span_p,span_r,span_f1,nuc_p,nuc_r,nuc_f1,rel_p,rel_r,rel_f1
1,news,10,0.8333,0.8333,0.8333,0.4333,0.4333,0.4333,0.4000,0.4000,0.4000
2,news,10,0.7333,0.7333,0.7333,0.6000,0.6000,0.6000,0.4000,0.4000,0.4000
3,news,10,0.8000,0.8000,0.8000,0.6667,0.6667,0.6667,0.4333,0.4333,0.4333
4,news,10,0.8333,0.8333,0.8333,0.6667,0.6667,0.6667,0.4667,0.4667,0.4667
5,news,10,0.9000,0.9000,0.9000,0.6667,0.6667,0.6667,0.4667,0.4667,0.4667
1,chat,10,0.8333,0.8333,0.8333,0.3056,0.3056,0.3056,0.0000,0.0000,0.0000
2,chat,10,0.7222,0.7222,0.7222,0.3056,0.3056,0.3056,0.0000,0.0000,0.0000
3,chat,10,0.8056,0.8056,0.8056,0.3889,0.3889,0.3889,0.0000,0.0000,0.0000
4,chat,10,0.8056,0.8056,0.8056,0.3889,0.3889,0.3889,0.0000,0.0000,0.0000
5,chat,10,0.7778,0.7778,0.7778,0.3056,0.3056,0.3056,0.0000,0.0000,0.0000
"""

LINEAR_TRAIN = ["--hidden-dim", "0"]

# The model digest and the curve CSV's digest.
LINEAR_SHA256 = {
    "model.json": "eb6ed1b4dbcf9596f884701421a6c2dc9d3b7a7c63db42ef81062e749aace2c7",
    "curve.csv": "f29b2169dc8f5ba6662447d351517d2b8c6eace498bbbbf9735542ffb4cf4720",
}

L2_TRAIN = ["--l2", "1e-4", "--strategy", "center"]

L2_SHA256 = {"model.json": "a5ebd6cc9abee5bd8ad314021f3410596ec9b6a4534b9c4eb1e3e54d9079663f"}

L2_CURVE = """\
m,domain,docs,span_p,span_r,span_f1,nuc_p,nuc_r,nuc_f1,rel_p,rel_r,rel_f1
1,news,10,0.8667,0.8667,0.8667,0.7667,0.7667,0.7667,0.6000,0.6000,0.6000
2,news,10,0.9000,0.9000,0.9000,0.8667,0.8667,0.8667,0.7000,0.7000,0.7000
3,news,10,0.8667,0.8667,0.8667,0.8000,0.8000,0.8000,0.6333,0.6333,0.6333
4,news,10,0.8667,0.8667,0.8667,0.8000,0.8000,0.8000,0.6333,0.6333,0.6333
5,news,10,0.8667,0.8667,0.8667,0.8000,0.8000,0.8000,0.5667,0.5667,0.5667
1,chat,10,0.8611,0.8611,0.8611,0.4722,0.4722,0.4722,0.1111,0.1111,0.1111
2,chat,10,0.8611,0.8611,0.8611,0.4722,0.4722,0.4722,0.1389,0.1389,0.1389
3,chat,10,0.8611,0.8611,0.8611,0.4722,0.4722,0.4722,0.1389,0.1389,0.1389
4,chat,10,0.8611,0.8611,0.8611,0.4722,0.4722,0.4722,0.1389,0.1389,0.1389
5,chat,10,0.8611,0.8611,0.8611,0.4722,0.4722,0.4722,0.1389,0.1389,0.1389
"""

LINEAR_L2_TRAIN = ["--hidden-dim", "0", "--l2", "1e-3"]

LINEAR_L2_SHA256 = {
    "model.json": "a73513a4602bfa12531b8bf5beb3f0812df053958d06174d780f9abb83b2ea27"}

LINEAR_L2_CURVE = """\
m,domain,docs,span_p,span_r,span_f1,nuc_p,nuc_r,nuc_f1,rel_p,rel_r,rel_f1
1,news,10,0.9667,0.9667,0.9667,0.8333,0.8333,0.8333,0.6333,0.6333,0.6333
2,news,10,0.9667,0.9667,0.9667,0.8333,0.8333,0.8333,0.7667,0.7667,0.7667
3,news,10,0.9667,0.9667,0.9667,0.8333,0.8333,0.8333,0.8000,0.8000,0.8000
4,news,10,0.9667,0.9667,0.9667,0.8333,0.8333,0.8333,0.8000,0.8000,0.8000
5,news,10,0.9667,0.9667,0.9667,0.8333,0.8333,0.8333,0.8000,0.8000,0.8000
1,chat,10,0.8056,0.8056,0.8056,0.3611,0.3611,0.3611,0.0556,0.0556,0.0556
2,chat,10,0.8056,0.8056,0.8056,0.3611,0.3611,0.3611,0.1944,0.1944,0.1944
3,chat,10,0.7778,0.7778,0.7778,0.3333,0.3333,0.3333,0.2222,0.2222,0.2222
4,chat,10,0.7778,0.7778,0.7778,0.3333,0.3333,0.3333,0.2500,0.2500,0.2500
5,chat,10,0.8056,0.8056,0.8056,0.4167,0.4167,0.4167,0.2778,0.2778,0.2778
"""

# The README's data-sparse probe: ten training documents, the default test sets.
SPARSE_SYNTH = {"n_train": 10}

SPARSE_TRAIN = ["--steps", "5"]

SPARSE_SHA256 = {
    "model.json": "5645207a113e433dbf7c25e6fb7c0552d43f7574d9c1065ac1c37347b959a5f3"}

SPARSE_CURVE = """\
m,domain,docs,span_p,span_r,span_f1,nuc_p,nuc_r,nuc_f1,rel_p,rel_r,rel_f1
1,news,100,0.6853,0.6853,0.6853,0.4410,0.4410,0.4410,0.3209,0.3209,0.3209
2,news,100,0.7391,0.7391,0.7391,0.5114,0.5114,0.5114,0.3892,0.3892,0.3892
3,news,100,0.7640,0.7640,0.7640,0.5404,0.5404,0.5404,0.4079,0.4079,0.4079
4,news,100,0.7660,0.7660,0.7660,0.5466,0.5466,0.5466,0.4058,0.4058,0.4058
5,news,100,0.7723,0.7723,0.7723,0.5611,0.5611,0.5611,0.3892,0.3892,0.3892
1,chat,100,0.7462,0.7462,0.7462,0.3873,0.3873,0.3873,0.0810,0.0810,0.0810
2,chat,100,0.7418,0.7418,0.7418,0.3676,0.3676,0.3676,0.0832,0.0832,0.0832
3,chat,100,0.7505,0.7505,0.7505,0.3676,0.3676,0.3676,0.0897,0.0897,0.0897
4,chat,100,0.7505,0.7505,0.7505,0.3742,0.3742,0.3742,0.0875,0.0875,0.0875
5,chat,100,0.7352,0.7352,0.7352,0.3304,0.3304,0.3304,0.0700,0.0700,0.0700
"""

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_sh_block(after: str) -> list[list[str]]:
    """The command lines of the first ``sh`` block after the text ``after`` in the README,
    each split as the shell splits it; comment and blank lines are left out."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", text[text.index(after):], re.S).group(1)
    return [shlex.split(line) for line in block.splitlines()
            if line.strip() and not line.startswith("#")]


# README quick-start steps 1-6 at seed 1, in the README's own paths and sizes: the
# ``rstboost`` lines of its quick-start block, in order.
README_STEPS = [argv[1:] for argv in readme_sh_block("## Quick start") if argv[0] == "rstboost"]

README_SHA256 = {
    "data/train_news.tb": "ad686b571b9da4c25694d56fe1a68e52f82954f1d5985b3790efbd9eaa43001e",
    "data/test_news.tb": "5c6ed9a125285971c287479ac8f3cd2ff4503774fec1fef40a9fab5e19852b32",
    "data/test_chat.tb": "c1891e34daa9ef5e3ec9d163110eb2ac78cdb1e4b41d8801ab1b469fd1df4453",
    "runs/model.json": "47f1ef5f6fd90812035adc4bdd6fab5db2ddad48b1783acc5cd08bb49235e648",
    "runs/pred.tb": "5c6ed9a125285971c287479ac8f3cd2ff4503774fec1fef40a9fab5e19852b32",
    "runs/pred_m1.tb": "5c6ed9a125285971c287479ac8f3cd2ff4503774fec1fef40a9fab5e19852b32",
    "runs/pred.tb.trace": "46e279b89d5f4de903f18f54d35e190fe3037f2863274e65f35c9c99892624b0",
    "runs/eval.csv": "e299f1490d83029de7b1d307ae731fbccb09ff995399c1a39a8b91aee47886b3",
    "runs/curve.csv": "a396b384a268eef2b3d7f21aafbf172ad4f644aefd80f6875a36193d90e36645",
    "runs/compare.json": "d67aec673c9c3a5f8ca3b68c845d2fd28d3d0403c1085dcb2eedec88a597fa23",
}

# The README synth defaults, in field order, as ``synth`` records them in its manifest.
SYNTH_DEFAULTS = {
    "n_train": 200, "n_test": 100, "edu_range": [2, 10],
    "shared_vocab": 120, "domain_vocab": 40, "p_domain": 0.5,
    "domain_a": "news", "domain_b": "chat",
    "shared_relations": ["attribution", "background", "cause", "contrast", "elaboration", "joint"],
    "domain_relations_a": ["condition", "evidence"],
    "domain_relations_b": ["restatement", "temporal"],
}

# (seed, config, {file: digest}) for each pinned synth run.
SYNTH_PINS = [
    (3, {"n_train": 50, "n_test": 25, "edu_range": [6, 6]}, {
        "train_news.tb": "7b5139c3054c4994cd7e904ef0d56f5e4e09f929e1141a8ebc91afa9457adea5",
        "test_news.tb": "cee438b296b1071e3b89f1e86aadbd8de3e2047117c0a80ceeb99f5a950ab47b",
        "test_chat.tb": "812bfdcdb1012d5e2a83a75cd32a479bafb263e6beeeef053053ba2d9b7468d9",
    }),
    (4, {"n_train": 16, "n_test": 20, "edu_range": [6, 6]}, {
        "train_news.tb": "9f1e412b769827ea7bef470e9389b23edf96489b63b4d435b4a62f82592a3aeb",
        "test_news.tb": "b8a6b3faa048cb1087edfca6dd87621563411ada3e5a012ffc6bb032f3e48cf6",
        "test_chat.tb": "190fd971f643da5c0b90a1ddcf902053ffe8789edda7533962c2cb2550f85fa9",
    }),
    (2, {"n_train": 7, "n_test": 5, "edu_range": [1, 3], "p_domain": 0,
         "domain_relations_a": [], "domain_relations_b": [],
         "domain_a": "chat", "domain_b": "news"}, {
        "train_chat.tb": "e5f14d75431ec3f8056297e8d3ab0d79f903b3896bb40bc9f02c255ed0c90c05",
        "test_chat.tb": "0fa4bf421ef3fe8807b7985150555ee9e11c53ea3547e4d51649d34382bb7b83",
        "test_news.tb": "8bd1a43cfce3a745d89c6d87ae11c959a020d4c340fbbf4810373c4f959cfb59",
    }),
]

REGENERATE = (
    "{name} differs from the golden pin. A numpy, Python or CPU change can move "
    "these digests, because training sums floating-point products. If the change "
    "in default behaviour is intended, regenerate the pin on purpose and record "
    "the old and new values in CHANGES.md."
)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(workdir, train_flags=(), synth=SYNTH) -> dict:
    """Run the pinned pipeline in ``workdir`` on treebanks made with the ``synth``
    config, training with ``train_flags`` on top of the defaults; return the
    artifact digests and the curve CSV text."""
    workdir = Path(workdir)
    cfg = workdir / "synth.json"
    cfg.write_text(json.dumps(synth))
    data, runs = workdir / "data", workdir / "runs"
    model, pred, curve = runs / "model.json", runs / "pred.tb", runs / "curve.csv"
    assert main(["--seed", "1", "--quiet", "synth", "--config", str(cfg),
                 "--out", str(data)]) == 0
    assert main(["--seed", "1", "--quiet", "train", str(data / "train_news.tb"),
                 "--out", str(model), *train_flags]) == 0
    assert main(["--quiet", "parse", str(model), str(data / "test_news.tb"),
                 "--out", str(pred), "--trace"]) == 0
    assert main(["--quiet", "curve", str(model), str(data / "test_news.tb"),
                 str(data / "test_chat.tb"), "--out", str(curve)]) == 0
    out = {name: _sha256(runs / name) for name in GOLDEN_SHA256}
    out["curve.csv"] = curve.read_text(encoding="utf-8")
    return out


def assert_matches_pin(got, digests, curve):
    for name, want in digests.items():
        assert got[name] == want, REGENERATE.format(name=name)
    assert got["curve.csv"] == curve, REGENERATE.format(name="curve.csv")


def test_seed1_pipeline_matches_golden_pin(tmp_path):
    assert_matches_pin(run_pipeline(tmp_path), GOLDEN_SHA256, GOLDEN_CURVE)


def test_seed1_weak_pipeline_matches_golden_pin(tmp_path):
    assert_matches_pin(run_pipeline(tmp_path, WEAK_TRAIN), WEAK_SHA256, WEAK_CURVE)


def test_seed1_linear_pipeline_matches_golden_pin(tmp_path):
    got = run_pipeline(tmp_path, LINEAR_TRAIN)
    assert got["model.json"] == LINEAR_SHA256["model.json"], REGENERATE.format(name="model.json")
    curve = hashlib.sha256(got["curve.csv"].encode()).hexdigest()
    assert curve == LINEAR_SHA256["curve.csv"], REGENERATE.format(name="curve.csv")


def test_seed1_l2_pipeline_matches_golden_pin(tmp_path):
    assert_matches_pin(run_pipeline(tmp_path, L2_TRAIN), L2_SHA256, L2_CURVE)


def test_seed1_linear_l2_pipeline_matches_golden_pin(tmp_path):
    assert_matches_pin(run_pipeline(tmp_path, LINEAR_L2_TRAIN), LINEAR_L2_SHA256,
                       LINEAR_L2_CURVE)


def test_seed1_sparse_pipeline_matches_golden_pin(tmp_path):
    got = run_pipeline(tmp_path, SPARSE_TRAIN, SPARSE_SYNTH)
    assert_matches_pin(got, SPARSE_SHA256, SPARSE_CURVE)


def test_readme_quickstart_matches_pin(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in README_STEPS:
        assert main(["--quiet", *argv]) == 0, argv
    for name, want in README_SHA256.items():
        assert _sha256(tmp_path / name) == want, REGENERATE.format(name=name)
    # The train split's oracle states, and those with one legal class, which SGD skips.
    report = json.loads((tmp_path / "runs/model.json.report.json").read_text())
    assert (report["train_states"], report["skipped_states"]) == (2030, 470)


def test_readme_commands_are_the_pinned_ones():
    """The README's data-sparse probe is the sparse pin's setting, and its weak-learner
    ``train`` is the weak pin's flags at the default five steps."""
    echo, synth, train, _ = readme_sh_block("**A data-sparse probe.**")
    assert echo[0] == "echo" and echo[2:] == [">", synth[synth.index("--config") + 1]]
    assert json.loads(echo[1]) == SPARSE_SYNTH
    assert synth[:4] == ["rstboost", "--seed", "1", "synth"]
    assert train[:4] == ["rstboost", "--seed", "1", "train"] and train[5] == "--out"
    assert train[7:] == SPARSE_TRAIN
    [weak] = readme_sh_block("to watch boosting do work")
    assert weak[:4] == ["rstboost", "--seed", "1", "train"] and weak[5] == "--out"
    assert weak[7:] == ["--steps", "5", *WEAK_TRAIN]


def test_synth_at_other_settings_matches_pin(tmp_path):
    for k, (seed, config, digests) in enumerate(SYNTH_PINS):
        cfg, out = tmp_path / f"synth{k}.json", tmp_path / f"data{k}"
        cfg.write_text(json.dumps(config))
        assert main(["--seed", str(seed), "--quiet", "synth", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.tb")) == sorted(digests)
        for name, want in digests.items():
            assert _sha256(out / name) == want, REGENERATE.format(name=name)
        # Field order and JSON types too: p_domain 0 stays an int.
        manifest = json.loads((out / "synth.manifest.json").read_text())
        assert json.dumps(manifest["config"]) == json.dumps({**SYNTH_DEFAULTS, **config})


def assert_same_under_one_and_two_threads(tmp_path, train_flags, synth=SYNTH):
    """The pinned pipeline in fresh processes with 1 and with 2 BLAS threads."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here), str(here.parent / "src")])
    script = ("import json, sys; from test_golden import run_pipeline; print(json.dumps("
              "run_pipeline(sys.argv[1], sys.argv[3:], json.loads(sys.argv[2]))))")
    results = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               **{var: threads for var in BLAS_THREAD_VARS}}
        workdir = tmp_path / f"threads{threads}"
        workdir.mkdir()
        proc = subprocess.run([sys.executable, "-c", script, str(workdir),
                               json.dumps(synth), *train_flags],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        results[threads] = json.loads(proc.stdout.splitlines()[-1])
    assert results["1"] == results["2"]


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    assert_same_under_one_and_two_threads(tmp_path, [])


def test_weak_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    assert_same_under_one_and_two_threads(tmp_path, WEAK_TRAIN)


def test_l2_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    assert_same_under_one_and_two_threads(tmp_path, L2_TRAIN)


def test_sparse_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    assert_same_under_one_and_two_threads(tmp_path, SPARSE_TRAIN, SPARSE_SYNTH)
