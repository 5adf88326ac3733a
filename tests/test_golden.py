"""Golden pin of the seed-1 pipeline: synth -> train -> parse --trace -> curve.

A small synthetic config is trained with the default train flags, and the
digests of the primary artifacts plus the exact curve CSV are compared to
pinned values.  Any change that moves them changes default behaviour.
"""

import hashlib
import json

from rstboost.cli import main

SYNTH = {"n_train": 30, "n_test": 10, "edu_range": [2, 6]}

GOLDEN_SHA256 = {
    "model.json": "8fd5a8f7e88683bb696f6f85ffa7eb8bb056a878f6848427523475fa483affa3",
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

REGENERATE = (
    "{name} differs from the golden pin. BLAS, numpy or CPU changes can move "
    "these digests, because training and early stopping run through matrix "
    "products. If the change in default behaviour is intended, regenerate the "
    "pin on purpose and record the old and new values in CHANGES.md."
)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_seed1_pipeline_matches_golden_pin(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(SYNTH))
    data, runs = tmp_path / "data", tmp_path / "runs"
    model, pred, curve = runs / "model.json", runs / "pred.tb", runs / "curve.csv"
    assert main(["--seed", "1", "--quiet", "synth", "--config", str(cfg),
                 "--out", str(data)]) == 0
    assert main(["--seed", "1", "--quiet", "train", str(data / "train_news.tb"),
                 "--out", str(model)]) == 0
    assert main(["--quiet", "parse", str(model), str(data / "test_news.tb"),
                 "--out", str(pred), "--trace"]) == 0
    assert main(["--quiet", "curve", str(model), str(data / "test_news.tb"),
                 str(data / "test_chat.tb"), "--out", str(curve)]) == 0

    for name, want in GOLDEN_SHA256.items():
        assert _sha256(runs / name) == want, REGENERATE.format(name=name)
    assert curve.read_text(encoding="utf-8") == GOLDEN_CURVE, \
        REGENERATE.format(name="curve.csv")
