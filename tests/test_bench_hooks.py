"""The functions the benchmark's tracer wraps must stay present and in use.

``perfbench/tracer.py`` wraps named functions of the rstboost modules; a
missing name fails its traced run at install, and a hot function that is
never called leaves its per-layer metric unmeasured.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from rstboost import boosting
from rstboost.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names():
    tracer = load_tracer()
    return [(layer, name)
            for table in (tracer.SPAN_FUNCS, tracer.HOT_FUNCS)
            for layer, names in table.items() for name in names]


@pytest.mark.parametrize("layer,name", wrapped_names())
def test_wrapped_name_exists(layer, name):
    module = importlib.import_module(f"rstboost.{layer}")
    assert callable(getattr(module, name, None)), f"rstboost.{layer}.{name} is missing"


def test_cli_parse_calls_predict_action_and_decode(tmp_path, monkeypatch):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"n_train": 6, "n_test": 3, "edu_range": [2, 4]}))
    data, model = tmp_path / "data", tmp_path / "model.json"
    assert main(["--seed", "2", "--quiet", "synth", "--config", str(cfg),
                 "--out", str(data)]) == 0
    assert main(["--seed", "2", "--quiet", "train", str(data / "train_news.tb"),
                 "--out", str(model), "--steps", "2", "--hash-dim", "64",
                 "--epochs-max", "2", "--patience", "2"]) == 0

    calls = {"predict_action": 0, "decode": []}
    predict_action, decode = boosting.predict_action, boosting.decode

    def counting_predict_action(*args, **kwargs):
        calls["predict_action"] += 1
        return predict_action(*args, **kwargs)

    def counting_decode(*args, **kwargs):
        # the tracer reads (ensemble, m, doc) from the positional arguments
        calls["decode"].append(len(args))
        return decode(*args, **kwargs)

    monkeypatch.setattr(boosting, "predict_action", counting_predict_action)
    monkeypatch.setattr(boosting, "decode", counting_decode)
    assert main(["--quiet", "parse", str(model), str(data / "test_news.tb"),
                 "--out", str(tmp_path / "pred.tb")]) == 0
    assert calls["decode"] == [3] * 3
    assert calls["predict_action"] > 0

    # curve decodes every prefix through decode_batch, which steps through
    # predict_action
    calls["predict_action"] = 0
    assert main(["--quiet", "curve", str(model), str(data / "test_news.tb"),
                 "--out", str(tmp_path / "curve.csv")]) == 0
    assert calls["predict_action"] > 0
