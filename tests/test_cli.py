import base64
import hashlib
import json
import os
import re
import struct
import warnings
from dataclasses import asdict, fields, replace
from itertools import accumulate
from pathlib import Path

import pytest

import rstboost.cli as cli
import rstboost.weak_learner as wl
from rstboost import boosting, errors
from rstboost.cli import main
from rstboost.boosting import BoostConfig, load_model, save_model
from rstboost.encoder import EncoderConfig
from rstboost.metrics import CSV_HEADER
from rstboost.transition import apply, initial_state, oracle
from rstboost.treebank import (SynthSettings, _atomic_write, load_treebank, save_treebank,
                               synthesize_treebank)

from conftest import numeric_flags

FAST_TRAIN = ["--hash-dim", "256", "--epochs-max", "5", "--patience", "2"]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cfg = out / "synth.json"
    cfg.write_text(json.dumps({"n_train": 40, "n_test": 15, "edu_range": [2, 6]}))
    assert run("--seed", 5, "synth", "--config", cfg, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def model_path(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    code = run("--seed", 5, "--quiet", "train", data_dir / "train_news.tb",
               "--out", out, "--steps", "2", *FAST_TRAIN)
    assert code == 0
    return out


class TestSynth:
    def test_writes_three_files_and_manifest(self, data_dir):
        assert (data_dir / "train_news.tb").exists()
        assert (data_dir / "test_news.tb").exists()
        assert (data_dir / "test_chat.tb").exists()
        manifest = json.loads((data_dir / "synth.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 5
        assert "timings_seconds" in manifest

    def test_files_load_and_declare_full_inventory(self, data_dir):
        tb = load_treebank(data_dir / "train_news.tb")
        assert len(tb) == 40
        assert tb.domain_tag == "news"
        assert "restatement" in tb.relation_inventory  # declared, unused here

    def test_deterministic_rerun(self, data_dir, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"n_train": 40, "n_test": 15, "edu_range": [2, 6]}))
        assert run("--seed", 5, "--quiet", "synth", "--config", cfg,
                   "--out", tmp_path) == 0
        for name in ("train_news.tb", "test_news.tb", "test_chat.tb"):
            assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"n_trian": 10}))
        assert run("synth", "--config", cfg, "--out", tmp_path) == 1
        assert "n_trian" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.tb"))


    @pytest.mark.parametrize("text,needle", [
        ('{"n_train": 4, "edu_r', "not valid JSON"),
        # Python's reader refuses these with RecursionError and ValueError.
        pytest.param("[" * 100_000, "not valid JSON", id="nested-too-deep"),
        pytest.param('{"n_train": ' + "1" * 5000 + "}", "not valid JSON", id="integer-too-long"),
        ('[1, 2]', "JSON object"),
        ('{"edu_range": 5}', "edu_range"),
        ('{"edu_range": [2]}', "EDU range"),
        ('{"edu_range": [2, 4.5]}', "edu_range"),
        ('{"n_train": "40"}', "n_train"),
        ('{"n_test": true}', "n_test"),
        ('{"shared_relations": ["cause", 3]}', "shared_relations"),
        ('{"domain_a": "two words"}', "domain tag"),
        ('{"n_train": -1}', "n_train"),
        ('{"n_test": -2}', "n_test"),
        ('{"p_domain": 0.5, "domain_relations_b": []}', "domain_relations_b"),
    ])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, text, needle):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        assert run("--quiet", "synth", "--config", cfg, "--out", tmp_path / "out") == 1
        assert needle in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.tb"))

    @pytest.mark.parametrize("bad,needle", [
        ({"domain_a": "x", "domain_b": "x"}, "domain_a and domain_b"),
        ({"domain_b": "two words"}, "domain tag"),
        ({"domain_relations_b": ["Two Words"]}, "relation label"),
        ({"n_train": 10**15}, "the limit is 1,000,000"),
        ({"n_test": 10**15}, "the limit is 1,000,000"),
        ({"edu_range": [1, 10**15]}, "the limit is 1,000,000"),
    ], ids=["equal-domains", "domain-b-tag", "domain-b-relation", "n_train-too-large",
            "n_test-too-large", "edu_range-too-large"])
    def test_bad_domain_config_is_usage_error_and_writes_nothing(self, tmp_path, capsys,
                                                                 monkeypatch, bad, needle):
        """Every rule is checked when the settings are read, before any generation."""
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"n_train": 3, "n_test": 2, **bad}))
        out = tmp_path / "data"
        monkeypatch.setattr(cli.treebank, "synthesize_treebank", None)  # a call would exit 3
        assert run("synth", "--config", cfg, "--out", out) == 1
        assert needle in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.tb"))

    def test_float_setting_takes_an_int(self, tmp_path):
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps({"n_train": 3, "n_test": 2, "p_domain": 1}))
        assert run("--quiet", "synth", "--config", cfg, "--out", tmp_path) == 0

    def test_readme_defaults_are_the_settings_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## Synthetic treebanks.*?```json\n(.*?)```", readme, re.S)
        defaults = json.loads(json.dumps(asdict(cli.SynthSettings())))  # tuples as lists
        assert list(json.loads(block.group(1)).items()) == list(defaults.items())


class TestUndecodableInput:
    """Invalid UTF-8 in any input file is a data error."""

    BAD = b'#doc d1 news\n(NS cause (leaf "\xff") (leaf "b"))\n'

    def test_eval_treebank(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.tb"
        bad.write_bytes(self.BAD)
        assert run("--quiet", "eval", data_dir / "test_news.tb", bad) == 2
        assert "data error" in capsys.readouterr().err

    def test_parse_input(self, model_path, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"an edu\n\xfe\xff another\n")
        assert run("--quiet", "parse", model_path, bad, "--out", tmp_path / "p.tb") == 2

    def test_parse_and_curve_model(self, model_path, data_dir, tmp_path):
        bad = tmp_path / "bad.json"
        text = model_path.read_bytes()
        bad.write_bytes(text[:100] + b"\xc3\x28" + text[100:])
        assert run("--quiet", "parse", bad, data_dir / "test_news.tb",
                   "--out", tmp_path / "p.tb") == 2
        assert run("--quiet", "curve", bad, data_dir / "test_news.tb",
                   "--out", tmp_path / "c.csv") == 2

    def test_synth_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"n_train": 4\x80}')
        assert run("--quiet", "synth", "--config", bad, "--out", tmp_path) == 2

    def test_parse_and_curve_model_parameter(self, model_path, data_dir, tmp_path):
        """A parameter's base64 is cut out of the bytes before any UTF-8 decoding, and
        its decoder refuses a byte that is not base64."""
        data = model_path.read_bytes()
        at = data.index(b'"f64le": "') + len(b'"f64le": "') + 4
        bad = tmp_path / "bad.json"
        bad.write_bytes(data[:at] + b"\xc3\x28" + data[at + 2:])
        assert run("--quiet", "parse", bad, data_dir / "test_news.tb",
                   "--out", tmp_path / "p.tb") == 2
        assert run("--quiet", "curve", bad, data_dir / "test_news.tb",
                   "--out", tmp_path / "c.csv") == 2


class TestModelEncoding:
    """The reader works on the model file's bytes, with the text rules it had."""

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_cr_copy_loads_the_same(self, newline, model_path, data_dir, tmp_path):
        """JSON reads a CR as white space, and none stands inside a parameter's base64."""
        cr = tmp_path / "cr.json"
        cr.write_bytes(model_path.read_bytes().replace(b"\n", newline.encode()))
        for a, b in zip(load_model(model_path).steps, load_model(cr).steps, strict=True):
            for (na, pa), (nb, pb) in zip(a.param_items(), b.param_items(), strict=True):
                assert na == nb and pa.tobytes() == pb.tobytes()
        for name, model in (("lf.tb", model_path), ("cr.tb", cr)):
            assert run("--quiet", "parse", model, data_dir / "test_news.tb",
                       "--out", tmp_path / name) == 0
        assert (tmp_path / "lf.tb").read_bytes() == (tmp_path / "cr.tb").read_bytes()

    def test_utf16_copy_is_data_error(self, model_path, data_dir, tmp_path, capsys):
        """Bytes given to ``json.loads`` would be sniffed as UTF-16; the reader decodes
        UTF-8 only."""
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(model_path.read_text().encode("utf-16"))
        assert utf16.read_bytes()[:2] in (b"\xff\xfe", b"\xfe\xff")
        assert run("--quiet", "parse", utf16, data_dir / "test_news.tb",
                   "--out", tmp_path / "p.tb") == 2
        assert "data error" in capsys.readouterr().err


class TestAtomicWrite:
    def test_failed_write_keeps_old_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old contents\n")
        with pytest.raises(UnicodeEncodeError):
            _atomic_write(target, "new contents \ud800 cannot be encoded\n")
        assert target.read_text() == "old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_replaces_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        _atomic_write(target, "new\n")
        assert target.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_failed_save_model_keeps_old_model(self, model_path, tmp_path, monkeypatch):
        target = tmp_path / "model.json"
        target.write_bytes(model_path.read_bytes())
        ensemble = load_model(model_path)

        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError):
            save_model(replace(ensemble, train_domain_tag="other"), target)
        assert target.read_bytes() == model_path.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


class TestTrain:
    def test_diverging_training_prints_no_numpy_warning(self, setups, tmp_path):
        """Logits that overflow give non-finite CEs, which step selection handles: the
        README seed-1 chat data at init scale 1e308 keeps two ``zero`` steps, quietly."""
        data = setups(1)["dir"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("--seed", 1, "--quiet", "train", data / "test_chat.tb",
                       "--out", tmp_path / "m.json", "--steps", 2, "--epochs-max", 2,
                       "--hidden-dim", 16, "--init-scale", "1e308")
        assert code == 0
        report = json.loads((tmp_path / "m.json.report.json").read_text())
        assert [s["selection"] for s in report["steps"]] == ["zero", "zero"]
        assert all(d is None for s in report["steps"] for d in s["dev_losses"])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
            [str(w.message) for w in caught]

    def test_model_and_report_written(self, model_path):
        ens = load_model(model_path)
        assert len(ens.steps) == 2
        assert ens.train_domain_tag == "news"
        report = json.loads(Path(str(model_path) + ".report.json").read_text())
        assert len(report["steps"]) == 2
        for step in report["steps"]:
            assert step["seconds"] >= 0
            assert step["param_count"] > 0
        assert 0 < report["skipped_states"] < report["train_states"]
        manifest = json.loads(Path(str(model_path) + ".manifest.json").read_text())
        assert manifest["command"] == "train"
        assert list(manifest["inputs"].values())[0].startswith("sha256:")
        timings = manifest["timings_seconds"]
        assert set(timings) == {"total", "load", "train", "save"}
        assert timings["save"] > 0
        assert timings["load"] + timings["train"] + timings["save"] == pytest.approx(
            timings["total"], abs=1e-5)

    def test_report_is_strict_json_when_no_dev_ce_is_finite(self, data_dir, tmp_path):
        """At lr 1e308 every epoch's dev CE overflows: the report records each as null."""
        out = tmp_path / "m.json"
        assert run("--seed", 1, "--quiet", "train", data_dir / "train_news.tb", "--out", out,
                   "--steps", 2, *FAST_TRAIN, "--epochs-max", 2, "--lr", "1e308") == 0

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        text = Path(str(out) + ".report.json").read_text()
        steps = json.loads(text, parse_constant=refuse)["steps"]
        assert [s["dev_losses"] for s in steps] == [[None, None], [None, None]]
        assert [s["selection"] for s in steps] == ["zero", "zero"]

    def test_single_step_model(self, data_dir, tmp_path):
        out = tmp_path / "m1.json"
        assert run("--seed", 1, "--quiet", "train", data_dir / "train_news.tb",
                   "--out", out, "--steps", "1", *FAST_TRAIN) == 0
        assert len(load_model(out).steps) == 1

    def test_deterministic_model_bytes(self, data_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("--seed", 9, "--quiet", "train", data_dir / "train_news.tb",
                       "--out", out, "--steps", "2", *FAST_TRAIN) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_treebank_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.tb"
        empty.write_text("")
        assert run("--quiet", "train", empty, "--out", tmp_path / "m.json") == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("--quiet", "train", tmp_path / "nope.tb",
                   "--out", tmp_path / "m.json") == 2

    def test_declared_relation_outside_grammar_is_data_error(self, data_dir, tmp_path,
                                                              capsys):
        text = (data_dir / "train_news.tb").read_text()
        assert text.startswith("#relations ")
        bad = tmp_path / "bad.tb"
        bad.write_text(text.replace("#relations ", "#relations Bad,Label ", 1))
        out = tmp_path / "m.json"
        assert run("--quiet", "train", bad, "--out", out, "--steps", "1", *FAST_TRAIN) == 2
        assert "'Bad,Label'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--lr", "inf"),
                                            ("--l2", "nan")])
    def test_non_finite_rate_is_usage_error(self, data_dir, tmp_path, capsys,
                                            flag, value):
        out = tmp_path / "m.json"
        assert run("--quiet", "train", data_dir / "train_news.tb", "--out", out,
                   "--steps", "1", *FAST_TRAIN, flag, value) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("l2", ["0.5", "2"])
    def test_non_positive_shrink_factor_is_usage_error(self, data_dir, tmp_path, capsys, l2):
        """At lr 1 an l2 of 0.5 would erase every parameter on each update, and one of 2
        would flip its sign."""
        out = tmp_path / "m.json"
        assert run("--quiet", "train", data_dir / "train_news.tb", "--out", out,
                   "--steps", "1", *FAST_TRAIN, "--lr", "1", "--l2", l2) == 1
        assert "2 * learning_rate * l2_penalty must be < 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_init_scale_whose_range_overflows_is_usage_error(self, data_dir, tmp_path, capsys,
                                                             command):
        """With one hidden unit the heads' fan-in is 1, and uniform(-a, a) at a = 1e308
        would raise OverflowError (exit 3) inside ``init``."""
        out = tmp_path / "out.json"
        assert run("--quiet", command, data_dir / "train_news.tb", "--out", out, "--steps", "1",
                   *FAST_TRAIN, "--hidden-dim", "1", "--init-scale", "1e308") == 1
        assert "init_scale 1e+308 is too large" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_ensemble_too_large_to_build_is_usage_error(self, data_dir, tmp_path, capsys,
                                                        command, monkeypatch):
        out = tmp_path / "out.json"
        monkeypatch.setattr(cli.boosting, "train", None)  # a call would exit 3
        assert run("--quiet", command, data_dir / "train_news.tb", "--out", out,
                   *FAST_TRAIN, "--steps", 10**20) == 1
        assert "ensemble limit of 10,000,000 parameters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("flag", ["--hash-dim", "--hidden-dim"])
    def test_learner_too_large_to_build_is_usage_error(self, data_dir, tmp_path, capsys,
                                                       command, flag):
        """No machine could allocate a learner sized 10^15, so it fails at once even
        where it is not refused.  A size between the limit and 10^15 would really be
        allocated, so no test uses one."""
        out = tmp_path / "out.json"
        assert run("--quiet", command, data_dir / "train_news.tb", "--out", out,
                   "--steps", "1", *FAST_TRAIN, flag, 10**15) == 1
        assert f"the limit is {wl.MAX_PARAMS:,}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_treebank_without_relations_is_data_error(self, tmp_path, capsys, command):
        flat = tmp_path / "flat.tb"
        flat.write_text("".join(f'#doc d{i} news\n(leaf "hello world")\n\n'
                                for i in range(3)))
        assert len(load_treebank(flat)) == 3
        out = tmp_path / "out.json"
        assert run("--quiet", command, flat, "--out", out, "--steps", "1", *FAST_TRAIN) == 2
        assert f"treebank {flat} declares no relations" in capsys.readouterr().err
        assert not out.exists()


def model_key_paths():
    """Every key path of the ``model_path`` model file: two steps with a hidden layer."""
    top = ("format_version", "encoder_config", "relation_inventory", "train_domain_tag",
           "boost_config", "steps")
    learner = wl.LearnerConfig(input_dim=1, n_relations=1)
    return ([(key,) for key in top]
            + [("encoder_config", f.name) for f in fields(EncoderConfig)]
            + [("boost_config", f.name) for f in fields(BoostConfig)]
            + [("boost_config", "learner", f.name) for f in fields(wl.LearnerConfig)]
            + [("steps", i, name, *spec) for i in range(2) for name in wl.param_shapes(learner)
               for spec in ((), ("shape",), ("f64le",))])


def shown_key_path(path) -> str:
    """A key path as the model loader names it: ``steps[1].w_relation.shape``."""
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]


class TestMalformedModel:
    @pytest.fixture()
    def model_doc(self, model_path):
        return json.loads(model_path.read_text())

    def parse_with(self, text, data_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        return run("--quiet", "parse", bad, data_dir / "test_news.tb",
                   "--out", tmp_path / "pred.tb")

    def test_truncated_file_is_data_error(self, model_path, data_dir, tmp_path, capsys):
        text = model_path.read_text()[:2000]
        assert self.parse_with(text, data_dir, tmp_path) == 2
        assert "malformed model" in capsys.readouterr().err

    def test_nested_too_deep_is_data_error(self, data_dir, tmp_path, capsys):
        assert self.parse_with("[" * 100_000, data_dir, tmp_path) == 2
        assert "malformed model file: RecursionError" in capsys.readouterr().err

    def test_missing_step_key_is_data_error(self, model_doc, data_dir, tmp_path, capsys):
        del model_doc["steps"][1]["w_relation"]
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert "w_relation" in capsys.readouterr().err

    def test_inventory_size_mismatch_is_data_error(self, model_doc, data_dir, tmp_path,
                                                   capsys):
        model_doc["relation_inventory"] = model_doc["relation_inventory"][:2]
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert "inventory" in capsys.readouterr().err

    def test_wrong_shape_is_data_error(self, model_doc, data_dir, tmp_path, capsys):
        spec = model_doc["steps"][0]["w_structure"]
        spec["shape"] = spec["shape"][::-1]
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert "w_structure" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_is_data_error(self, model_doc, data_dir, tmp_path,
                                                capsys, value):
        spec = model_doc["steps"][0]["b_structure"]
        raw = struct.pack("<d", value) + base64.b64decode(spec["f64le"])[8:]
        spec["f64le"] = base64.b64encode(raw).decode()
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert "b_structure has non-finite values" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_saved_non_finite_parameter_is_data_error(self, model_path, data_dir, tmp_path,
                                                      capsys, value):
        ens = load_model(model_path)
        ens.steps[1].w_relation[0, 0] = value
        bad = tmp_path / "bad.json"
        save_model(ens, bad)
        spec = json.loads(bad.read_text())["steps"][1]["w_relation"]
        assert base64.b64decode(spec["f64le"])[:8] == struct.pack("<d", value)
        assert run("--quiet", "parse", bad, data_dir / "test_news.tb",
                   "--out", tmp_path / "pred.tb") == 2
        assert "w_relation" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["bad-char", "ragged-bytes", "one-short"])
    def test_undecodable_parameter_is_data_error(self, model_doc, data_dir, tmp_path,
                                                 capsys, damage):
        spec = model_doc["steps"][1]["w_structure"]
        raw = base64.b64decode(spec["f64le"])
        # Unvalidated, base64 would skip the "!" and decode the rest.
        spec["f64le"] = {"bad-char": spec["f64le"][:4] + "!" + spec["f64le"][4:],
                         "ragged-bytes": base64.b64encode(raw[:-3]).decode(),
                         "one-short": base64.b64encode(raw[:-8]).decode()}[damage]
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert "parameter w_structure is not base64 float64" in capsys.readouterr().err

    def test_duplicate_f64le_key_is_data_error(self, model_path, data_dir, tmp_path, capsys):
        """``json.loads`` would keep the last of two keys, but the reader cuts both strings
        out, and two strings for one parameter do not pair."""
        text = model_path.read_text()
        start = text.index('"f64le": "')
        pair = text[start:text.index('"', start + len('"f64le": "')) + 1]
        assert self.parse_with(text.replace(pair, f"{pair}, {pair}", 1), data_dir,
                               tmp_path) == 2
        assert "do not pair one to one" in capsys.readouterr().err
        assert not (tmp_path / "pred.tb").exists()

    def test_key_ending_in_f64le_is_data_error(self, model_path, data_dir, tmp_path, capsys):
        """The reader cuts the string after ``x\\"f64le``, a key that ends in the text it
        looks for; the key is unknown."""
        text = model_path.read_text().replace('"shape": ', '"x\\"f64le": "AAAA", "shape": ', 1)
        assert self.parse_with(text, data_dir, tmp_path) == 2
        assert """unknown parameter w_hidden keys: ['x"f64le']""" in capsys.readouterr().err
        assert not (tmp_path / "pred.tb").exists()

    def test_format_1_file_is_refused_with_retrain_hint(self, model_doc, data_dir, tmp_path,
                                                         capsys):
        model_doc["format_version"] = 1
        for step in model_doc["steps"]:
            for spec in step.values():
                data = base64.b64decode(spec.pop("f64le"))
                spec["data"] = list(struct.unpack(f"<{len(data) // 8}d", data))
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        err = capsys.readouterr().err
        assert "format_version 1" in err and "retrain with `rstboost train`" in err

    @pytest.mark.parametrize("key,value,needle", [
        ("relation_inventory", "as-a-string", "relation_inventory must be a list"),
        ("relation_inventory", "repeated", "relation_inventory must be a list"),
        ("train_domain_tag", 5, "train_domain_tag must be a string"),
        ("train_domain_tag", None, "train_domain_tag must be a string"),
        ("train_domain_tag", "ne,ws", "train_domain_tag must be a string in [\\w.-]+, got 'ne,ws'"),
        ("train_domain_tag", "", "train_domain_tag must be a string in [\\w.-]+, got ''"),
    ])
    def test_top_level_value_of_the_wrong_json_type_is_data_error(
            self, model_doc, data_dir, tmp_path, capsys, key, value, needle):
        """An inventory string of the right length would load as one-letter labels, and a
        repeated label or a non-string domain tag would be written on into outputs.  A
        tag that no treebank record can carry would match no treebank, and ``curve``
        would write no gaps."""
        inventory = model_doc["relation_inventory"]
        model_doc[key] = {"as-a-string": "abcdefghijklmnopqrstuvwxyz"[:len(inventory)],
                          "repeated": inventory[:-1] + inventory[:1]}.get(value, value)
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "pred.tb").exists()
        assert run("--quiet", "curve", tmp_path / "bad.json", data_dir / "test_news.tb",
                   data_dir / "test_chat.tb", "--out", tmp_path / "curve.csv") == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("level,key,edit", [
        pytest.param("model", "train_domain_tags",
                     lambda doc: doc.update(train_domain_tags=doc.pop("train_domain_tag")),
                     id="misspelt-top-level"),
        pytest.param("model", "notes", lambda doc: doc.update(notes="x"), id="top-level"),
        pytest.param("step", "w_extra",
                     lambda doc: doc["steps"][1].update(w_extra=doc["steps"][1]["b_structure"]),
                     id="step"),
        pytest.param("parameter b_structure", "dtype",
                     lambda doc: doc["steps"][1]["b_structure"].update(dtype="<f8"),
                     id="parameter-spec"),
    ])
    def test_unknown_key_is_data_error(self, model_doc, data_dir, tmp_path, capsys,
                                       level, key, edit):
        """An unknown key at any level of the model file is refused by name, as a config's
        is; a misspelt domain tag would otherwise load as "" and silently drop the gaps
        from ``curve``'s manifest."""
        edit(model_doc)
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert f"unknown {level} keys: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "pred.tb").exists()

    def test_key_paths_are_those_of_the_file(self, model_doc):
        def walk(obj, path=()):
            if type(obj) is dict:
                for key, value in obj.items():
                    yield path + (key,)
                    yield from walk(value, path + (key,))
            elif path == ("steps",):
                for i, step in enumerate(obj):
                    yield from walk(step, path + (i,))
        assert sorted(walk(model_doc), key=str) == sorted(model_key_paths(), key=str)

    @pytest.mark.parametrize("path", model_key_paths(), ids=shown_key_path)
    def test_missing_key_is_data_error(self, model_doc, data_dir, tmp_path, capsys, path):
        """Every key is required: a config key left out would otherwise load its default
        and parse with other features, and a domain tag left out would load as ""."""
        *parents, key = path
        obj = model_doc
        for parent in parents:
            obj = obj[parent]
        del obj[key]
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert shown_key_path(path) in capsys.readouterr().err
        assert not (tmp_path / "pred.tb").exists()

    def test_invalid_encoder_config_is_data_error(self, model_doc, data_dir, tmp_path,
                                                  capsys):
        model_doc["encoder_config"]["hash_dim"] = 4
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert "hash_dim" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("encoder_config", "max_span_tokens", 2.5),
        ("encoder_config", "hash_dim", 256.0),
        ("encoder_config", "hash_seed", 0.0),
        ("encoder_config", "hash_seed", False),
        ("learner", "hidden_dim", True),
        ("boost_config", "shuffle_each_epoch", 1),
        ("learner", "learning_rate", "0.1"),
    ])
    def test_config_value_of_the_wrong_json_type_is_data_error(
            self, model_doc, data_dir, tmp_path, capsys, section, key, value):
        """A config value must have its field's JSON type, as a synth setting must; a
        float that equals an int would otherwise load and parse differently, and a
        float span limit would fail inside the encoder."""
        config = (model_doc["boost_config"]["learner"] if section == "learner"
                  else model_doc[section])
        assert key in config
        config[key] = value
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert f".{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "pred.tb").exists()

    def test_non_positive_shrink_factor_is_data_error(self, model_doc, data_dir, tmp_path,
                                                     capsys):
        learner = model_doc["boost_config"]["learner"]
        learner["l2_penalty"] = 0.5 / learner["learning_rate"]
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert "2 * learning_rate * l2_penalty must be < 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["hash_dim", "hidden_dim"])
    def test_learner_too_large_to_build_is_data_error(self, model_doc, data_dir, tmp_path,
                                                      capsys, key):
        learner = model_doc["boost_config"]["learner"]
        if key == "hash_dim":
            model_doc["encoder_config"]["hash_dim"] = 10**15
            learner["input_dim"] = EncoderConfig(hash_dim=10**15).width
        else:
            learner["hidden_dim"] = 10**15
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert f"the limit is {wl.MAX_PARAMS:,}" in capsys.readouterr().err

    def test_unknown_config_key_is_data_error(self, model_doc, data_dir, tmp_path, capsys):
        model_doc["encoder_config"]["hash_bits"] = 10
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert "unknown EncoderConfig keys: ['hash_bits']" in capsys.readouterr().err

    def test_float_config_value_takes_an_int(self, model_doc, data_dir, tmp_path):
        model_doc["boost_config"]["learner"]["init_scale"] = 2
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 0

    def test_unsupported_format_version_is_data_error(self, model_doc, data_dir, tmp_path,
                                                      capsys):
        model_doc["format_version"] = 99
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert "format_version" in capsys.readouterr().err

    def test_inventory_label_outside_grammar_is_data_error(self, model_doc, data_dir,
                                                            tmp_path, capsys):
        """Labels that the bracket grammar forbids would reach ``pred.tb``."""
        model_doc["relation_inventory"][:2] = ["ela boration", "x)y"]
        assert self.parse_with(json.dumps(model_doc), data_dir, tmp_path) == 2
        assert "bad relation label 'ela boration'" in capsys.readouterr().err
        assert not (tmp_path / "pred.tb").exists()

    def test_model_without_steps_is_data_error(self, model_doc, data_dir, tmp_path,
                                               capsys):
        model_doc["steps"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(model_doc))
        assert run("--quiet", "curve", bad, data_dir / "test_news.tb",
                   data_dir / "test_chat.tb", "--out", tmp_path / "curve.csv") == 2
        assert "no steps" in capsys.readouterr().err


class TestParse:
    def test_parse_treebank_input(self, model_path, data_dir, tmp_path):
        out = tmp_path / "pred.tb"
        assert run("--quiet", "parse", model_path, data_dir / "test_news.tb",
                   "--out", out, "--prefix", "1") == 0
        pred = load_treebank(out)
        gold = load_treebank(data_dir / "test_news.tb")
        assert len(pred) == len(gold)
        for (pd, _), (gd, _) in zip(pred.entries, gold.entries):
            assert pd.doc_id == gd.doc_id
            assert pd.n_edus == gd.n_edus

    def test_trace_format(self, model_path, data_dir, tmp_path):
        out = tmp_path / "pred.tb"
        assert run("--quiet", "parse", model_path, data_dir / "test_news.tb",
                   "--out", out, "--trace") == 0
        trace = Path(str(out) + ".trace").read_text().strip().split("\n\n")
        gold = load_treebank(data_dir / "test_news.tb")
        assert len(trace) == len(gold)
        pattern = re.compile(r"^(SHIFT|REDUCE (NN|NS|SN) [a-z_-]+)$")
        for block, (doc, _) in zip(trace, gold.entries):
            lines = block.split("\n")
            assert lines[0] == f"#doc {doc.doc_id}"
            assert len(lines) - 1 == 2 * doc.n_edus - 1
            for line in lines[1:]:
                assert pattern.match(line), line

    @pytest.mark.parametrize("text, expected", [
        ("the cat sat\nbecause it was tired\n\nhello world\nsecond edu\nthird one\n",
         [[("the", "cat", "sat"), ("because", "it", "was", "tired")],
          [("hello", "world"), ("second", "edu"), ("third", "one")]]),
        # A whitespace-only separator, \x0c and \x85 as line breaks, an empty U+2028 line
        # that ends a document, and no final newline.
        ("\n \t\nThe cat\x0cbecause\n\n\n hello World \n second\x85third\u2028\u2028fourth",
         [[("the", "cat"), ("because",)], [("hello", "world"), ("second",), ("third",)],
          [("fourth",)]]),
    ], ids=["plain", "edge-cases"])
    def test_raw_edu_input(self, model_path, tmp_path, text, expected):
        raw = tmp_path / "raw.txt"
        raw.write_text(text, encoding="utf-8")
        out = tmp_path / "pred_raw.tb"
        assert run("--quiet", "parse", model_path, raw, "--out", out) == 0
        pred = load_treebank(out)
        assert [doc.doc_id for doc, _ in pred.entries] == [
            f"raw-{k:04d}" for k in range(len(expected))]
        assert [list(doc.edus) for doc, _ in pred.entries] == expected

    def test_relations_keyword_glued_to_a_label_is_data_error(self, model_path, data_dir,
                                                             tmp_path, capsys):
        """The format sniff and the loader share one header rule: ``#relations`` ends at
        whitespace or the end of the line, so ``#relationselaboration`` is neither a
        header nor raw text."""
        text = (data_dir / "test_news.tb").read_text()
        assert text.startswith("#relations ")
        bad = tmp_path / "glued.tb"
        bad.write_text(text.replace("#relations ", "#relationselaboration ", 1))
        out = tmp_path / "pred.tb"
        assert run("--quiet", "parse", model_path, bad, "--out", out) == 2
        assert "#relations header" in capsys.readouterr().err
        assert not out.exists()

    def test_only_states_that_can_reduce_are_encoded(self, model_path, tmp_path, monkeypatch):
        """A state with under two stack items can only shift, so ``parse`` encodes each
        other state of every derivation once, and those states alone."""
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"n_train": 1, "n_test": 30, "edu_range": [1, 6]}))
        assert run("--seed", 7, "--quiet", "synth", "--config", cfg, "--out", tmp_path) == 0
        gold = load_treebank(tmp_path / "test_news.tb")
        assert {doc.n_edus for doc, _ in gold.entries} == set(range(1, 7))
        encoded = []
        encode_state = boosting.encode_state
        monkeypatch.setattr(boosting, "encode_state",
                            lambda *args: encoded.append(args[0]) or encode_state(*args))
        out = tmp_path / "pred.tb"
        assert run("--quiet", "parse", model_path, tmp_path / "test_news.tb", "--out", out) == 0
        want = [state for doc, tree in load_treebank(out).entries for state in accumulate(
            oracle(tree)[:-1], apply, initial=initial_state(doc.n_edus))
            if len(state.stack) >= 2]
        assert encoded == want

    def test_prefix_zero_is_usage_error(self, model_path, data_dir, tmp_path, capsys):
        assert run("--quiet", "parse", model_path, data_dir / "test_news.tb",
                   "--out", tmp_path / "x.tb", "--prefix", "0") == 1
        assert "prefix" in capsys.readouterr().err

    def test_prefix_too_large_is_usage_error(self, model_path, data_dir, tmp_path):
        assert run("--quiet", "parse", model_path, data_dir / "test_news.tb",
                   "--out", tmp_path / "x.tb", "--prefix", "99") == 1


class TestRunRecord:
    """Every command reads each input file once, and its manifest digests those bytes."""

    MANIFEST_KEYS = ["command", "toolkit_version", "seed", "config", "inputs", "outputs",
                     "timings_seconds"]
    TIMINGS = {"synth": ["total", "generate_and_write"],
               "train": ["total", "load", "train", "save"],
               "parse": ["total", "load", "parse"], "eval": ["total"],
               "curve": ["total", "load", "evaluate"],
               "compare": ["total", "load", "train_boosted-weak", "evaluate_boosted-weak",
                           "train_single-strong", "evaluate_single-strong"]}

    @staticmethod
    def command(case, model, data, tmp):
        """The argv of ``case``, its input files in read order, and its manifest."""
        news, chat = data / "test_news.tb", data / "test_chat.tb"
        if case == "synth":
            cfg = tmp / "synth.json"
            cfg.write_text(json.dumps({"n_train": 3, "n_test": 2}))
            return (["synth", "--config", cfg, "--out", tmp / "out"], [cfg],
                    tmp / "out" / "synth.manifest.json")
        if case == "train":
            out = tmp / "m.json"
            return (["train", news, "--out", out, "--steps", "1", *FAST_TRAIN], [news],
                    Path(f"{out}.manifest.json"))
        if case == "parse-raw":
            news = tmp / "raw.txt"
            news.write_text("the cat sat\nbecause it was tired\n\nhello world\n")
        if case == "parse-in-place":
            news = tmp / "x.tb"
            news.write_bytes((data / "test_news.tb").read_bytes())
        if case.startswith("parse"):
            out = news if case == "parse-in-place" else tmp / "pred.tb"
            return (["parse", model, news, "--out", out, "--trace"], [model, news],
                    Path(f"{out}.manifest.json"))
        if case == "eval":
            pred = tmp / "pred.tb"
            pred.write_bytes(news.read_bytes())
            return (["eval", news, pred, "--csv", tmp / "e.csv"], [news, pred],
                    tmp / "e.csv.manifest.json")
        if case == "eval-same":  # a file given twice is read once
            return (["eval", news, news, "--csv", tmp / "e.csv"], [news],
                    tmp / "e.csv.manifest.json")
        if case == "curve":
            return (["curve", model, news, chat, "--out", tmp / "c.csv"], [model, news, chat],
                    tmp / "c.csv.manifest.json")
        if case == "curve-same":
            return (["curve", model, news, news, "--out", tmp / "c.csv"], [model, news],
                    tmp / "c.csv.manifest.json")
        return (["compare", data / "train_news.tb", "--eval", chat, "--steps", "1",
                 "--out", tmp / "cmp.json", *FAST_TRAIN], [data / "train_news.tb", chat],
                tmp / "cmp.json.manifest.json")

    @pytest.mark.parametrize("case", ["synth", "train", "parse-treebank", "parse-raw",
                                      "parse-in-place", "eval", "eval-same", "curve",
                                      "curve-same", "compare"])
    def test_reads_each_input_once_and_digests_its_bytes(self, case, model_path, data_dir,
                                                         tmp_path, monkeypatch):
        argv, inputs, manifest_path = self.command(case, model_path, data_dir, tmp_path)
        before = {str(p): "sha256:" + hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in inputs}
        reads = []
        for name in ("read_text", "read_bytes"):
            def counting(path, *args, _read=getattr(Path, name), **kwargs):
                reads.append(str(path))
                return _read(path, *args, **kwargs)
            monkeypatch.setattr(Path, name, counting)
        assert run("--quiet", *argv) == 0
        monkeypatch.undo()
        assert sorted(reads) == sorted(before)
        manifest = json.loads(manifest_path.read_text())
        assert list(manifest)[:7] == self.MANIFEST_KEYS
        assert list(manifest["timings_seconds"]) == self.TIMINGS[manifest["command"]]
        assert manifest["inputs"] == before
        if case.startswith("parse"):  # the format sniff saw the one read text
            assert load_treebank(argv[4]).domain_tag == ("raw" if case == "parse-raw" else "news")
        if case == "parse-in-place":  # the digest is of the input, not the prediction
            assert "sha256:" + hashlib.sha256(inputs[1].read_bytes()).hexdigest() != before[
                str(inputs[1])]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_cr_newlines_load_as_lf(self, newline, model_path, data_dir, tmp_path):
        """A treebank with CRLF or CR line ends loads to the entries of its LF copy; the
        manifest digests the file's own bytes."""
        lf = data_dir / "test_news.tb"
        cr = tmp_path / "cr.tb"
        cr.write_bytes(lf.read_bytes().replace(b"\n", newline.encode()))
        digest = "sha256:" + hashlib.sha256(cr.read_bytes()).hexdigest()
        assert run("--quiet", "eval", cr, lf, "--csv", tmp_path / "e.csv") == 0
        assert (tmp_path / "e.csv").read_text().splitlines()[1].endswith(",1.0000" * 9)
        for src, out in ((cr, tmp_path / "cr" / "pred.tb"), (lf, tmp_path / "lf" / "pred.tb")):
            assert run("--quiet", "parse", model_path, src, "--out", out, "--trace") == 0
        for name in ("pred.tb", "pred.tb.trace"):
            assert (tmp_path / "cr" / name).read_bytes() == (tmp_path / "lf" / name).read_bytes()
        for manifest in (tmp_path / "e.csv.manifest.json",
                         tmp_path / "cr" / "pred.tb.manifest.json"):
            assert json.loads(manifest.read_text())["inputs"][str(cr)] == digest


class TestEval:
    def test_gold_vs_itself_perfect(self, data_dir, tmp_path, capsys):
        gold = data_dir / "test_news.tb"
        csv = tmp_path / "eval.csv"
        assert run("--quiet", "eval", gold, gold, "--csv", csv) == 0
        out = capsys.readouterr().out
        assert "F1=1.0000" in out
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1].endswith(",1.0000" * 9)

    def test_mismatched_document_counts(self, data_dir, tmp_path, capsys):
        assert run("--quiet", "eval", data_dir / "test_news.tb",
                   data_dir / "train_news.tb") == 2
        assert "data error" in capsys.readouterr().err

    def test_edu_count_mismatch_is_data_error(self, tmp_path, capsys):
        gold, pred = tmp_path / "gold.tb", tmp_path / "pred.tb"
        gold.write_text('#doc d1 news\n(NS cause (leaf "a") (leaf "b"))\n\n'
                        '#doc d2 news\n(NS cause (leaf "c") (leaf "d"))\n')
        pred.write_text('#doc d1 news\n(NS cause (leaf "a") (leaf "b"))\n\n'
                        '#doc d2 news\n(NS cause (leaf "c") '
                        '(NS cause (leaf "d") (leaf "e")))\n')
        assert run("--quiet", "eval", gold, pred, "--csv", tmp_path / "e.csv") == 2
        assert "d2" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    def test_eval_predictions(self, model_path, data_dir, tmp_path, capsys):
        pred = tmp_path / "pred.tb"
        run("--quiet", "parse", model_path, data_dir / "test_news.tb", "--out", pred)
        assert run("--quiet", "eval", data_dir / "test_news.tb", pred) == 0
        assert "span" in capsys.readouterr().out

    @pytest.mark.parametrize("form", ["treebank", "raw", "indented"])
    def test_parse_of_the_gold_file_pairs_with_it(self, model_path, data_dir, tmp_path, form):
        """The parser keeps each EDU's tokens, whether it reads the gold treebank, a copy
        with its first line indented, or its EDUs as raw text, so its output always pairs
        with the gold file."""
        gold = data_dir / "test_news.tb"
        source = gold if form == "treebank" else tmp_path / f"{form}.txt"
        if form == "raw":
            source.write_text("\n".join("".join(" ".join(edu) + "\n" for edu in doc.edus)
                                        for doc, _ in load_treebank(gold).entries))
        if form == "indented":
            source.write_text("  " + gold.read_text())
            gold = source
        pred = tmp_path / "pred.tb"
        assert run("--quiet", "parse", model_path, source, "--out", pred) == 0
        assert run("--quiet", "eval", gold, pred) == 0

    def test_swapped_documents_are_data_error(self, model_path, data_dir, tmp_path, capsys):
        """Two documents of one EDU count, swapped in a parse output, would be scored
        against each other's gold trees."""
        gold, pred = data_dir / "test_news.tb", tmp_path / "pred.tb"
        assert run("--quiet", "parse", model_path, gold, "--out", pred) == 0
        tb = load_treebank(pred)
        entries = list(tb.entries)
        i, j = next((i, j) for j in range(len(entries)) for i in range(j)
                    if entries[i][0].n_edus == entries[j][0].n_edus)
        entries[i], entries[j] = entries[j], entries[i]
        save_treebank(replace(tb, entries=tuple(entries)), pred)
        assert run("--quiet", "eval", gold, pred, "--csv", tmp_path / "e.csv") == 2
        err = capsys.readouterr().err
        assert entries[i][0].doc_id in err and entries[j][0].doc_id in err
        assert not (tmp_path / "e.csv").exists()


    @pytest.mark.parametrize("command", ["train", "eval", "curve"])
    def test_domain_tag_outside_grammar_is_data_error(self, model_path, tmp_path, capsys,
                                                     command):
        """A domain tag with a comma would add a cell to every row of a metric CSV."""
        bad = tmp_path / "bad.tb"
        bad.write_text("".join(f'#doc d{i} ne,ws\n(NS elaboration (leaf "a") (leaf "b"))\n\n'
                               for i in range(3)))
        out = tmp_path / "out"
        argv = {"train": ["train", bad, "--out", out, "--steps", "1", *FAST_TRAIN],
                "eval": ["eval", bad, bad, "--csv", out],
                "curve": ["curve", model_path, bad, "--out", out]}[command]
        assert run("--quiet", *argv) == 2
        assert "domain tag 'ne,ws'" in capsys.readouterr().err
        assert not out.exists()


class TestCurve:
    def test_table_rows_and_determinism(self, model_path, data_dir, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert run("--quiet", "curve", model_path, data_dir / "test_news.tb",
                       data_dir / "test_chat.tb", "--out", out) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2  # 2 steps x 2 domains
        manifest = json.loads(Path(str(out_a) + ".manifest.json").read_text())
        assert "span_f1_gaps" in manifest
        assert "gap_increased_with_steps" in manifest

    def curve_manifest(self, model, data_dir, tmp_path):
        out = tmp_path / "curve.csv"
        assert run("--quiet", "curve", model, data_dir / "test_news.tb",
                   data_dir / "test_chat.tb", "--out", out) == 0
        return json.loads(Path(str(out) + ".manifest.json").read_text())

    def test_one_step_model_reports_no_growth(self, data_dir, tmp_path):
        model = tmp_path / "one.json"
        assert run("--seed", 5, "--quiet", "train", data_dir / "train_news.tb",
                   "--out", model, "--steps", "1", *FAST_TRAIN) == 0
        manifest = self.curve_manifest(model, data_dir, tmp_path)
        assert list(manifest["span_f1_gaps"]) == ["1"]
        assert manifest["gap_increased_with_steps"] is None

    def test_tied_gap_did_not_grow(self, model_path, data_dir, tmp_path):
        """Steps that add zero logits decode as step 1 alone, so every gap is the same."""
        ens = load_model(model_path)
        first = ens.steps[0]
        tied = tmp_path / "tied.json"
        save_model(replace(ens, steps=(first, wl.zeros(first.cfg), wl.zeros(first.cfg))), tied)
        manifest = self.curve_manifest(tied, data_dir, tmp_path)
        assert len(set(manifest["span_f1_gaps"].values())) == 1
        assert len(manifest["span_f1_gaps"]) == 3
        assert manifest["gap_increased_with_steps"] is False

    def test_unknown_relation_is_data_error(self, model_path, tmp_path, capsys):
        alien = tmp_path / "alien.tb"
        alien.write_text(
            '#doc d1 news\n(NS alienrel (leaf "a") (leaf "b"))\n'
        )
        assert run("--quiet", "curve", model_path, alien,
                   "--out", tmp_path / "c.csv") == 2
        assert "alienrel" in capsys.readouterr().err


class TestCompare:
    def test_report_contents(self, data_dir, tmp_path):
        out = tmp_path / "cmp.json"
        assert run("--seed", 2, "--quiet", "compare", data_dir / "train_news.tb",
                   "--steps", "2", "--match-params", "--out", out,
                   *FAST_TRAIN) == 0
        report = json.loads(out.read_text())
        weak, strong = report["contenders"]
        assert weak["n_steps"] == 2 and strong["n_steps"] == 1
        assert report["match_params"]["relative_param_gap"] <= 0.05
        assert report["match_params"]["within_5_percent"] is True
        assert 0.9 < report["param_ratio"] < 1.1
        for contender in (weak, strong):
            scores = next(iter(contender["scores"].values()))
            assert 0.0 <= scores["span"]["f1"] <= 1.0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["no_matching_width_warning"] is False
        # Each contender's train time is in the manifest, and no time is in the report.
        timings = manifest["timings_seconds"]
        assert timings["train_boosted-weak"] > 0 and timings["train_single-strong"] > 0
        assert "seconds" not in out.read_text()

    def test_degenerate_single_step(self, data_dir, tmp_path):
        out = tmp_path / "cmp1.json"
        assert run("--seed", 2, "--quiet", "compare", data_dir / "train_news.tb",
                   "--steps", "1", "--match-params", "--out", out,
                   *FAST_TRAIN) == 0
        report = json.loads(out.read_text())
        weak, strong = report["contenders"]
        assert weak["hidden_dim"] == strong["hidden_dim"] == 16
        assert weak["total_params"] == strong["total_params"]

    def test_matched_hidden_dim_inverts_the_parameter_count(self):
        # README dimensions: the default encoder width and the news inventory
        input_dim = EncoderConfig().width
        settings = cli.SynthSettings()
        n_rel = len(settings.shared_relations) + len(settings.domain_relations_a)
        for h in range(1, 41):
            count = wl.n_params(wl.LearnerConfig(input_dim, n_rel, h))
            assert cli.matched_hidden_dim(count, input_dim, n_rel) == h

    def test_matched_width_too_large_is_refused_before_training(self, data_dir, tmp_path,
                                                                capsys, monkeypatch):
        """The single learner matched to three boosted steps goes through the size check,
        before either contender trains."""
        n_rel = len(load_treebank(data_dir / "train_news.tb").relation_inventory)
        weak = wl.LearnerConfig(EncoderConfig(hash_dim=256).width, n_rel, hidden_dim=16)
        monkeypatch.setattr(wl, "MAX_PARAMS", 2 * wl.n_params(weak))
        monkeypatch.setattr(cli.boosting, "train", None)  # a call would exit 3
        out = tmp_path / "cmp.json"
        assert run("--quiet", "compare", data_dir / "train_news.tb", "--steps", "3",
                   "--match-params", "--out", out, *FAST_TRAIN) == 1
        assert f"the limit is {2 * wl.n_params(weak):,}" in capsys.readouterr().err
        assert not out.exists()

    def test_matched_width_counts_widths_over_the_limit(self, data_dir, tmp_path,
                                                        monkeypatch):
        """Width 1 at the limit still matches one step of width 1, although the width 2
        that the closed form counts is over the limit."""
        n_rel = len(load_treebank(data_dir / "train_news.tb").relation_inventory)
        weak = wl.LearnerConfig(EncoderConfig(hash_dim=256).width, n_rel, hidden_dim=1)
        monkeypatch.setattr(wl, "MAX_PARAMS", wl.n_params(weak))
        out = tmp_path / "cmp.json"
        assert run("--quiet", "compare", data_dir / "train_news.tb", "--steps", "1",
                   "--match-params", "--out", out, *FAST_TRAIN, "--hidden-dim", "1") == 0
        weak_report, strong_report = json.loads(out.read_text())["contenders"]
        assert weak_report["hidden_dim"] == strong_report["hidden_dim"] == 1

    @pytest.mark.parametrize("clash", ["test_chat.tb", "train_news-heldout.tb"])
    def test_evaluation_treebanks_with_one_name_are_refused_before_training(
            self, data_dir, tmp_path, capsys, monkeypatch, clash):
        """Scores are keyed by treebank name, the file stem: a second evaluation file
        named like another, or like the held-out split, would overwrite its scores."""
        other = tmp_path / "other" / clash
        other.parent.mkdir()
        other.write_bytes((data_dir / "test_chat.tb").read_bytes())
        monkeypatch.setattr(cli.boosting, "train", None)  # a call would exit 3
        out = tmp_path / "cmp.json"
        assert run("--quiet", "compare", data_dir / "train_news.tb", "--steps", "1",
                   "--eval", data_dir / "test_chat.tb", other, "--out", out, *FAST_TRAIN) == 1
        err = capsys.readouterr().err
        assert "share a name" in err and f"{other} ({other.stem})" in err
        first = (f"{data_dir / 'test_chat.tb'} (test_chat)" if clash == "test_chat.tb" else
                 f"held-out split of {data_dir / 'train_news.tb'} (train_news-heldout)")
        assert first in err and not out.exists()

    @pytest.mark.parametrize("text,needle", [
        ('#doc d1 news\n(NS zebra (leaf "a") (leaf "b"))\n',
         "'zebra' uses relations unknown to the model: ['zebra']"),
        ("", "'zebra' has no entries"),
    ], ids=["unknown-relation", "empty"])
    def test_evaluation_treebank_that_cannot_be_scored_is_refused_before_training(
            self, data_dir, tmp_path, capsys, monkeypatch, text, needle):
        other = tmp_path / "zebra.tb"
        other.write_text(text)
        monkeypatch.setattr(cli.boosting, "train", None)  # a call would exit 3
        out = tmp_path / "cmp.json"
        assert run("--quiet", "compare", data_dir / "train_news.tb", "--steps", "1",
                   "--eval", data_dir / "test_chat.tb", other, "--out", out, *FAST_TRAIN) == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["nan", "inf", "0", "1", "2", "-1"])
    def test_eval_fraction_outside_open_unit_interval_is_usage_error(
            self, data_dir, tmp_path, capsys, fraction):
        out = tmp_path / "cmp.json"
        assert run("--quiet", "compare", data_dir / "train_news.tb", "--steps", "1",
                   "--eval-fraction", fraction, "--out", out, *FAST_TRAIN) == 1
        assert "held-out fraction" in capsys.readouterr().err
        assert not out.exists()


# Errors that bad input cannot cause: each one is a fault in rstboost itself.
INTERNAL_ERRORS = {errors.RstBoostError, errors.IllegalAction, errors.DimensionMismatch,
                   errors.IllegalGold}


def all_error_classes():
    found, todo = [], [errors.RstBoostError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo += cls.__subclasses__()
    return sorted(found, key=lambda cls: cls.__name__)


# Each numeric flag's hostile values: not numbers, infinite, negative, zero, negative zero,
# a float near the largest, a subnormal, an int too large for any size or count, a
# fraction where an int is read, and a small count above the base's.
GRID_VALUES = ("nan", "inf", "-inf", "-1", "0", "-0", "1e308", "1e-320", str(10**20),
               "0.5", "2")
# A tiny run that ends quickly whatever one flag holds: a learner of 8 buckets and one
# hidden unit, trained one step for one epoch.  Under test, ``--epochs-max`` gets
# ``--lr 0``, so the second epoch's dev CE equals the first's and patience 1 stops it;
# ``--steps`` 10^20 ends at the ensemble size limit.  No flag on its own leaves a run
# unbounded: that takes two, such as ``--epochs-max`` and ``--patience`` both at 10^20.
GRID_BASE = {"--hash-dim": "8", "--hidden-dim": "1", "--steps": "1", "--epochs-max": "1",
             "--patience": "1"}
GRID = [(command, flag, value) for command in ("train", "compare", "parse")
        for flag in numeric_flags(command) for value in GRID_VALUES]


class TestFlagGrid:
    @pytest.fixture(scope="class")
    def tiny(self, tmp_path_factory):
        """A four-document treebank, and a one-step model of ``GRID_BASE`` trained on it."""
        base = tmp_path_factory.mktemp("grid")
        save_treebank(synthesize_treebank(SynthSettings(edu_range=(2, 4)), "a", 4, "tiny", 1),
                      base / "tiny.tb")
        opts = [f"{k}={v}" for k, v in GRID_BASE.items()]
        assert run("--quiet", "train", base / "tiny.tb", "--out", base / "model.json",
                   *opts) == 0
        return base

    @pytest.mark.parametrize("command,flag,value", GRID)
    def test_hostile_value_exits_0_1_or_2(self, tiny, tmp_path, command, flag, value):
        """The exit-code contract over every numeric flag: bad input never exits 3."""
        if command == "parse":
            argv, options = ["parse", tiny / "model.json", tiny / "tiny.tb"], {}
        else:
            argv, options = [command, tiny / "tiny.tb"], dict(GRID_BASE)
            if flag == "--epochs-max":
                options["--lr"] = "0"
        options[flag] = value
        # "--flag=value", so that argparse does not read "-inf" as an option.
        seed = [f"--seed={options.pop('--seed')}"] if "--seed" in options else []
        code = run("--quiet", *seed, *argv, "--out", tmp_path / "out",
                   *[f"{k}={v}" for k, v in options.items()])
        assert code in (0, 1, 2)


class TestExitStatus:
    def test_every_error_class_has_one_status(self):
        for cls in all_error_classes():
            kinds = [issubclass(cls, errors.UsageError), issubclass(cls, errors.DataError),
                     cls in INTERNAL_ERRORS]
            assert kinds.count(True) == 1, cls.__name__

    @pytest.mark.parametrize("cls", all_error_classes(), ids=lambda cls: cls.__name__)
    def test_main_returns_the_class_status(self, monkeypatch, capsys, cls):
        def command(args):
            raise cls("raised on purpose")

        monkeypatch.setattr(cli, "cmd_eval", command)
        expected = (1 if issubclass(cls, errors.UsageError)
                    else 2 if issubclass(cls, errors.DataError) else 3)
        assert main(["eval", "gold.tb", "pred.tb"]) == expected
        assert "raised on purpose" in capsys.readouterr().err


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1
