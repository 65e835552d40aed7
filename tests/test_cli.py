import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defex import cli
from defex.cli import main
from defex.corpus import (
    load_alignment_corpus,
    load_documents,
    load_gold,
    load_ontology,
    load_predictions,
)


SMALL_SYNTH = {
    "n_types": 3,
    "mentions_per_type": 4,
    "instances_per_definition": 6,
    "n_distractor_definitions": 2,
    "neighbors_per_type": 1,
}
SMALL_ENCODER = {"vocab_size": 512, "embedding_dim": 32, "n_layers": 1, "n_heads": 4}


def write_config(tmp_path, **extra):
    payload = {
        "seed": 0,
        "paths": {"output_dir": str(tmp_path / "runs")},
        "synthetic": SMALL_SYNTH,
        "encoder": SMALL_ENCODER,
        "train": {"epochs": 2},
        "warm": {"epochs": 1},
    }
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(payload.get(key), dict):
            payload[key] = {**payload[key], **value}
        else:
            payload[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def only_run_dir(tmp_path, command):
    dirs = sorted((tmp_path / "runs").glob(f"{command}-*"))
    assert dirs, f"no {command} run directory"
    return dirs[-1]


def read_manifest(run_dir):
    return json.loads((run_dir / "manifest.json").read_text())


def synth(tmp_path, config):
    assert main(["--config", str(config), "synth"]) == 0
    return only_run_dir(tmp_path, "synth")


class TestSynth:
    def test_writes_loadable_files(self, tmp_path):
        config = write_config(tmp_path)
        run_dir = synth(tmp_path, config)
        corpus = load_alignment_corpus(run_dir / "alignments.jsonl")
        onto = load_ontology(run_dir / "ontology.jsonl")
        docs = load_documents(run_dir / "docs.jsonl")
        gold = load_gold(run_dir / "gold.jsonl")
        assert len(onto) == 3
        assert len(gold) == 12
        assert len(corpus.instances) > 0
        manifest = read_manifest(run_dir)
        assert manifest["manifest"]["command"] == "synth"

    def test_split_files(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["--config", str(config), "synth", "--split", "0.5"]) == 0
        run_dir = only_run_dir(tmp_path, "synth")
        for name in ("docs_train", "gold_train", "docs_eval", "gold_eval"):
            assert (run_dir / f"{name}.jsonl").exists()


class TestPretrain:
    def test_happy_path_and_rerun_identical(self, tmp_path):
        config = write_config(tmp_path)
        synth_dir = synth(tmp_path, config)
        config = write_config(tmp_path, paths={
            "output_dir": str(tmp_path / "runs"),
            "corpus": str(synth_dir / "alignments.jsonl"),
        })
        fingerprints = []
        for _ in range(2):
            assert main(["--config", str(config), "pretrain"]) == 0
            run_dir = only_run_dir(tmp_path, "pretrain")
            assert (run_dir / "checkpoint.npz").exists()
            assert (run_dir / "train_report.json").exists()
            manifest = read_manifest(run_dir)
            fingerprints.append(manifest["manifest"]["outputs"]["checkpoint_fingerprint"])
        assert fingerprints[0] == fingerprints[1]

    def test_train_report_records_active_shares(self, tmp_path):
        config = write_config(tmp_path)
        synth_dir = synth(tmp_path, config)
        config = write_config(tmp_path, paths={
            "output_dir": str(tmp_path / "runs"),
            "corpus": str(synth_dir / "alignments.jsonl"),
        })
        assert main(["--config", str(config), "--set", "train.epochs=2", "pretrain"]) == 0
        run_dir = only_run_dir(tmp_path, "pretrain")
        shares = json.loads((run_dir / "train_report.json").read_text())["epoch_active_shares"]
        assert len(shares) == 2 and all(0.0 <= share <= 1.0 for share in shares)
        # a run's dynamics, like its timings, stay out of the hashed outputs
        outputs = read_manifest(run_dir)["manifest"]["outputs"]
        assert sorted(outputs) == ["checkpoint_fingerprint", "loss_curve"]

    def test_missing_corpus(self, tmp_path, capsys):
        config = write_config(tmp_path, paths={
            "output_dir": str(tmp_path / "runs"),
            "corpus": str(tmp_path / "missing.jsonl"),
        })
        assert main(["--config", str(config), "pretrain"]) == 2
        assert "input-not-found" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"trian": {}}))
        assert main(["--config", str(path), "pretrain"]) == 1
        assert "validation" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """synth -> pretrain -> warm once; downstream tests reuse the artifacts."""
    tmp_path = tmp_path_factory.mktemp("cli-pipeline")
    config = write_config(tmp_path)
    synth_dir = synth(tmp_path, config)
    config = write_config(tmp_path, paths={
        "output_dir": str(tmp_path / "runs"),
        "corpus": str(synth_dir / "alignments.jsonl"),
        "ontology": str(synth_dir / "ontology.jsonl"),
        "docs": str(synth_dir / "docs.jsonl"),
        "gold": str(synth_dir / "gold.jsonl"),
    })
    assert main(["--config", str(config), "pretrain"]) == 0
    pretrain_dir = only_run_dir(tmp_path, "pretrain")
    config = write_config(tmp_path, paths={
        "output_dir": str(tmp_path / "runs"),
        "corpus": str(synth_dir / "alignments.jsonl"),
        "ontology": str(synth_dir / "ontology.jsonl"),
        "docs": str(synth_dir / "docs.jsonl"),
        "gold": str(synth_dir / "gold.jsonl"),
        "checkpoint": str(pretrain_dir / "checkpoint.npz"),
    })
    assert main(["--config", str(config), "warm"]) == 0
    warm_dir = only_run_dir(tmp_path, "warm")
    return tmp_path, config, synth_dir, pretrain_dir, warm_dir


class TestWarmCommand:
    def test_outputs(self, pipeline_dirs):
        tmp_path, config, synth_dir, pretrain_dir, warm_dir = pipeline_dirs
        assert (warm_dir / "checkpoint.npz").exists()
        manifest = json.loads((warm_dir / "warming_manifest.json").read_text())
        assert manifest["mode"] == "retrieved"
        onto = load_ontology(synth_dir / "ontology.jsonl")
        assert set(manifest["per_type"]) == set(onto.names)

    def test_manifest_matches_library_retrieval(self, pipeline_dirs):
        from defex.encoder import DualEncoderModel
        from defex.warming import RetrievalConfig, build_warming_subset

        tmp_path, config, synth_dir, pretrain_dir, warm_dir = pipeline_dirs
        model = DualEncoderModel.load(pretrain_dir / "checkpoint.npz")
        corpus = load_alignment_corpus(synth_dir / "alignments.jsonl")
        onto = load_ontology(synth_dir / "ontology.jsonl")
        plan = build_warming_subset(model, onto, corpus, RetrievalConfig())
        manifest = json.loads((warm_dir / "warming_manifest.json").read_text())
        assert sorted(plan.retrieved_ids) == manifest["retrieved_definition_ids"]

    def test_missing_checkpoint(self, tmp_path, capsys):
        config = write_config(tmp_path, paths={
            "output_dir": str(tmp_path / "runs"),
            "corpus": str(tmp_path / "whatever.jsonl"),
            "ontology": str(tmp_path / "whatever2.jsonl"),
            "checkpoint": str(tmp_path / "missing.npz"),
        })
        assert main(["--config", str(config), "warm"]) == 2

    def test_gold_flag(self, pipeline_dirs):
        tmp_path, config, synth_dir, pretrain_dir, warm_dir = pipeline_dirs
        assert main(["--config", str(config), "warm", "--gold"]) == 0
        gold_warm_dir = only_run_dir(tmp_path, "warm")
        manifest = json.loads((gold_warm_dir / "warming_manifest.json").read_text())
        assert manifest["mode"] == "gold"


class TestInferEvalBench:
    def test_infer_then_eval(self, pipeline_dirs):
        tmp_path, config, synth_dir, pretrain_dir, warm_dir = pipeline_dirs
        assert main(["--config", str(config), "infer"]) == 0
        infer_dir = only_run_dir(tmp_path, "infer")
        preds_path = infer_dir / "preds.jsonl"
        assert preds_path.exists()
        counter = json.loads((infer_dir / "counter_report.json").read_text())
        docs = load_documents(synth_dir / "docs.jsonl")
        onto = load_ontology(synth_dir / "ontology.jsonl")
        n = sum(len(d.candidates) for d in docs)
        assert counter["n_candidates"] == n
        assert counter["definition_encoder_calls"] == len(onto)
        assert counter["joint_pair_count"] == n * len(onto)
        assert sorted(p.name for p in infer_dir.iterdir()) == [
            "counter_report.json", "manifest.json", "preds.jsonl"]
        assert main(["--config", str(config), "--set", f"paths.predictions={preds_path}",
                     "eval"]) == 0
        eval_dir = only_run_dir(tmp_path, "eval")
        report = json.loads((eval_dir / "eval_report.json").read_text())
        assert set(report) == {"identification", "identification+classification"}

    def test_eval_perfect_predictions(self, tmp_path):
        config = write_config(tmp_path)
        synth_dir = synth(tmp_path, config)
        gold = load_gold(synth_dir / "gold.jsonl")
        from defex.corpus import PredictionRecord, PredictionSet, save_predictions

        preds = PredictionSet(tuple(
            PredictionRecord(r.doc_id, r.sentence_idx, r.start, r.end, r.type_name, 0.9)
            for r in gold.records
        ))
        preds_path = tmp_path / "perfect.jsonl"
        save_predictions(preds, preds_path)
        config = write_config(tmp_path, paths={
            "output_dir": str(tmp_path / "runs"),
            "gold": str(synth_dir / "gold.jsonl"),
            "ontology": str(synth_dir / "ontology.jsonl"),
        })
        assert main(["--config", str(config), "--set", f"paths.predictions={preds_path}",
                     "eval"]) == 0
        report = json.loads((only_run_dir(tmp_path, "eval") / "eval_report.json").read_text())
        assert report["identification"]["f1"] == 1.0
        assert report["identification+classification"]["f1"] == 1.0

    def test_eval_mismatched_ontology(self, tmp_path, capsys):
        config = write_config(tmp_path)
        synth_dir = synth(tmp_path, config)
        from defex.corpus import PredictionRecord, PredictionSet, save_predictions

        preds = PredictionSet((PredictionRecord("doc0000", 0, 0, 0, "ghost_type", 0.9),))
        preds_path = tmp_path / "bad.jsonl"
        save_predictions(preds, preds_path)
        config = write_config(tmp_path, paths={
            "output_dir": str(tmp_path / "runs"),
            "gold": str(synth_dir / "gold.jsonl"),
            "ontology": str(synth_dir / "ontology.jsonl"),
        })
        assert main(["--config", str(config), "--set", f"paths.predictions={preds_path}",
                     "eval"]) == 1

    def test_eval_duplicate_span_key(self, tmp_path, capsys):
        config = write_config(tmp_path)
        synth_dir = synth(tmp_path, config)
        record = json.loads((synth_dir / "gold.jsonl").read_text().splitlines()[0])
        preds_path = tmp_path / "dup.jsonl"
        preds_path.write_text("".join(json.dumps({**record, "score": score}) + "\n"
                                      for score in (0.9, 0.8)))
        config = write_config(tmp_path, paths={
            "output_dir": str(tmp_path / "runs"),
            "gold": str(synth_dir / "gold.jsonl"),
            "ontology": str(synth_dir / "ontology.jsonl"),
        })
        assert main(["--config", str(config), "--set", f"paths.predictions={preds_path}",
                     "eval"]) == 1
        assert f"{preds_path}:2: duplicate span key" in capsys.readouterr().err

    def test_bench(self, pipeline_dirs):
        tmp_path, config, synth_dir, pretrain_dir, warm_dir = pipeline_dirs
        assert main(["--config", str(config), "bench", "--repetitions", "3"]) == 0
        bench_dir = only_run_dir(tmp_path, "bench")
        report = json.loads((bench_dir / "bench_report.json").read_text())
        assert report["joint_calls"] == report["n_candidates"] * report["n_types"]


class TestConfigHandling:
    def test_set_override_wins(self, tmp_path):
        config = write_config(tmp_path)
        synth_dir = synth(tmp_path, config)
        config = write_config(tmp_path, paths={
            "output_dir": str(tmp_path / "runs"),
            "corpus": str(synth_dir / "alignments.jsonl"),
        })
        assert main(["--config", str(config), "--set", "train.epochs=1", "pretrain"]) == 0
        run_dir = only_run_dir(tmp_path, "pretrain")
        manifest = read_manifest(run_dir)
        assert manifest["manifest"]["config"]["train"]["epochs"] == 1
        report = json.loads((run_dir / "train_report.json").read_text())
        assert len(report["epoch_losses"]) == 1

    def test_bad_set_path(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["--config", str(config), "--set", "nope.key=1", "synth"]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "none.json"), "synth"]) == 2

    def test_invalid_utf8_config_exits_1(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": "\xff"}')
        assert main(["--config", str(config), "synth"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [validation]: ") and "UTF-8" in err
        assert "Traceback" not in err


CONFIG_KEYS = sorted(
    ["seed", "subsample_per_definition"]
    + [f"paths.{key}" for key in cli._DEFAULT_PATHS]
    + [f"{name}.{f.name}" for name, cls in cli._SECTION_TYPES.items()
       for f in dataclasses.fields(cls)]
)
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())


def resolved_only(config, args):
    """Stands in for a command, so only config resolution runs."""
    return 0


class TestConfigValueTypes:
    @pytest.mark.parametrize("setting", [
        "train.epochs=abc",
        'synthetic.n_types="a"',
        'seed="x"',
        "train.epochs=1.5",
        "train.epochs=true",
        'train.learning_rate="x"',
        "inference.threshold=NaN",
        "encoder.ffn_head_hidden=2.0",
        "paths.output_dir=null",
        "train=5",
    ])
    def test_wrong_type_exits_1(self, monkeypatch, capsys, setting):
        monkeypatch.setitem(cli._COMMANDS, "synth", resolved_only)
        assert main(["--set", setting, "synth"]) == 1
        assert capsys.readouterr().err.startswith("error [validation]: ")

    def test_wrong_type_in_config_file_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "synth", resolved_only)
        config = write_config(tmp_path, train={"epochs": True})
        assert main(["--config", str(config), "synth"]) == 1

    @pytest.mark.parametrize("setting, section, key, value", [
        ("inference.threshold=0", "inference", "threshold", 0),
        ("encoder.ffn_head_hidden=null", "encoder", "ffn_head_hidden", None),
        ("encoder.ffn_head_hidden=16", "encoder", "ffn_head_hidden", 16),
        ("synthetic.distractors_in_gold_sentences=true", "synthetic",
         "distractors_in_gold_sentences", True),
        ("encoder.tokenizer=identity", "encoder", "tokenizer", "identity"),
    ])
    def test_annotated_type_accepted(self, setting, section, key, value):
        config = cli.resolve_config({}, [setting])
        assert getattr(getattr(config, section), key) == value

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(CONFIG_KEYS), value=JSON_SCALARS)
    def test_any_scalar_in_any_key_exits_0_or_1(self, key, value):
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(cli._COMMANDS, "synth", resolved_only)
            assert main(["--set", f"{key}={json.dumps(value)}", "synth"]) in (0, 1)


class TestRemovedSettings:
    @pytest.mark.parametrize("setting", [
        "train.strong_negative_ratio=0.5",
        "retrieval.similarity=cosine",
        "retrieval.static_embedder=definition",
    ])
    def test_removed_key_exits_1(self, monkeypatch, capsys, setting):
        monkeypatch.setitem(cli._COMMANDS, "synth", resolved_only)
        assert main(["--set", setting, "synth"]) == 1
        assert capsys.readouterr().err.startswith("error [validation]: ")

    def test_removed_eval_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--predictions", "preds.jsonl"])
        assert exc.value.code == 2


class TestConfigValueRanges:
    @pytest.mark.parametrize("setting", [
        "encoder.init_std=-1",
        "encoder.init_std=0",
        "encoder.ffn_head_hidden=-3",
        "encoder.ffn_head_hidden=0",
        "encoder.block_ffn_hidden=-1",
        "encoder.block_ffn_hidden=0",
        "encoder.position_scale=-5",
        "encoder.residual_init_scale=-1",
        "train.learning_rate=-1",
        "train.learning_rate=0",
        "warm.learning_rate=0",
        "warm.strong_negative_ratio=1.5",
    ])
    def test_out_of_range_exits_1(self, monkeypatch, capsys, setting):
        monkeypatch.setitem(cli._COMMANDS, "synth", resolved_only)
        assert main(["--set", setting, "synth"]) == 1
        assert capsys.readouterr().err.startswith("error [argument]: ")

    @pytest.mark.parametrize("setting, section, key, value", [
        ("encoder.position_scale=0", "encoder", "position_scale", 0),
        ("encoder.residual_init_scale=0", "encoder", "residual_init_scale", 0),
        ("encoder.residual_init_scale=null", "encoder", "residual_init_scale", None),
        ("encoder.block_ffn_hidden=1", "encoder", "block_ffn_hidden", 1),
        ("train.learning_rate=1e-6", "train", "learning_rate", 1e-6),
    ])
    def test_range_edges_accepted(self, setting, section, key, value):
        config = cli.resolve_config({}, [setting])
        assert getattr(getattr(config, section), key) == value


def _drop_parameter(data):
    data.pop("param/ctx.b0.attn.wq")


def _poison_parameter(data):
    data["param/ctx.emb"][0, 0] = float("nan")


def _garble_meta(data):
    data["meta"] = np.array("{config")


class TestMalformedCheckpoint:
    """``infer`` on a malformed checkpoint exits with the documented code
    and a one-line diagnostic, never a traceback."""

    @pytest.mark.parametrize("change, code, category", [
        (_drop_parameter, 1, "validation"),
        (_poison_parameter, 3, "numerical"),
        (_garble_meta, 1, "parse"),
        ("not an archive", 1, "parse"),
        ("index", 1, "validation"),
    ])
    def test_infer_exit_code(self, pipeline_dirs, tmp_path, capsys, rewrite_archive, change,
                              code, category):
        _, _, synth_dir, pretrain_dir, _ = pipeline_dirs
        checkpoint = tmp_path / "checkpoint.npz"
        if change == "not an archive":
            checkpoint.write_text("weights\n")
        elif change == "index":
            # a foreign archive in the checkpoint format: JSON meta, no config
            meta = {"format_version": 1, "fingerprint": "0" * 64, "types": []}
            np.savez(checkpoint, meta=np.array(json.dumps(meta)), vectors=np.ones((2, 4)))
        else:
            rewrite_archive(pretrain_dir / "checkpoint.npz", change, checkpoint)
        config = write_config(tmp_path, paths={
            "output_dir": str(tmp_path / "runs"),
            "ontology": str(synth_dir / "ontology.jsonl"),
            "docs": str(synth_dir / "docs.jsonl"),
            "checkpoint": str(checkpoint),
        })
        capsys.readouterr()
        assert main(["--config", str(config), "infer"]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error [{category}]: ")
        assert "Traceback" not in err


class TestMalformedDocuments:
    """``infer`` on a docs.jsonl with a non-string doc_id exits 1 with a
    one-line diagnostic, never a traceback or predictions ``eval`` rejects."""

    @pytest.mark.parametrize("doc_id", [[1], {"a": 1}, 7])
    def test_infer_exit_code(self, pipeline_dirs, tmp_path, capsys, doc_id):
        _, _, synth_dir, pretrain_dir, _ = pipeline_dirs
        docs = tmp_path / "docs.jsonl"
        docs.write_text(json.dumps(
            {"doc_id": doc_id, "sentences": [["a", "b"]], "candidates": [[0, 0, 0]]}) + "\n")
        config = write_config(tmp_path, paths={
            "output_dir": str(tmp_path / "runs"),
            "ontology": str(synth_dir / "ontology.jsonl"),
            "docs": str(docs),
            "checkpoint": str(pretrain_dir / "checkpoint.npz"),
        })
        capsys.readouterr()
        assert main(["--config", str(config), "infer"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [parse]: ")
        assert "Traceback" not in err

    def test_invalid_utf8_exits_1(self, pipeline_dirs, tmp_path, capsys):
        _, _, synth_dir, pretrain_dir, _ = pipeline_dirs
        docs = tmp_path / "docs.jsonl"
        docs.write_bytes(b'{"doc_id": "d\xff", "sentences": [["a"]], "candidates": []}\n')
        config = write_config(tmp_path, paths={
            "output_dir": str(tmp_path / "runs"),
            "ontology": str(synth_dir / "ontology.jsonl"),
            "docs": str(docs),
            "checkpoint": str(pretrain_dir / "checkpoint.npz"),
        })
        capsys.readouterr()
        assert main(["--config", str(config), "infer"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [parse]: ") and "docs.jsonl:1: invalid UTF-8" in err
