"""Command line pipeline: ``synth``, ``pretrain``, ``warm``, ``infer``,
``eval``, ``bench``.

One declarative JSON config file drives every phase; ``--set a.b=value``
flags override individual keys (flags win).  Every run writes into a fresh
timestamped subdirectory of the configured output dir and leaves a manifest
recording the resolved config, the seed, input hashes, and content hashes
of the deterministic outputs, so identical manifests imply identical
results.

Exit codes: 0 success, 1 validation/argument/configuration failures,
2 missing inputs or I/O failures, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
import typing
from pathlib import Path

from . import __version__
from .corpus import (
    SyntheticSpec,
    check_json_fields,
    generate_synthetic_corpus,
    json_type_check,
    load_alignment_corpus,
    load_documents,
    load_gold,
    load_ontology,
    load_predictions,
    save_alignment_corpus,
    save_documents,
    save_gold,
    save_ontology,
    save_predictions,
    split_documents,
    subsample_per_definition,
)
from .encoder import DualEncoderModel, EncoderConfig
from .errors import DefexError, InputNotFoundError, ValidationError, exit_code_for
from .evaluation import (
    CLASSIFICATION,
    IDENTIFICATION,
    micro_prf,
    speed_benchmark,
)
from .inference import (
    CallCounter,
    InferenceConfig,
    build_definition_index,
    counter_report,
    extract,
)
from .training import TrainConfig, WarmConfig, pretrain
from .warming import RetrievalConfig, build_warming_subset, warm, warm_with_gold

_DEFAULT_PATHS = {
    "corpus": None,
    "ontology": None,
    "docs": None,
    "gold": None,
    "checkpoint": None,
    "predictions": None,
    "output_dir": "runs",
}

_SECTION_TYPES = {
    "encoder": EncoderConfig,
    "train": TrainConfig,
    "warm": WarmConfig,
    "retrieval": RetrievalConfig,
    "inference": InferenceConfig,
    "synthetic": SyntheticSpec,
}


@dataclasses.dataclass
class RunConfig:
    seed: int
    paths: dict
    encoder: EncoderConfig
    train: TrainConfig
    warm: WarmConfig
    retrieval: RetrievalConfig
    inference: InferenceConfig
    synthetic: SyntheticSpec
    subsample_per_definition: int | None
    raw: dict  # resolved plain-dict snapshot for the manifest


def _check_value(key: str, value, annotation) -> None:
    """Raise :class:`ValidationError` unless ``value`` has the annotated type."""
    check, kind = json_type_check(annotation)
    if not check(value):
        raise ValidationError(f"config key {key!r} must be {kind}, got {value!r}")


def _build_section(name: str, cls, payload, seed: int):
    check_json_fields(cls, payload, f"config section {name!r}")
    if "seed" in typing.get_type_hints(cls):
        payload = dict(payload)
        payload.setdefault("seed", seed)
    return cls(**payload)


def resolve_config(file_payload: dict, overrides: list[str]) -> RunConfig:
    merged: dict = {
        "seed": 0,
        "paths": dict(_DEFAULT_PATHS),
        "subsample_per_definition": None,
        **{name: {} for name in _SECTION_TYPES},
    }
    for key, value in file_payload.items():
        if key not in merged:
            raise ValidationError(f"unknown top-level config key {key!r}")
        if key == "paths" and isinstance(value, dict):
            merged["paths"].update(value)
        elif key in _SECTION_TYPES and isinstance(value, dict):
            merged[key] = dict(value)
        else:
            merged[key] = value  # checked below, with the overrides
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"--set expects dotted.key=value, got {item!r}")
        dotted, _, raw_value = item.partition("=")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        parts = dotted.split(".")
        target = merged
        for part in parts[:-1]:
            if part not in target or not isinstance(target[part], dict):
                raise ValidationError(f"--set path {dotted!r} does not name a config key")
            target = target[part]
        if parts[-1] not in target and parts[0] not in ("paths", *_SECTION_TYPES):
            raise ValidationError(f"--set path {dotted!r} does not name a config key")
        target[parts[-1]] = value
    types = typing.get_type_hints(RunConfig)
    for key in ("seed", "subsample_per_definition"):
        _check_value(key, merged[key], types[key])
    paths = merged["paths"]
    if not isinstance(paths, dict):
        raise ValidationError("config key 'paths' must be an object")
    unknown = set(paths) - set(_DEFAULT_PATHS)
    if unknown:
        raise ValidationError(f"unknown path key(s): {sorted(unknown)}")
    for key, value in paths.items():
        _check_value(f"paths.{key}", value, str if key == "output_dir" else str | None)
    seed = merged["seed"]
    sections = {
        name: _build_section(name, cls, merged[name], seed)
        for name, cls in _SECTION_TYPES.items()
    }
    return RunConfig(
        seed=seed,
        paths=paths,
        subsample_per_definition=merged["subsample_per_definition"],
        raw=merged,
        **sections,
    )


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    payload: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise InputNotFoundError(f"config file not found: {p}")
        try:
            payload = json.loads(p.read_bytes().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config file {p} is not valid UTF-8: {exc.reason}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {p} is not valid JSON: {exc.msg}") from exc
        if not isinstance(payload, dict):
            raise ValidationError("config file must contain a JSON object")
    return resolve_config(payload, overrides)


# ---------------------------------------------------------------------------
# run directories and manifests
# ---------------------------------------------------------------------------


def _make_run_dir(output_dir: str, command: str) -> Path:
    base = Path(output_dir)
    base.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    n = 0
    while True:
        candidate = base / (f"{command}-{stamp}" + (f"-{n}" if n else ""))
        try:
            candidate.mkdir()
            return candidate
        except FileExistsError:
            n += 1


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _sha256_json(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _require_path(config: RunConfig, key: str) -> Path:
    value = config.paths.get(key)
    if not value:
        raise ValidationError(f"config paths.{key} is required for this command")
    path = Path(value)
    if not path.exists():
        raise InputNotFoundError(f"paths.{key} does not exist: {path}")
    return path


def write_manifest(run_dir: Path, command: str, config: RunConfig,
                   inputs: dict[str, Path], outputs: dict[str, str]) -> dict:
    """Record what produced this run: resolved config, seed, versions, input
    hashes, and content hashes of the deterministic outputs."""
    body = {
        "command": command,
        "package_version": __version__,
        "seed": config.seed,
        "config": config.raw,
        "inputs": {name: _sha256_file(path) for name, path in sorted(inputs.items())},
        "outputs": dict(sorted(outputs.items())),
    }
    manifest = {"manifest": body, "manifest_sha256": _sha256_json(body)}
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _save_trained(run_dir: Path, model: DualEncoderModel, report) -> Path:
    """Write the trained model's ``checkpoint.npz`` and ``train_report.json``
    into ``run_dir``; returns the checkpoint path."""
    checkpoint = run_dir / "checkpoint.npz"
    model.save(checkpoint)
    _write_json(run_dir / "train_report.json", {
        "epoch_losses": list(report.epoch_losses),
        "epoch_seconds": list(report.epoch_seconds),
        "epoch_active_shares": list(report.epoch_active_shares),
        "checkpoint": str(checkpoint),
    })
    return checkpoint


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(config: RunConfig, args) -> int:
    run_dir = _make_run_dir(config.paths["output_dir"], "synth")
    corpus, ontology, documents, gold = generate_synthetic_corpus(config.synthetic, config.seed)
    save_alignment_corpus(corpus, run_dir / "alignments.jsonl")
    save_ontology(ontology, run_dir / "ontology.jsonl")
    save_documents(documents, run_dir / "docs.jsonl")
    save_gold(gold, run_dir / "gold.jsonl")
    outputs = {
        name: _sha256_file(run_dir / f"{name}.jsonl")
        for name in ("alignments", "ontology", "docs", "gold")
    }
    if args.split is not None:
        train_docs, train_gold, eval_docs, eval_gold = split_documents(
            documents, gold, args.split, config.seed
        )
        save_documents(train_docs, run_dir / "docs_train.jsonl")
        save_gold(train_gold, run_dir / "gold_train.jsonl")
        save_documents(eval_docs, run_dir / "docs_eval.jsonl")
        save_gold(eval_gold, run_dir / "gold_eval.jsonl")
        for name in ("docs_train", "gold_train", "docs_eval", "gold_eval"):
            outputs[name] = _sha256_file(run_dir / f"{name}.jsonl")
    write_manifest(run_dir, "synth", config, {}, outputs)
    print(f"synthetic dataset written to {run_dir}")
    return 0


def cmd_pretrain(config: RunConfig, args) -> int:
    corpus_path = _require_path(config, "corpus")
    corpus = load_alignment_corpus(corpus_path)
    if config.subsample_per_definition is not None:
        corpus = subsample_per_definition(corpus, config.subsample_per_definition, config.seed)
    run_dir = _make_run_dir(config.paths["output_dir"], "pretrain")
    model = DualEncoderModel.initialize(config.encoder, corpus, config.train.seed)
    model, report = pretrain(model, corpus, config.train)
    checkpoint = _save_trained(run_dir, model, report)
    write_manifest(run_dir, "pretrain", config, {"corpus": corpus_path}, {
        "checkpoint_fingerprint": model.fingerprint(),
        "loss_curve": _sha256_json(list(report.epoch_losses)),
    })
    print(f"checkpoint written to {checkpoint}")
    print(f"final epoch mean loss: {report.epoch_losses[-1]:.6f}")
    return 0


def cmd_warm(config: RunConfig, args) -> int:
    checkpoint_path = _require_path(config, "checkpoint")
    ontology_path = _require_path(config, "ontology")
    model = DualEncoderModel.load(checkpoint_path)
    ontology = load_ontology(ontology_path)
    run_dir = _make_run_dir(config.paths["output_dir"], "warm")
    inputs = {"checkpoint": checkpoint_path, "ontology": ontology_path}
    if args.gold:
        gold_path = _require_path(config, "gold")
        docs_path = _require_path(config, "docs")
        inputs.update({"gold": gold_path, "docs": docs_path})
        gold = load_gold(gold_path)
        documents = load_documents(docs_path)
        corpus_definitions = None
        if config.paths.get("corpus"):
            corpus_definitions = load_alignment_corpus(_require_path(config, "corpus")).definitions
            inputs["corpus"] = Path(config.paths["corpus"])
        model, report = warm_with_gold(
            model, gold, documents, ontology, config.warm, corpus_definitions
        )
        manifest_payload = {
            "mode": "gold",
            "instance_count": len(gold.records),
        }
    else:
        corpus_path = _require_path(config, "corpus")
        inputs["corpus"] = corpus_path
        corpus = load_alignment_corpus(corpus_path)
        if config.subsample_per_definition is not None:
            corpus = subsample_per_definition(corpus, config.subsample_per_definition, config.seed)
        plan = build_warming_subset(model, ontology, corpus, config.retrieval)
        model, report = warm(model, plan.corpus, plan.full_definitions, config.warm)
        manifest_payload = {"mode": "retrieved", **plan.manifest()}
    checkpoint = _save_trained(run_dir, model, report)
    _write_json(run_dir / "warming_manifest.json", manifest_payload)
    write_manifest(run_dir, "warm", config, inputs, {
        "checkpoint_fingerprint": model.fingerprint(),
        "warming_manifest": _sha256_json(manifest_payload),
        "loss_curve": _sha256_json(list(report.epoch_losses)),
    })
    print(f"warmed checkpoint written to {checkpoint}")
    return 0


def cmd_infer(config: RunConfig, args) -> int:
    checkpoint_path = _require_path(config, "checkpoint")
    ontology_path = _require_path(config, "ontology")
    docs_path = _require_path(config, "docs")
    model = DualEncoderModel.load(checkpoint_path)
    ontology = load_ontology(ontology_path)
    documents = load_documents(docs_path)
    run_dir = _make_run_dir(config.paths["output_dir"], "infer")
    counter = CallCounter()
    index = build_definition_index(model, ontology, counter=counter)
    preds, counter = extract(model, index, documents, config.inference, counter=counter)
    preds_path = run_dir / "preds.jsonl"
    save_predictions(preds, preds_path)
    n_candidates = sum(len(d.candidates) for d in documents)
    report = counter_report(counter, n_candidates, len(ontology))
    _write_json(run_dir / "counter_report.json", report)
    write_manifest(
        run_dir, "infer", config,
        {"checkpoint": checkpoint_path, "ontology": ontology_path, "docs": docs_path},
        {"predictions": _sha256_file(preds_path), "counter_report": _sha256_json(report)},
    )
    print(f"{len(preds.records)} predictions written to {preds_path}")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_eval(config: RunConfig, args) -> int:
    preds_path = _require_path(config, "predictions")
    gold_path = _require_path(config, "gold")
    ontology_path = _require_path(config, "ontology")
    preds = load_predictions(preds_path)
    gold = load_gold(gold_path)
    ontology = load_ontology(ontology_path)
    run_dir = _make_run_dir(config.paths["output_dir"], "eval")
    reports = {
        mode: micro_prf(preds, gold, mode, ontology)
        for mode in (IDENTIFICATION, CLASSIFICATION)
    }
    payload = {mode: report.as_dict() for mode, report in reports.items()}
    _write_json(run_dir / "eval_report.json", payload)
    write_manifest(
        run_dir, "eval", config,
        {"predictions": preds_path, "gold": gold_path, "ontology": ontology_path},
        {"eval_report": _sha256_json(payload)},
    )
    header = f"{'mode':<32} {'P':>8} {'R':>8} {'F1':>8} {'tp':>6} {'fp':>6} {'fn':>6}"
    print(header)
    for mode, report in reports.items():
        print(
            f"{mode:<32} {report.precision:>8.4f} {report.recall:>8.4f} "
            f"{report.f1:>8.4f} {report.tp:>6} {report.fp:>6} {report.fn:>6}"
        )
    return 0


def cmd_bench(config: RunConfig, args) -> int:
    checkpoint_path = _require_path(config, "checkpoint")
    ontology_path = _require_path(config, "ontology")
    docs_path = _require_path(config, "docs")
    model = DualEncoderModel.load(checkpoint_path)
    ontology = load_ontology(ontology_path)
    documents = load_documents(docs_path)
    run_dir = _make_run_dir(config.paths["output_dir"], "bench")
    report = speed_benchmark(model, ontology, documents, repetitions=args.repetitions)
    _write_json(run_dir / "bench_report.json", report.as_dict())
    write_manifest(
        run_dir, "bench", config,
        {"checkpoint": checkpoint_path, "ontology": ontology_path, "docs": docs_path},
        {},
    )
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defex",
        description="Definition-matched event mention extraction pipeline.",
    )
    parser.add_argument("--config", default=None, help="JSON run configuration file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE", dest="overrides",
        help="override a config key, e.g. --set train.epochs=3 (repeatable; flags win)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--split", type=float, default=None,
                       help="also write train/eval document splits at this eval fraction")
    sub.add_parser("pretrain", help="contrastive pretraining on the alignment corpus")
    warm_p = sub.add_parser("warm", help="query-specific fine-tuning")
    warm_p.add_argument("--gold", action="store_true",
                        help="fine-tune on annotated mentions instead of retrieved instances")
    sub.add_parser("infer", help="build the definition index and extract mentions")
    sub.add_parser("eval", help="score predictions against gold")
    bench_p = sub.add_parser("bench", help="disjoint vs joint inference timing")
    bench_p.add_argument("--repetitions", type=int, default=3)
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "pretrain": cmd_pretrain,
    "warm": cmd_warm,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        return _COMMANDS[args.command](config, args)
    except DefexError as exc:
        print(f"error [{exc.category}]: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
