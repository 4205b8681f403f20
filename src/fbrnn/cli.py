"""Command-line surface for the whole pipeline.

Subcommands: synth, build-lexicon, candidates, train, evaluate, predict,
gradcheck, ablate. Configuration is a flat `key = value` file overridable
by flags; unknown keys are rejected. Exit codes: 0 success, 1 usage or
configuration error, 2 data validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
import typing
from pathlib import Path

import numpy as np

from .candidates import (
    build_datasets,
    build_examples,
    build_trigger_lexicon,
    check_max_nugget_len,
    corpus_candidates,
    load_lexicon,
    save_lexicon,
)
from .corpus import (
    Corpus,
    LabelSet,
    load_corpus,
    load_label_set,
    make_positional_corpus,
    read_span,
    make_synthetic_corpus,
    default_synthetic_spec,
    save_corpus,
    save_label_set,
    split_corpus,
    POSITIONAL_EVENT_TYPE,
    _sentence_to_obj,
)
from .embeddings import load_pretrained
from .errors import ConfigurationError, DataError, NumericError
from .fileio import json_lines, object_kind, read_fields, text_lines, write_text_atomic
from .evaluation import (
    PredictedNugget,
    PRFReport,
    evaluate_model,
    predict_examples,
    run_ablation,
    score,
)
from .model import CELL_KINDS, HEAD_MODES, tiny_gradcheck
from .numerics import Rng
from .training import TrainConfig, load_checkpoint, save_checkpoint, train_model

_STAND_IN_PARAPHRASES = """\
# Stand-in paraphrase pairs: source<TAB>paraphrase, '#' starts a comment.
# Sources are trigger words of the default synthetic grammar.
attacked\tassaulted
raided\toverran
departed\texited
purchased\tacquired
arrested\tapprehended
met\tgreeted
"""

_GRADCHECK_TOL = 1e-4


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors map to exit code 1."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigurationError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Flat key = value run configuration
# ---------------------------------------------------------------------------

_PATH_KEYS = ("train_corpus", "dev_corpus", "labels", "embeddings", "paraphrases", "out_dir")
# Every run-config key with its type, in flag order: the TrainConfig fields,
# the input/output paths, and the dev split used when no dev corpus is given.
_KEY_TYPES = {
    **typing.get_type_hints(TrainConfig),
    **dict.fromkeys(_PATH_KEYS, str | None),
    "dev_fraction": float,
}
_CONFIG_KEYS = tuple(_KEY_TYPES)


def _coerce(key: str, raw: str):
    """Parse one config value (file line or flag) by the type of its key.

    `none` gives None exactly for the Optional keys.
    """
    raw = raw.strip()
    kind = _KEY_TYPES[key]
    options = typing.get_args(kind)
    if type(None) in options:
        if raw.lower() == "none":
            return None
        (kind,) = set(options) - {type(None)}
    try:
        if kind is bool:
            low = raw.lower()
            if low not in ("true", "1", "yes", "on", "false", "0", "no", "off"):
                raise ValueError("expected a boolean")
            return low in ("true", "1", "yes", "on")
        if typing.get_origin(kind) is tuple:
            return tuple(int(part) for part in raw.split(","))
        return kind(raw)
    except ValueError as e:
        raise ConfigurationError(f"bad value {raw!r} for {key!r}: {e}") from None


def _read_config_file(path: str) -> dict:
    values: dict = {}
    first_line: dict[str, int] = {}
    try:
        with text_lines(Path(path), "config file") as lines:
            for lineno, where, line in lines:
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigurationError(f"{where}: expected 'key = value'")
                key, _, raw = map(str.strip, stripped.partition("="))
                if key not in _CONFIG_KEYS:
                    raise ConfigurationError(f"{where}: unknown config key {key!r}")
                if key in first_line:
                    raise ConfigurationError(f"{where}: key {key!r} repeats line {first_line[key]}")
                first_line[key] = lineno
                try:
                    values[key] = _coerce(key, raw)
                except ConfigurationError as e:
                    raise ConfigurationError(f"{where}: {e}") from e
    except DataError as e:  # a config file is configuration: exit 1, at any line
        raise ConfigurationError(str(e)) from e
    return values


def _resolve_run_config(args) -> dict:
    """Config file values overridden by the CLI flags that were given.

    Flags that were not given are absent from `args`, so an explicit
    `none` (None) still overrides the file and the default.
    """
    values = _read_config_file(args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in _CONFIG_KEYS if hasattr(args, key))
    return values


def _train_config_from(values: dict) -> TrainConfig:
    names = [f.name for f in dataclasses.fields(TrainConfig)]
    return TrainConfig(**{key: values[key] for key in names if key in values})


def _require_file(path: str | None, what: str) -> Path:
    if not path:
        raise ConfigurationError(f"missing required input: {what}")
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"{what} not found: {p}")
    return p


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    # generating and splitting checks every setting, so a rejected run
    # writes nothing
    rng = Rng(args.seed)
    if args.grammar == "default":
        spec = default_synthetic_spec(args.sentences, args.negative_rate)
        corpus = make_synthetic_corpus(spec, rng)
        labels, paraphrases = spec.label_set(), _STAND_IN_PARAPHRASES
    else:
        corpus = make_positional_corpus(args.sentences, rng)
        labels, paraphrases = LabelSet([POSITIONAL_EVENT_TYPE]), None
    train, dev = split_corpus(corpus, args.dev_fraction, rng)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if paraphrases is not None:
        write_text_atomic(out / "paraphrases.tsv", paraphrases)
    save_corpus(train, out / "train.jsonl")
    save_corpus(dev, out / "dev.jsonl")
    save_label_set(labels, out / "labels.json")
    print(
        f"wrote {len(train)} train / {len(dev)} dev sentences, "
        f"{len(labels.event_types)} event types -> {out}"
    )
    return 0


def cmd_build_lexicon(args) -> int:
    labels = load_label_set(_require_file(args.labels, "label file"))
    corpus = load_corpus(_require_file(args.corpus, "corpus"), labels)
    paraphrases = (
        _require_file(args.paraphrases, "paraphrase file") if args.paraphrases else None
    )
    lex = build_trigger_lexicon(corpus, paraphrases)
    save_lexicon(lex, Path(args.out))
    gold = sum(1 for w in lex.entries if lex.counts(w)[0] > 0)
    print(f"lexicon: {len(lex)} entries ({gold} from gold, {len(lex) - gold} paraphrase-only)")
    return 0


def cmd_candidates(args) -> int:
    check_max_nugget_len(args.max_nugget_len)  # before any file is read
    labels = load_label_set(_require_file(args.labels, "label file"))
    corpus = load_corpus(_require_file(args.corpus, "corpus"), labels)
    lex = load_lexicon(_require_file(args.lexicon, "lexicon"))
    lines, types = [], []  # one line per sentence, in corpus order
    for _, s, cands in corpus_candidates(corpus, lex, labels, args.max_nugget_len):
        spans = [{"start": c.start, "end": c.end, "label": list(c.types)} for c in cands]
        lines.append(json.dumps({"tokens": _sentence_to_obj(s)["tokens"], "candidates": spans}))
        types += (c.types for c in cands)
    write_text_atomic(Path(args.out), "".join(line + "\n" for line in lines))
    print(f"{len(types)} candidates over {len(corpus)} sentences "
          f"({sum(map(bool, types))} aligned to gold) -> {args.out}")
    return 0


def _training_inputs(values: dict, cfg: TrainConfig):
    """The inputs `train` and `ablate` read from the run config.

    Returns (labels, train, dev, paraphrases, pretrained). Without
    `dev_corpus`, `dev_fraction` of the training corpus becomes the dev
    set; the paraphrase file is only checked here and read later.
    """
    train_path = _require_file(values.get("train_corpus"), "train_corpus")
    labels = load_label_set(_require_file(values.get("labels"), "labels"))
    full_train = load_corpus(train_path, labels)

    if values.get("dev_corpus"):
        dev = load_corpus(_require_file(values["dev_corpus"], "dev_corpus"), labels)
        train = full_train
    else:
        fraction = values.get("dev_fraction", 0.2)
        if fraction:
            train, dev = split_corpus(full_train, fraction, Rng(cfg.seed).spawn(1))
        else:
            train, dev = full_train, Corpus(())

    paraphrases = values.get("paraphrases")
    if paraphrases:
        _require_file(paraphrases, "paraphrases")
    pretrained = None
    if values.get("embeddings"):
        pretrained = load_pretrained(
            _require_file(values["embeddings"], "embeddings"), cfg.word_dim
        )
    return labels, train, dev, paraphrases, pretrained


_CLIP_WARN_RATE = 0.5  # warn when more than this share of an epoch's steps was clipped


def cmd_train(args) -> int:
    values = _resolve_run_config(args)
    cfg = _train_config_from(values)
    labels, train, dev, paraphrases, pretrained = _training_inputs(values, cfg)
    lexicon, train_ex, dev_ex, vocab = build_datasets(
        train, dev, labels, cfg.max_nugget_len, paraphrases
    )
    # The run id hashes the resolved config; the directory is made before
    # training so that an unusable out_dir fails at once, and removed again
    # if training fails while it is still empty.
    resolved = "\n".join(f"{k} = {values[k]}" for k in sorted(values))
    run_id = hashlib.sha256(resolved.encode("utf-8")).hexdigest()[:12]
    run_dir = Path(values.get("out_dir") or "runs") / run_id
    made = not run_dir.is_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        model, log = train_model(cfg, train_ex, dev_ex, dev, vocab, labels, pretrained)
    except BaseException:
        if made and not any(run_dir.iterdir()):
            run_dir.rmdir()
        raise
    if pretrained is not None:
        table = model.embedder.word
        print(
            f"pretrained coverage: {table.pretrained_hits}/{len(table.vocab) - 1} "
            f"vocabulary words ({len(table.oov_words)} OOV)"
        )

    save_checkpoint(
        run_dir / "checkpoint.fbrnn",
        model,
        lexicon=lexicon,
        max_nugget_len=cfg.max_nugget_len,
        threshold=cfg.threshold,
    )
    write_text_atomic(run_dir / "trainlog.csv", log.to_csv(timing=args.timing))
    save_lexicon(lexicon, run_dir / "lexicon.json")
    write_text_atomic(run_dir / "config.resolved", resolved + "\n")
    write_text_atomic(
        run_dir / "run_info.json",
        json.dumps(
            {
                "run_id": run_id,
                "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "train_sentences": len(train),
                "dev_sentences": len(dev),
                "train_examples": len(train_ex),
                "best_epoch": log.best_epoch,
                "best_dev_f1": log.best_dev_f1(),
            }
        )
        + "\n",
    )
    print(log.format_table(), flush=True)
    for e in log.epochs:
        if e.clip_rate > _CLIP_WARN_RATE:
            print(
                f"warning: epoch {e.epoch} clipped {100 * e.clip_rate:.1f}% of its steps "
                f"(clip_rate {e.clip_rate:.3f} > {_CLIP_WARN_RATE}); clip_norm may be too small",
                file=sys.stderr,
            )
    if log.best_dev_f1() is not None:
        print(f"best epoch {log.best_epoch}: dev F1 {100 * log.best_dev_f1():.2f}")
    print(f"artifacts -> {run_dir}")
    return 0


def _checkpoint_examples(args):
    """Checkpoint -> corpus -> candidate examples, and the decision threshold.

    Returns (model, corpus, examples, threshold); `--threshold` overrides
    the checkpoint's own.
    """
    if args.threshold is not None and not 0.0 < args.threshold < 1.0:
        raise ConfigurationError(f"--threshold must be in (0, 1), got {args.threshold}")
    path = _require_file(args.checkpoint, "checkpoint")
    loaded = load_checkpoint(path)
    if loaded.lexicon is None:
        raise DataError(f"{path}: checkpoint has no embedded lexicon; cannot generate candidates")
    labels = loaded.model.labels
    corpus = load_corpus(_require_file(args.corpus, "corpus"), labels)
    examples = build_examples(corpus, loaded.lexicon, labels, loaded.max_nugget_len or 1)
    threshold = loaded.threshold if args.threshold is None else args.threshold
    return loaded.model, corpus, examples, threshold


_RECORD = object_kind("record", ("sentence", int))  # a prediction; `read_span` reads its span


def _score_predictions(args) -> PRFReport:
    """Score a predictions file against a gold corpus: each record names a
    sentence of it by index, and a span and types as a nugget does."""
    labels = load_label_set(_require_file(args.labels, "label file"))
    corpus = load_corpus(_require_file(args.corpus, "corpus"), labels)
    path = _require_file(args.predictions, "predictions")
    preds = []
    with text_lines(path, "predictions file") as lines:
        for where, obj in json_lines(lines):
            (sid,) = read_fields(obj, _RECORD, where)
            if not 0 <= sid < len(corpus):
                raise DataError(f"{where}: sentence {sid} is not in the corpus")
            preds.append(PredictedNugget(sid, *read_span(obj, len(corpus[sid]), labels, where)))
    return score(preds, corpus, span_only=args.span_only)


def cmd_evaluate(args) -> int:
    if bool(args.checkpoint) == bool(args.predictions):
        raise ConfigurationError("evaluate needs exactly one of --checkpoint/--predictions")
    if args.predictions:
        report = _score_predictions(args)
    else:
        model, corpus, examples, threshold = _checkpoint_examples(args)
        report = evaluate_model(model, examples, corpus, threshold, span_only=args.span_only)
    print(report.format_line())
    if args.out:
        write_text_atomic(Path(args.out), report.to_json() + "\n")
    return 0


def cmd_predict(args) -> int:
    model, corpus, examples, threshold = _checkpoint_examples(args)
    preds = predict_examples(model, examples, threshold)
    lines = "".join(json.dumps(dataclasses.asdict(p)) + "\n" for p in preds)
    write_text_atomic(Path(args.out), lines)
    print(f"{len(preds)} predicted nuggets over {len(corpus)} sentences -> {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigurationError(f"--tol must be finite and positive, got {args.tol}")
    combos = (
        [
            ("gru", "softmax", True),
            ("gru", "sigmoid", True),
            ("lstm", "softmax", True),
            ("lstm", "sigmoid", True),
            ("gru", "softmax", False),
        ]
        if args.all
        else [(args.cell, args.head, not args.no_branch)]
    )
    worst = 0.0
    for cell, head, use_branch in combos:
        report = tiny_gradcheck(cell, head, use_branch, seed=args.seed, eps=args.eps)
        tag = f"{cell}/{head}/{'+branch' if use_branch else '-branch'}"
        print(f"{tag}: max relative error {report.max_rel_error:.3e} "
              f"(worst tensor: {report.worst_tensor})")
        if args.verbose:
            for name, err in sorted(report.per_tensor.items()):
                print(f"  {name:<24} {err:.3e}")
        worst = max(worst, report.max_rel_error)
    if worst >= args.tol:
        print(f"FAIL: max relative error {worst:.3e} >= tolerance {args.tol:g}")
        return 3
    print(f"OK: max relative error {worst:.3e} < tolerance {args.tol:g}")
    return 0


def cmd_ablate(args) -> int:
    values = _resolve_run_config(args)
    cfg = _train_config_from(values)
    labels, train, dev, paraphrases, pretrained = _training_inputs(values, cfg)
    grid = run_ablation(train, dev, cfg, labels, paraphrases, pretrained)
    print(grid.format_table())
    if args.out:
        write_text_atomic(Path(args.out), json.dumps(grid.as_dict(), indent=1) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_train_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    for key in _CONFIG_KEYS:
        if key == "use_branch":
            branch = p.add_mutually_exclusive_group()
            for flag, on in (("--branch", True), ("--no-branch", False)):
                branch.add_argument(
                    flag, dest=key, action="store_const", const=on, default=argparse.SUPPRESS
                )
        else:
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                type=functools.partial(_coerce, key),
                default=argparse.SUPPRESS,
            )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fbrnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--grammar", choices=("default", "positional"), default="default")
    p.add_argument("--sentences", type=int, default=250)
    p.add_argument("--dev-fraction", dest="dev_fraction", type=float, default=0.2)
    p.add_argument("--negative-rate", dest="negative_rate", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-lexicon", help="trigger lexicon from training gold")
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--paraphrases")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_lexicon)

    p = sub.add_parser("candidates", help="dump labeled candidates as JSON lines")
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--max-nugget-len", dest="max_nugget_len", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("train", help="train a model")
    _add_train_config_flags(p)
    p.add_argument(
        "--timing",
        action="store_true",
        help="write real wall-clock seconds into trainlog.csv (breaks byte-identical reruns)",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint or a predictions file")
    p.add_argument("--checkpoint")
    p.add_argument("--predictions")
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", help="label file (predictions mode only)")
    p.add_argument("--threshold", type=float)
    p.add_argument("--span-only", dest="span_only", action="store_true")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="write predicted nuggets for a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--cell", choices=CELL_KINDS, default="gru")
    p.add_argument("--head", choices=HEAD_MODES, default="softmax")
    p.add_argument("--no-branch", dest="no_branch", action="store_true")
    p.add_argument("--all", action="store_true", help="run the full combination sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=2e-4)
    p.add_argument("--tol", type=float, default=_GRADCHECK_TOL)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train the 2x2 cell/branch grid and report dev PRF")
    _add_train_config_flags(p)
    p.add_argument("--out", help="write the grid as JSON here")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a NumericError
            return args.func(args) or 0
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # e.g. an artifact that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # e.g. a model too large to allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
