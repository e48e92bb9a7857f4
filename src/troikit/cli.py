"""Command-line entry points: gen, train, eval, ablate, gradcheck.

Each sub-command's options are declared once, in its ``*_DEFAULTS``
table, from which the parser makes one flag per key. Every option can
also come from a `key = value` config file passed with --config;
explicit flags win over the file, the file wins over the table's
defaults, and unknown keys are rejected. Training writes a sidecar
`<checkpoint>.cfg` in the same format so that eval (and a rerun of
train) can reproduce the exact model.

Exit codes: 0 success, 2 usage or configuration, 3 data/IO,
4 numeric-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
from pathlib import Path

from .backbone import BackboneSpec, VideoClassifier, load_checkpoint
from .errors import ConfigError, DataError, NumericError, TroikitError
from .gradcheck import format_report, run_checks
from .posenc import ORDERINGS
from .synth import CLASSES, CORRUPT_MODES, build_dataset, load_dataset, save_dataset
from .tensor import PRECISIONS, precision
from .train import TrainConfig, completed_epochs, evaluate, parse_log_line, train_model
from .troi import INSERTION_POINTS, TroiConfig


def _default(func, name: str):
    return inspect.signature(func).parameters[name].default


# Each table maps an option to its default; the type of the default is the
# option's type (None: a string), and a bool is a switch. A default that the
# library also uses is read from the library, so the two cannot drift apart.
GEN_DEFAULTS = {
    "out": None,
    "per_class": 100,
    "classes": len(CLASSES),
    "seed": 7,
    "frames": _default(build_dataset, "frames"),
    "size": _default(build_dataset, "size"),
    "force": False,
}

TRAIN_DEFAULTS = {
    "data": None,
    "val_data": None,
    "out": None,
    "log": None,
    "epochs": TrainConfig.epochs,
    "batch_size": TrainConfig.batch_size,
    "lr": TrainConfig.lr,
    "momentum": TrainConfig.momentum,
    "weight_decay": TrainConfig.weight_decay,
    "lr_boundaries": TrainConfig.lr_boundaries,
    "seed": TrainConfig.seed,
    "precision": "f32",
    "topk": TrainConfig.topk,
    "channels": ",".join(str(c) for c in BackboneSpec.channels),
    "no_troi": False,
    "troi_at": TroiConfig.insert_at,
    "troi_layers": TroiConfig.layers,
    "heads": TroiConfig.heads,
    "variant": TroiConfig().variants(),
    "ordering": TroiConfig.ordering,
    "resume": False,
}

# a train sidecar also records the data shape, so eval can rebuild the model
_SIDECAR_DEFAULTS = dict(
    TRAIN_DEFAULTS, frames=BackboneSpec.frames, size=BackboneSpec.size, num_classes=BackboneSpec.classes
)

EVAL_DEFAULTS = {
    "data": None,
    "checkpoint": None,
    "model_config": None,
    "corrupt": None,
    "topk": _default(evaluate, "k"),
    "batch_size": _default(evaluate, "batch_size"),
}

ABLATE_DEFAULTS = {
    "data": None,
    "val_data": None,
    "out_dir": None,
    "epochs": 8,
    "batch_size": TrainConfig.batch_size,
    "lr": TrainConfig.lr,
    "seed": TrainConfig.seed,
    "heads": TroiConfig.heads,
}

GRADCHECK_DEFAULTS = {"op": None, **{k: _default(run_checks, k) for k in ("points", "tol", "seed", "perturb")}}

# the values an option may take, wherever it is set
CHOICES = {
    "precision": tuple(PRECISIONS),
    "troi_at": INSERTION_POINTS,
    "ordering": ORDERINGS,
    "corrupt": CORRUPT_MODES,
}

_HELP = {
    "log": "metrics log path (default: <out>.log)",
    "lr_boundaries": "e.g. 20,40",
    "channels": "comma list of 4 stage widths",
    "variant": "comma list of scene,coord",
    "model_config": "sidecar config (default: <checkpoint>.cfg)",
    "op": "comma list; default all",
    "perturb": "offset analytic grads (negative control)",
}

_TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}


def _read_config(path, known: dict) -> dict:
    """The `key = value` entries of a config file; each value is coerced
    to the type of its key's default in ``known``, and a key missing from
    ``known`` is rejected."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file {path} does not exist")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text ({exc})") from None
    entries = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        default = known[key]  # untyped (None) defaults keep their values as strings
        value = _coerce(key, raw.strip(), "" if default is None else default)
        if key in CHOICES and value is not None and value not in CHOICES[key]:
            raise ConfigError(f"{path}:{lineno}: {key} must be one of {CHOICES[key]}, got {value!r}")
        entries[key] = value
    return entries


def _coerce(key: str, raw: str, default):
    # "none" or nothing unsets a string option; a number or a switch needs a value
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if isinstance(default, (int, float)):
        kind = type(default)
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from None
    return None if raw.lower() in ("none", "") else raw


def _merge(defaults: dict, args: argparse.Namespace, required=()) -> dict:
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        cfg.update(_read_config(config_path, defaults))
    for key, value in vars(args).items():
        if key in defaults and value is not None:
            cfg[key] = value
    missing = [k for k in required if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join('--' + m.replace('_', '-') for m in missing)}")
    return cfg


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(**{key: value for key, value in cfg.items() if key in _TRAIN_FIELDS})


def _parse_boundaries(raw):
    if raw is None or raw == "none":
        return None
    try:
        b1, b2 = (int(p) for p in str(raw).split(","))
    except ValueError:
        raise ConfigError(f"lr_boundaries must be 'b1,b2', got {raw!r}") from None
    return (b1, b2)


def _parse_channels(raw) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in str(raw).split(","))
    except ValueError:
        raise ConfigError(f"channels must be comma-separated ints, got {raw!r}") from None


def _troi_config(cfg: dict) -> TroiConfig | None:
    if cfg["no_troi"]:
        return None
    variant = cfg.get("variant") or "none"
    parts = {p.strip() for p in variant.split(",") if p.strip() and p.strip() != "none"}
    unknown = parts - {"scene", "coord"}
    if unknown:
        raise ConfigError(f"unknown variant(s) {sorted(unknown)}; expected scene and/or coord")
    return TroiConfig(
        insert_at=cfg["troi_at"],
        layers=cfg["troi_layers"],
        heads=cfg["heads"],
        scene_token="scene" in parts,
        coord_encoding="coord" in parts,
        ordering=cfg["ordering"],
    )


def _load_train_val(cfg: dict):
    """Both sets, then the training set's frames, size and class count. A val set that such a model could
    not evaluate is rejected before any file is written or epoch run; ``load_dataset`` gives every video of
    a set its first video's shape, so one comparison covers the set."""
    train_videos, val_videos = load_dataset(cfg["data"]), load_dataset(cfg["val_data"])
    shape, train_shape = val_videos[0].frames.shape, train_videos[0].frames.shape
    if shape != train_shape:
        raise DataError(f"val videos have shape {shape}; the training videos have {train_shape}")
    num_classes = max(2, max(v.label for v in train_videos) + 1)
    for i, v in enumerate(val_videos):
        if v.label >= num_classes:
            raise DataError(f"val video {i} has label {v.label}; the model has {num_classes} classes")
    return train_videos, val_videos, train_shape[0], train_shape[1], num_classes


def _write_sidecar(path, cfg: dict) -> None:
    # parsed lists (lr_boundaries, channels) go back to the comma form they were read in
    values = {key: ",".join(map(str, v)) if isinstance(v, tuple) else v for key, v in cfg.items()}
    Path(path).write_text("".join(f"{key} = {values[key]}\n" for key in _SIDECAR_DEFAULTS))


def _model(cfg: dict) -> VideoClassifier:
    """The untrained model a parsed train config or sidecar describes."""
    spec = BackboneSpec(frames=cfg["frames"], size=cfg["size"], channels=cfg["channels"], classes=cfg["num_classes"])
    return VideoClassifier(spec, _troi_config(cfg), seed=cfg["seed"])


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    cfg = _merge(GEN_DEFAULTS, args, required=("out",))
    if not 2 <= cfg["classes"] <= len(CLASSES):
        raise ConfigError(f"classes must be between 2 and {len(CLASSES)}, got {cfg['classes']}")
    videos = build_dataset(
        cfg["seed"], cfg["per_class"], cfg["frames"], cfg["size"], classes=CLASSES[: cfg["classes"]]
    )
    manifest = save_dataset(cfg["out"], videos, force=cfg["force"])
    print(f"wrote {len(videos)} videos ({cfg['per_class']} per class) to {manifest.parent}")
    return 0


def cmd_train(args) -> int:
    # sidecar shape keys are accepted so a recorded config can be fed
    # straight back in; the actual shape always comes from the dataset
    cfg = _merge(_SIDECAR_DEFAULTS, args, required=("data", "val_data", "out"))
    cfg["lr_boundaries"] = _parse_boundaries(cfg["lr_boundaries"])
    cfg["channels"] = _parse_channels(cfg["channels"])
    tcfg = _train_config(cfg)
    train_videos, val_videos, cfg["frames"], cfg["size"], cfg["num_classes"] = _load_train_val(cfg)

    log_path = cfg["log"] or str(cfg["out"]) + ".log"
    for target in (cfg["out"], log_path):
        Path(target).parent.mkdir(parents=True, exist_ok=True)
    start_epoch = 0
    with precision(cfg["precision"]):
        model = _model(cfg)
        if cfg["resume"] and Path(cfg["out"]).exists():
            load_checkpoint(cfg["out"], model)
            start_epoch = completed_epochs(log_path)
            print(f"resuming from epoch {start_epoch}")
        else:
            Path(log_path).unlink(missing_ok=True)  # no checkpoint to resume: start a fresh log
        _write_sidecar(str(cfg["out"]) + ".cfg", cfg)
        if start_epoch >= cfg["epochs"]:
            print("nothing to do: training already complete")
            return 0
        lines = train_model(
            model,
            train_videos,
            val_videos,
            tcfg,
            log_path=log_path,
            checkpoint_path=cfg["out"],
            start_epoch=start_epoch,
        )
    for line in lines:
        print(line)
    print(f"checkpoint: {cfg['out']}")
    return 0


def cmd_eval(args) -> int:
    cfg = _merge(EVAL_DEFAULTS, args, required=("data", "checkpoint"))
    ckpt = Path(cfg["checkpoint"])
    if not ckpt.exists():
        raise DataError(f"checkpoint {ckpt} does not exist")
    sidecar_path = cfg["model_config"] or str(ckpt) + ".cfg"
    sidecar = {**_SIDECAR_DEFAULTS, **_read_config(sidecar_path, _SIDECAR_DEFAULTS)}
    sidecar["channels"] = _parse_channels(sidecar["channels"])
    videos = load_dataset(cfg["data"])
    with precision(sidecar["precision"]):
        model = _model(sidecar)
        load_checkpoint(ckpt, model)
        metrics = evaluate(model, videos, k=cfg["topk"], corrupt=cfg["corrupt"], batch_size=cfg["batch_size"])
    mode = cfg["corrupt"] or "none"
    print(f"videos={len(videos)} corrupt={mode}")
    print(f"top1={metrics['top1']!r} top{cfg['topk']}={metrics['topk']!r}")
    for cls_id, acc in sorted(metrics["per_class"].items()):
        name = CLASSES[cls_id] if cls_id < len(CLASSES) else str(cls_id)
        print(f"class {cls_id} ({name}): {acc!r}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _merge(ABLATE_DEFAULTS, args, required=("data", "val_data", "out_dir"))
    train_videos, val_videos, frames, size, num_classes = _load_train_val(cfg)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    tcfg = _train_config(cfg)
    rows = []
    for placement in INSERTION_POINTS:
        for layers in (1, 2):
            spec = BackboneSpec(frames=frames, size=size, classes=num_classes)
            troi = TroiConfig(insert_at=placement, layers=layers, heads=cfg["heads"])
            model = VideoClassifier(spec, troi, seed=cfg["seed"])
            # the last epoch's log line holds the trained model's val metrics
            metrics = parse_log_line(train_model(model, train_videos, val_videos, tcfg)[-1])
            rows.append((placement, layers, metrics["val_top1"], metrics["val_topk"]))
            print(f"done: {placement} layers={layers} top1={metrics['val_top1']:.4f}")

    lines = ["placement  layers  val_top1  val_topk"]
    lines += [f"{p:<9}  {l:<6}  {t1:.4f}    {tk:.4f}" for p, l, t1, tk in rows]
    table = "\n".join(lines)
    (out_dir / "ablation.txt").write_text(table + "\n")
    print(table)
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _merge(GRADCHECK_DEFAULTS, args)
    ops = None if cfg["op"] is None else [o.strip() for o in cfg["op"].split(",") if o.strip()]
    results = run_checks(ops=ops, points=cfg["points"], tol=cfg["tol"], seed=cfg["seed"], perturb=cfg["perturb"])
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 4


# ---------------------------------------------------------------------------
# parser

_COMMANDS = {
    "gen": (cmd_gen, GEN_DEFAULTS, "generate a synthetic dataset"),
    "train": (cmd_train, TRAIN_DEFAULTS, "train a classifier"),
    "eval": (cmd_eval, EVAL_DEFAULTS, "evaluate a checkpoint"),
    "ablate": (cmd_ablate, ABLATE_DEFAULTS, "placement x depth comparison table"),
    "gradcheck": (cmd_gradcheck, GRADCHECK_DEFAULTS, "finite-difference gradient checks"),
}


def build_parser() -> argparse.ArgumentParser:
    """One sub-command per entry of ``_COMMANDS``, with one flag per key of
    its defaults table: ``--key-name``, typed like the default, a switch for
    a bool. Every flag defaults to None, so an unset flag leaves the config
    file's value or the table's default in place."""
    parser = argparse.ArgumentParser(prog="troikit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, defaults, summary) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="key = value file; flags override it")
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(flag, dest=key, action="store_true", default=None, help=_HELP.get(key))
                continue
            text = _HELP.get(key, "") + ("" if default is None else f" (default: {default})")
            kind = str if default is None else type(default)
            p.add_argument(flag, dest=key, type=kind, choices=CHOICES.get(key), help=text)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (TroikitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (DataError, OSError)):
            return 3
        return 4 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
