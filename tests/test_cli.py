import argparse
import dataclasses
import hashlib
import inspect
import shutil
from pathlib import Path

import numpy as np
import pytest

import troikit.cli as cli
from troikit.backbone import BackboneSpec
from troikit.cli import build_parser, main
from troikit.gradcheck import OpCheck, run_checks
from troikit.synth import CLASSES, build_dataset, load_dataset, save_dataset
from troikit.train import TrainConfig, evaluate
from troikit.troi import INSERTION_POINTS, TroiConfig


def dir_digest(path):
    h = hashlib.sha256()
    for f in sorted(Path(path).rglob("*")):
        if f.is_file():
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    for name, seed in (("train", 31), ("val", 32)):
        code = main(
            [
                "gen", "--out", str(root / name), "--per-class", "2",
                "--seed", str(seed), "--frames", "4", "--size", "16",
            ]
        )
        assert code == 0
    return root


@pytest.fixture(scope="module")
def nan_data(tiny_data, tmp_path_factory):
    videos = load_dataset(tiny_data / "train")
    videos[0] = dataclasses.replace(videos[0], frames=np.full_like(videos[0].frames, np.nan))
    root = tmp_path_factory.mktemp("nan-data")
    save_dataset(root, videos)
    return root


class TestGen:
    def test_counts_and_manifest(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "ds"), "--per-class", "2",
                     "--classes", "6", "--seed", "7", "--frames", "4", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "12 videos" in out
        manifest = (tmp_path / "ds" / "manifest.txt").read_text().splitlines()
        assert len(manifest) == 12
        assert len(load_dataset(tmp_path / "ds")) == 12

    def test_rerun_is_hash_identical(self, tmp_path):
        args = ["gen", "--out", str(tmp_path / "ds"), "--per-class", "2",
                "--seed", "7", "--frames", "4", "--size", "16"]
        assert main(args) == 0
        first = dir_digest(tmp_path / "ds")
        assert main(args + ["--force"]) == 0
        assert dir_digest(tmp_path / "ds") == first

    def test_refuses_overwrite_without_force(self, tmp_path):
        args = ["gen", "--out", str(tmp_path / "ds"), "--per-class", "1",
                "--seed", "7", "--frames", "4", "--size", "16"]
        assert main(args) == 0
        assert main(args) == 3

    def test_creates_missing_directories(self, tmp_path):
        out = tmp_path / "a" / "b" / "ds"
        assert main(["gen", "--out", str(out), "--per-class", "1",
                     "--seed", "1", "--frames", "4", "--size", "16"]) == 0
        assert (out / "manifest.txt").exists()

    def test_missing_required_flag(self):
        assert main(["gen", "--per-class", "2"]) == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--frames", "1", "at least 2 frames"),
            ("--frames", "0", "at least 2 frames"),
            ("--size", "0", "at least 1x1"),
            ("--per-class", "0", "per_class must be at least 1"),
            ("--per-class", "-2", "per_class must be at least 1"),
            ("--seed", "-1", "seed non-negative"),
        ],
    )
    def test_degenerate_shape_exits_2(self, tmp_path, capsys, flag, value, message):
        args = {"--per-class": "1", "--frames": "4", "--size": "16", flag: value}
        out = tmp_path / "ds"
        argv = ["gen", "--out", str(out)] + [item for pair in args.items() for item in pair]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def trained(tiny_data, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-train")
    ckpt = root / "model.ckpt"
    code = main(
        [
            "train", "--data", str(tiny_data / "train"), "--val-data", str(tiny_data / "val"),
            "--out", str(ckpt), "--epochs", "2", "--batch-size", "6",
            "--lr", "0.02", "--seed", "3", "--channels", "4,6,8,8",
        ]
    )
    assert code == 0
    return ckpt


class TestTrain:
    def test_writes_checkpoint_log_and_sidecar(self, trained):
        assert trained.exists()
        assert Path(str(trained) + ".cfg").exists()
        log_lines = Path(str(trained) + ".log").read_text().splitlines()
        assert len(log_lines) == 2 and log_lines[0].startswith("epoch=0 ")

    def test_no_troi_flag(self, tiny_data, tmp_path, capsys):
        ckpt = tmp_path / "plain.ckpt"
        assert main(
            ["train", "--data", str(tiny_data / "train"), "--val-data", str(tiny_data / "val"),
             "--out", str(ckpt), "--epochs", "1", "--batch-size", "6",
             "--channels", "4,6,8,8", "--no-troi"]
        ) == 0
        assert "no_troi = True" in Path(str(ckpt) + ".cfg").read_text()

    def test_default_configuration_flags(self, tiny_data, tmp_path):
        ckpt = tmp_path / "conv4.ckpt"
        assert main(
            ["train", "--data", str(tiny_data / "train"), "--val-data", str(tiny_data / "val"),
             "--out", str(ckpt), "--epochs", "1", "--batch-size", "6",
             "--channels", "4,6,8,8", "--troi-at", "conv4", "--troi-layers", "1"]
        ) == 0
        text = Path(str(ckpt) + ".cfg").read_text()
        assert "troi_at = conv4" in text and "troi_layers = 1" in text

    def test_invalid_placement_is_usage_error(self, tiny_data, tmp_path):
        assert main(
            ["train", "--data", str(tiny_data / "train"), "--val-data", str(tiny_data / "val"),
             "--out", str(tmp_path / "x.ckpt"), "--troi-at", "conv7"]
        ) == 2

    def test_resume_appends_remaining_epochs(self, tiny_data, tmp_path):
        ckpt = tmp_path / "resume.ckpt"
        base = ["train", "--data", str(tiny_data / "train"), "--val-data", str(tiny_data / "val"),
                "--out", str(ckpt), "--batch-size", "6", "--channels", "4,6,8,8", "--seed", "4"]
        assert main(base + ["--epochs", "1"]) == 0
        assert main(base + ["--epochs", "3", "--resume"]) == 0
        lines = Path(str(ckpt) + ".log").read_text().splitlines()
        assert [l.split()[0] for l in lines] == ["epoch=0", "epoch=1", "epoch=2"]

    def test_config_file_merging(self, tiny_data, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "epochs = 1\nbatch_size = 6\nchannels = 4,6,8,8\n"
            f"data = {tiny_data / 'train'}\nval_data = {tiny_data / 'val'}\n"
        )
        ckpt = tmp_path / "fromcfg.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        assert ckpt.exists()

    def test_creates_missing_output_directory(self, tiny_data, tmp_path):
        ckpt = tmp_path / "runs" / "deep" / "model.ckpt"
        assert main(
            ["train", "--data", str(tiny_data / "train"), "--val-data", str(tiny_data / "val"),
             "--out", str(ckpt), "--epochs", "1", "--batch-size", "6", "--channels", "4,6,8,8"]
        ) == 0
        assert ckpt.exists()

    def test_sidecar_feeds_back_into_train(self, trained, tmp_path):
        again = tmp_path / "again.ckpt"
        assert main(
            ["train", "--config", str(trained) + ".cfg", "--out", str(again), "--epochs", "1"]
        ) == 0
        assert again.exists()

    def test_non_numeric_config_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("per_class = abc\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        assert "per_class: expected int, got 'abc'" in capsys.readouterr().err
        cfg.write_text("lr = fast\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")]) == 2
        # a number left unset would reach the checks as None
        cfg.write_text("epochs = none\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")]) == 2
        assert "epochs: expected int, got 'none'" in capsys.readouterr().err
        cfg.write_text("points =\n")
        assert main(["gradcheck", "--config", str(cfg), "--op", "matmul"]) == 2

    def test_non_finite_loss_exits_4(self, nan_data, tiny_data, tmp_path, capsys):
        assert main(
            ["train", "--data", str(nan_data), "--val-data", str(tiny_data / "val"),
             "--out", str(tmp_path / "nan.ckpt"), "--epochs", "1", "--batch-size", "6",
             "--channels", "4,6,8,8"]
        ) == 4
        assert "non-finite training loss" in capsys.readouterr().err

    def test_overflowed_update_exits_4_without_logging_the_epoch(self, tiny_data, tmp_path, capsys):
        ckpt = tmp_path / "overflow.ckpt"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(
                ["train", "--data", str(tiny_data / "train"), "--val-data", str(tiny_data / "val"),
                 "--out", str(ckpt), "--epochs", "1", "--batch-size", "12", "--lr", "1e30",
                 "--channels", "4,6,8,8"]
            )
        assert code == 4
        assert "non-finite logit" in capsys.readouterr().err
        assert not ckpt.exists()
        assert Path(str(ckpt) + ".log").read_text() == ""

    def test_malformed_manifest_exits_3(self, tiny_data, tmp_path, capsys):
        bad = tmp_path / "bad-data"
        save_dataset(bad, load_dataset(tiny_data / "train"))
        manifest = bad / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lines[0] = "\t".join(lines[0].split("\t")[:2])
        manifest.write_text("\n".join(lines) + "\n")
        assert main(
            ["train", "--data", str(bad), "--val-data", str(tiny_data / "val"),
             "--out", str(tmp_path / "bad.ckpt"), "--epochs", "1", "--channels", "4,6,8,8"]
        ) == 3
        assert "4 tab-separated fields" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--momentum", "nan"), ("--weight-decay", "inf"), ("--lr", "inf"), ("--topk", "0"), ("--seed", "-1")],
    )
    def test_non_finite_or_out_of_range_setting_exits_2(self, tiny_data, tmp_path, capsys, flag, value):
        out = tmp_path / "bad.ckpt"
        assert main(
            ["train", "--data", str(tiny_data / "train"), "--val-data", str(tiny_data / "val"),
             "--out", str(out), "--epochs", "1", "--channels", "4,6,8,8", flag, value]
        ) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tiny_data, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("eppochs = 1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x.ckpt"),
                     "--data", str(tiny_data / "train"), "--val-data", str(tiny_data / "val")]) == 2
        assert "unknown config key" in capsys.readouterr().err


class TestEval:
    def test_eval_runs_and_is_deterministic(self, tiny_data, trained, capsys):
        args = ["eval", "--data", str(tiny_data / "val"), "--checkpoint", str(trained)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "top1=" in first

    def test_corrupt_drop_all_uses_bypass(self, tiny_data, trained, capsys):
        assert main(["eval", "--data", str(tiny_data / "val"), "--checkpoint", str(trained),
                     "--corrupt", "drop-all"]) == 0
        assert "corrupt=drop-all" in capsys.readouterr().out

    def test_missing_checkpoint_is_data_error(self, tiny_data, tmp_path):
        assert main(["eval", "--data", str(tiny_data / "val"),
                     "--checkpoint", str(tmp_path / "ghost.ckpt")]) == 3

    def test_invalid_corrupt_mode(self, tiny_data, trained):
        assert main(["eval", "--data", str(tiny_data / "val"), "--checkpoint", str(trained),
                     "--corrupt", "smear"]) == 2

    def test_non_finite_logits_exit_4(self, nan_data, trained, capsys):
        # video 0 of nan_data has NaN frames, so its logits are NaN
        assert main(["eval", "--data", str(nan_data), "--checkpoint", str(trained)]) == 4
        captured = capsys.readouterr()
        assert "non-finite logit for video 0" in captured.err and "top1=" not in captured.out

    @pytest.mark.parametrize("flag, value", [("--batch-size", "0"), ("--topk", "0"), ("--topk", "-1")])
    def test_nonpositive_topk_or_batch_size_exits_2(self, tiny_data, trained, capsys, flag, value):
        assert main(["eval", "--data", str(tiny_data / "val"), "--checkpoint", str(trained), flag, value]) == 2
        captured = capsys.readouterr()
        assert "must be at least 1" in captured.err and "top1=" not in captured.out


class TestGradcheckCommand:
    def test_single_op(self, capsys):
        assert main(["gradcheck", "--op", "matmul", "--points", "2"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "pass" in out

    def test_perturbed_gradients_fail(self, capsys):
        assert main(["gradcheck", "--op", "matmul", "--points", "1", "--perturb", "0.5"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_op(self):
        assert main(["gradcheck", "--op", "warp"]) == 2

    def test_op_list_naming_no_op(self, capsys):
        # this used to end in a ValueError from a report over no results
        assert main(["gradcheck", "--op", ","]) == 2
        assert "names no op" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--points", "0"), ("--tol", "nan"), ("--perturb", "nan")])
    def test_setting_that_checks_nothing_exits_2(self, capsys, flag, value):
        # each of these would report every op as a pass
        assert main(["gradcheck", "--op", "matmul", "--points", "1", flag, value]) == 2
        captured = capsys.readouterr()
        assert "must be" in captured.err and "pass" not in captured.out


class TestAblate:
    def test_non_finite_loss_exits_4(self, nan_data, tiny_data, tmp_path, capsys):
        assert main(
            ["ablate", "--data", str(nan_data), "--val-data", str(tiny_data / "val"),
             "--out-dir", str(tmp_path / "ablation"), "--epochs", "1", "--batch-size", "6"]
        ) == 4
        assert "non-finite training loss" in capsys.readouterr().err

    @pytest.mark.slow
    def test_grid_completes_and_emits_table(self, tiny_data, tmp_path, capsys):
        out_dir = tmp_path / "ablation"
        assert main(
            ["ablate", "--data", str(tiny_data / "train"), "--val-data", str(tiny_data / "val"),
             "--out-dir", str(out_dir), "--epochs", "1", "--batch-size", "6"]
        ) == 0
        table = (out_dir / "ablation.txt").read_text().splitlines()
        assert table[0].split() == ["placement", "layers", "val_top1", "val_topk"]
        assert len(table) == 7  # header + 3 placements x 2 depths


class TestBadInput:
    """Each ends in its documented exit code with a one-line error, not a traceback."""

    @pytest.fixture
    def empty_data(self, tmp_path):
        (tmp_path / "empty").mkdir()
        (tmp_path / "empty" / "manifest.txt").write_text("\n")
        return tmp_path / "empty"

    def test_empty_manifest_exits_3_in_train(self, empty_data, tiny_data, tmp_path, capsys):
        # this used to be an IndexError when the data shape was read off the first video
        assert main(
            ["train", "--data", str(empty_data), "--val-data", str(tiny_data / "val"),
             "--out", str(tmp_path / "x.ckpt")]
        ) == 3
        assert "lists no videos" in capsys.readouterr().err

    def test_empty_manifest_exits_3_in_eval(self, empty_data, trained, capsys):
        assert main(["eval", "--data", str(empty_data), "--checkpoint", str(trained)]) == 3
        assert "lists no videos" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, code", [("config", 2), ("sidecar", 2), ("manifest", 3)])
    def test_bytes_that_are_not_utf8_exit_with_the_files_code(self, kind, code, tiny_data, trained, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(tiny_data / "val", data)
        bad = data / "manifest.txt" if kind == "manifest" else tmp_path / f"{kind}.cfg"
        bad.write_bytes(b"epochs = 1\n\xff\xfe\n")
        if kind == "sidecar":
            argv = ["eval", "--data", str(data), "--checkpoint", str(trained), "--model-config", str(bad)]
        else:
            argv = ["train", "--data", str(data), "--val-data", str(data), "--out", str(tmp_path / "x.ckpt")]
            argv += ["--config", str(bad)] if kind == "config" else []
        assert main(argv) == code
        assert f"{bad} is not UTF-8 text" in capsys.readouterr().err

    def test_val_labels_outside_the_trained_classes_exit_3(self, tiny_data, tmp_path, capsys):
        two = tmp_path / "two"
        assert main(["gen", "--out", str(two), "--classes", "2", "--per-class", "2", "--frames", "4", "--size", "16"]) == 0
        assert main(
            ["train", "--data", str(two), "--val-data", str(tiny_data / "val"), "--out", str(tmp_path / "x.ckpt"),
             "--epochs", "1", "--channels", "4,6,8,8"]
        ) == 3
        assert "the model has 2 classes" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt.cfg").exists()  # rejected before any file is written

    def test_val_videos_of_another_shape_exit_3_before_training(self, tiny_data, tmp_path, capsys):
        # this used to exit 2 from the first evaluate, after a whole epoch
        big = tmp_path / "big"
        assert main(["gen", "--out", str(big), "--per-class", "1", "--frames", "4", "--size", "32"]) == 0
        assert main(
            ["train", "--data", str(tiny_data / "train"), "--val-data", str(big), "--out", str(tmp_path / "x.ckpt"),
             "--epochs", "1", "--channels", "4,6,8,8"]
        ) == 3
        assert "the training videos have (4, 16, 16, 3)" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt.cfg").exists()


class TestDefaults:
    """A command given only its required flags runs the library's defaults."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {}

        def record(name, result, real):
            def fake(*args, **kwargs):
                calls.setdefault(name, []).append(inspect.signature(real).bind(*args, **kwargs).arguments)
                return result

            monkeypatch.setattr(cli, name, fake)

        line = "epoch=0 lr=0.01 train_loss=1.0 val_top1=0.5 val_topk=1.0"
        record("train_model", [line], cli.train_model)
        record("evaluate", {"top1": 0.0, "topk": 0.0, "per_class": {}}, evaluate)
        record("run_checks", [OpCheck("matmul", True, 0.0, 1, 1)], run_checks)
        record("build_dataset", [], build_dataset)
        return calls

    @staticmethod
    def assert_keyword_defaults(func, arguments):
        for name, param in inspect.signature(func).parameters.items():
            if param.default is not param.empty:
                assert arguments.get(name, param.default) == param.default, name

    def test_train(self, calls, tiny_data, tmp_path):
        assert main(["train", "--data", str(tiny_data / "train"), "--val-data", str(tiny_data / "val"),
                     "--out", str(tmp_path / "x.ckpt")]) == 0
        (run,) = calls["train_model"]
        assert run["cfg"] == TrainConfig()
        assert run["model"].troi_config == TroiConfig()
        assert run["model"].spec.channels == BackboneSpec.channels

    def test_eval(self, calls, tiny_data, trained):
        assert main(["eval", "--data", str(tiny_data / "val"), "--checkpoint", str(trained)]) == 0
        (run,) = calls["evaluate"]
        self.assert_keyword_defaults(evaluate, run)

    def test_ablate(self, calls, tiny_data, tmp_path):
        assert main(["ablate", "--data", str(tiny_data / "train"), "--val-data", str(tiny_data / "val"),
                     "--out-dir", str(tmp_path / "ablation")]) == 0
        runs = calls["train_model"]
        assert [(r["model"].troi_config.insert_at, r["model"].troi_config.layers) for r in runs] == [
            (placement, layers) for placement in INSERTION_POINTS for layers in (1, 2)
        ]
        for run in runs:
            assert run["cfg"] == dataclasses.replace(TrainConfig(), epochs=cli.ABLATE_DEFAULTS["epochs"])
            troi = run["model"].troi_config
            assert troi == dataclasses.replace(TroiConfig(), insert_at=troi.insert_at, layers=troi.layers)
            assert run["model"].spec.channels == BackboneSpec.channels
        # each model's metrics come from its last log line, not a second evaluate
        assert "evaluate" not in calls
        rows = (tmp_path / "ablation" / "ablation.txt").read_text().splitlines()[1:]
        assert [row.split()[2:] for row in rows] == [["0.5000", "1.0000"]] * len(runs)

    def test_gradcheck(self, calls):
        assert main(["gradcheck"]) == 0
        (run,) = calls["run_checks"]
        self.assert_keyword_defaults(run_checks, run)

    def test_gen(self, calls, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "d")]) == 0
        (run,) = calls["build_dataset"]
        assert run["classes"] == CLASSES
        self.assert_keyword_defaults(build_dataset, run)


# -- the command-line surface -------------------------------------------------

_CORRUPT = ("iou@0.50", "iou@0.25", "iou@0.05", "drop-hands", "drop-objects", "drop-all")
_FLAG = "flag"  # a store_true switch

# sub-command -> option -> (dest, type, choices)
SURFACE = {
    "gen": {
        "--out": ("out", str, None),
        "--per-class": ("per_class", int, None),
        "--classes": ("classes", int, None),
        "--seed": ("seed", int, None),
        "--frames": ("frames", int, None),
        "--size": ("size", int, None),
        "--force": ("force", _FLAG, None),
    },
    "train": {
        "--data": ("data", str, None),
        "--val-data": ("val_data", str, None),
        "--out": ("out", str, None),
        "--log": ("log", str, None),
        "--epochs": ("epochs", int, None),
        "--batch-size": ("batch_size", int, None),
        "--lr": ("lr", float, None),
        "--momentum": ("momentum", float, None),
        "--weight-decay": ("weight_decay", float, None),
        "--lr-boundaries": ("lr_boundaries", str, None),
        "--seed": ("seed", int, None),
        "--precision": ("precision", str, ("f32", "f64")),
        "--topk": ("topk", int, None),
        "--channels": ("channels", str, None),
        "--no-troi": ("no_troi", _FLAG, None),
        "--troi-at": ("troi_at", str, ("conv3", "conv4", "conv5")),
        "--troi-layers": ("troi_layers", int, None),
        "--heads": ("heads", int, None),
        "--variant": ("variant", str, None),
        "--ordering": ("ordering", str, ("left-right", "right-left")),
        "--resume": ("resume", _FLAG, None),
    },
    "eval": {
        "--data": ("data", str, None),
        "--checkpoint": ("checkpoint", str, None),
        "--model-config": ("model_config", str, None),
        "--corrupt": ("corrupt", str, _CORRUPT),
        "--topk": ("topk", int, None),
        "--batch-size": ("batch_size", int, None),
    },
    "ablate": {
        "--data": ("data", str, None),
        "--val-data": ("val_data", str, None),
        "--out-dir": ("out_dir", str, None),
        "--epochs": ("epochs", int, None),
        "--batch-size": ("batch_size", int, None),
        "--lr": ("lr", float, None),
        "--seed": ("seed", int, None),
        "--heads": ("heads", int, None),
    },
    "gradcheck": {
        "--op": ("op", str, None),
        "--points": ("points", int, None),
        "--tol": ("tol", float, None),
        "--seed": ("seed", int, None),
        "--perturb": ("perturb", float, None),
    },
}


def parser_surface():
    """sub-command -> option -> (dest, type, choices), read from the parser;
    --config and --help are left out, as every sub-command has them."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {}
    for name, sub in commands.choices.items():
        options = {}
        for action in sub._actions:
            option = action.option_strings[-1]
            if option in ("--help", "--config"):
                continue
            if isinstance(action, argparse._StoreTrueAction):
                kind = _FLAG
            else:
                kind = action.type or str  # argparse keeps an untyped value as its string
            assert action.default is None, f"{name} {option}: a flag default would hide the config file"
            options[option] = (action.dest, kind, None if action.choices is None else tuple(action.choices))
        surface[name] = options
    return surface


class TestSurface:
    def test_flags_dests_types_and_choices(self):
        assert parser_surface() == SURFACE
        assert sum(len(options) for options in SURFACE.values()) == 47

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_every_flag_is_a_config_key(self, command, tmp_path, capsys):
        defaults = getattr(cli, f"{command.upper()}_DEFAULTS")
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{dest} = {defaults[dest]}\n" for dest, _, _ in SURFACE[command].values()))
        if command == "gradcheck":  # nothing is required, so check one op once
            assert main([command, "--config", str(cfg), "--op", "matmul", "--points", "1"]) == 0
        else:  # paths default to None, so the first complaint is a missing required option
            assert main([command, "--config", str(cfg)]) == 2
            assert "missing required option" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line", [("eval", "corrupt = smear"), ("train", "precision = f16"), ("train", "troi_at = conv7")]
    )
    def test_config_file_values_keep_to_the_flag_choices(self, command, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert f"{line.split()[0]} must be one of" in capsys.readouterr().err

    def test_sidecar_feeds_back_through_config(self, trained, tmp_path, capsys):
        copy = tmp_path / "copy.ckpt"
        shutil.copy(trained, copy)
        shutil.copy(str(trained) + ".log", str(copy) + ".log")
        # the sidecar names the run's data and out; the flags move the output to the copy
        assert main(["train", "--config", str(trained) + ".cfg", "--out", str(copy), "--resume"]) == 0
        assert "nothing to do" in capsys.readouterr().out

        def keys(path):
            return [line.split(" = ")[0] for line in Path(path).read_text().splitlines()]

        assert keys(str(copy) + ".cfg") == keys(str(trained) + ".cfg")


class TestPrecisionFlag:
    def test_f64_trains_and_evaluates_in_f64(self, tiny_data, tmp_path, monkeypatch, capsys):
        seen = {}

        def spy(name, fn):
            def wrapped(model, *args, **kwargs):
                seen[name] = {p.data.dtype for _, p in model.parameters()}
                return fn(model, *args, **kwargs)

            monkeypatch.setattr(cli, name, wrapped)

        spy("train_model", cli.train_model)
        spy("evaluate", cli.evaluate)
        ckpt = tmp_path / "f64.ckpt"
        assert main(
            ["train", "--data", str(tiny_data / "train"), "--val-data", str(tiny_data / "val"),
             "--out", str(ckpt), "--epochs", "1", "--batch-size", "6", "--channels", "4,6,8,8",
             "--precision", "f64"]
        ) == 0
        assert seen == {"train_model": {np.dtype(np.float64)}}
        assert "precision = f64" in Path(str(ckpt) + ".cfg").read_text()
        assert main(["eval", "--data", str(tiny_data / "val"), "--checkpoint", str(ckpt)]) == 0
        assert seen["evaluate"] == {np.dtype(np.float64)}
