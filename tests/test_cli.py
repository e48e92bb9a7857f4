import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from troikit.cli import main
from troikit.synth import load_dataset, save_dataset


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
