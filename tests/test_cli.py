"""Command-line surface: artifacts, determinism, config precedence, exit codes."""

import contextlib
import dataclasses
import importlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cdrm import cli, data, errors, inference, model_io
from cdrm.cli import run
from cdrm.model import TrainConfig


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tiny_toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    data.save_csv(data.gen_toy(n_per_region=12, seed=3), path)
    return path


def train_tiny(capsys, data_path, out_path, *extra):
    args = [
        "train",
        "--data", str(data_path),
        "--out", str(out_path),
        "--epochs", "2",
        "--hidden", "8",
        "--positive-batch", "8",
        "--negative-batch", "4",
        "--langevin-steps", "2",
        "--seed", "1",
        *extra,
    ]
    return run_cli(capsys, *args)


@pytest.fixture
def toy_model(capsys, tmp_path, tiny_toy_csv):
    out = tmp_path / "model.json"
    assert train_tiny(capsys, tiny_toy_csv, out)[0] == 0
    return out


@pytest.fixture
def room_csv(capsys, tmp_path):
    room = tmp_path / "room.csv"
    assert run_cli(capsys, "gen", "room", "--out", str(room), "--steps", "30")[0] == 0
    return room


@pytest.fixture
def room_model(capsys, tmp_path, room_csv):
    out = tmp_path / "room_model.json"
    code, _, _ = run_cli(
        capsys, "train", "--data", str(room_csv), "--out", str(out),
        "--epochs", "1", "--hidden", "8", "--positive-batch", "16",
        "--negative-batch", "4", "--langevin-steps", "1",
    )
    assert code == 0
    return out


class TestGen:
    def test_toy_writes_csv_and_meta(self, capsys, tmp_path):
        out = tmp_path / "toy.csv"
        code, stdout, _ = run_cli(
            capsys, "gen", "toy", "--out", str(out), "--n-per-region", "7", "--seed", "4"
        )
        assert code == 0
        assert "14 tuples" in stdout
        loaded = data.load_csv(out)
        assert loaded == data.gen_toy(n_per_region=7, seed=4)
        meta = json.loads((tmp_path / "toy.csv.meta.json").read_text())
        assert meta["n_per_region"] == 7
        assert meta["seed"] == 4

    def test_toy_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "gen", "toy", "--out", str(a), "--n-per-region", "9")
        run_cli(capsys, "gen", "toy", "--out", str(b), "--n-per-region", "9")
        assert a.read_bytes() == b.read_bytes()

    def test_room_writes_walk(self, capsys, tmp_path):
        out = tmp_path / "room.csv"
        code, _, _ = run_cli(capsys, "gen", "room", "--out", str(out), "--steps", "40")
        assert code == 0
        loaded = data.load_csv(out)
        assert len(loaded) == 40
        assert loaded.dims == (2, 0, 1)

    def test_region_from_config_file_is_recorded_as_its_flag_text(self, capsys, tmp_path):
        # the same region as a JSON list or as flag text gives byte-equal files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noisy_region": [0, 0, 0.2, 0.2]}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out, region in ((a, ["--config", str(cfg)]), (b, ["--noisy-region", "0,0,0.2,0.2"])):
            assert run_cli(capsys, "gen", "room", "--out", str(out), "--steps", "5", *region)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        meta_a = (tmp_path / "a.csv.meta.json").read_bytes()
        assert meta_a == (tmp_path / "b.csv.meta.json").read_bytes()
        assert json.loads(meta_a)["noisy_region"] == "0,0,0.2,0.2"

    def test_missing_out_is_usage_error(self, capsys):
        code, _, stderr = run_cli(capsys, "gen", "toy")
        assert code == 2
        assert "--out" in stderr

    @pytest.mark.parametrize(
        "generator,flag,value",
        [
            ("toy", "--sigma-eta", "nan"),
            ("toy", "--sigma-eta", "inf"),
            ("room", "--noise-std", "nan"),
            ("room", "--noise-std", "inf"),
            ("room", "--noise-mean", "nan"),
            ("room", "--noise-mean", "-inf"),
            ("room", "--walk-step", "nan"),
            ("room", "--walk-step", "inf"),
        ],
    )
    def test_non_finite_parameter_is_usage_error(self, capsys, tmp_path, generator, flag, value):
        out = tmp_path / "out.csv"
        extra = ["--steps", "20"] if generator == "room" else []
        code, stdout, stderr = run_cli(
            capsys, "gen", generator, "--out", str(out), *extra, f"{flag}={value}"
        )
        assert code == 2
        assert stdout == ""
        assert flag in stderr
        assert not out.exists()


class TestConfigPrecedence:
    def test_config_file_overrides_default(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_per_region": 5}))
        out = tmp_path / "toy.csv"
        code, stdout, _ = run_cli(
            capsys, "gen", "toy", "--out", str(out), "--config", str(cfg)
        )
        assert code == 0
        assert "10 tuples" in stdout

    def test_flag_overrides_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_per_region": 5}))
        out = tmp_path / "toy.csv"
        _, stdout, _ = run_cli(
            capsys, "gen", "toy", "--out", str(out),
            "--config", str(cfg), "--n-per-region", "3",
        )
        assert "6 tuples" in stdout

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_knob": 1}))
        code, _, stderr = run_cli(capsys, "gen", "toy", "--out", "x.csv", "--config", str(cfg))
        assert code == 2
        assert "not_a_knob" in stderr

    def test_malformed_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        code, _, _ = run_cli(capsys, "gen", "toy", "--out", "x.csv", "--config", str(cfg))
        assert code == 2

    def test_non_object_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, _ = run_cli(capsys, "gen", "toy", "--out", "x.csv", "--config", str(cfg))
        assert code == 2


class TestTrain:
    def test_writes_model_and_loss_trace(self, capsys, tmp_path, tiny_toy_csv):
        out = tmp_path / "model.json"
        code, stdout, _ = train_tiny(capsys, tiny_toy_csv, out)
        assert code == 0
        assert "2 epochs" in stdout
        m = model_io.load_model(out)
        assert m.dims == (1, 0, 1)
        assert m.net.layer_dims == [2, 8, 1]
        assert m.kde_stats is not None
        assert m.provenance["epochs"] == 2
        loss_lines = (tmp_path / "model.json.loss.csv").read_text().strip().splitlines()
        assert loss_lines[0] == "epoch,loss"
        assert len(loss_lines) == 3

    def test_training_artifacts_byte_identical_across_runs(self, capsys, tmp_path, tiny_toy_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        train_tiny(capsys, tiny_toy_csv, a)
        train_tiny(capsys, tiny_toy_csv, b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json.loss.csv").read_bytes() == (tmp_path / "b.json.loss.csv").read_bytes()

    def test_negative_chain_without_steps_is_accepted(self, capsys, tmp_path, tiny_toy_csv):
        code, stdout, _ = train_tiny(capsys, tiny_toy_csv, tmp_path / "m.json", "--langevin-steps", "0")
        assert code == 0
        assert "2 epochs" in stdout

    def test_empty_dataset_is_usage_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        ds = data.TransitionDataset(np.empty((0, 2)), (1, 0, 1), np.tile([0.0, 1.0], (2, 1)))
        data.save_csv(ds, empty)
        code, _, stderr = run_cli(
            capsys, "train", "--data", str(empty), "--out", str(tmp_path / "m.json")
        )
        assert code == 2
        assert "empty" in stderr

    def test_coincident_inputs_refused_before_training(self, capsys, tmp_path, monkeypatch):
        # The density fit refuses the set, and it runs before the first update.
        path, out = tmp_path / "same.csv", tmp_path / "m.json"
        tuples = np.column_stack([np.full(400, 0.3), np.linspace(-0.9, 0.9, 400)])
        data.save_csv(data.TransitionDataset(tuples, (1, 0, 1), np.tile([-1.0, 1.0], (2, 1))), path)
        monkeypatch.setattr("cdrm.model.train", mock.Mock(side_effect=AssertionError("trained")))
        code, stdout, stderr = run_cli(
            capsys, "train", "--data", str(path), "--out", str(out), "--epochs", "200"
        )
        assert (code, stdout) == (1, "")
        assert stderr == "error: all subsampled points coincide; bandwidth undefined\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_bound_of_infinite_width_refused_before_training(self, capsys, tmp_path, monkeypatch):
        # both ends are finite, but no chain can draw uniformly over the box
        path, out = tmp_path / "wide.csv", tmp_path / "m.json"
        path.write_text("# dims=1,0,1\n# bounds=0.0:1.0,-1e308:1e308\n0.1,0.2\n0.3,0.4\n")
        monkeypatch.setattr("cdrm.model.train", mock.Mock(side_effect=AssertionError("trained")))
        code, stdout, stderr = run_cli(capsys, "train", "--data", str(path), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert "finite width" in stderr
        assert list(tmp_path.iterdir()) == [path]

    def test_default_config_provenance(self, capsys, tmp_path, tiny_toy_csv):
        out = tmp_path / "m.json"
        code, _, _ = run_cli(
            capsys, "train", "--data", str(tiny_toy_csv), "--out", str(out),
            "--epochs", "1", "--hidden", "8",
        )
        assert code == 0
        assert model_io.load_model(out).provenance == model_io.provenance_for(TrainConfig(epochs=1))

    def test_unparseable_flag_is_usage_error(self, capsys, tmp_path, tiny_toy_csv):
        code, _, _ = train_tiny(capsys, tiny_toy_csv, tmp_path / "m.json", "--epochs", "two")
        assert code == 2

    def test_non_finite_csv_value_is_usage_error(self, capsys, tmp_path, tiny_toy_csv):
        bad = tmp_path / "nan.csv"
        lines = tiny_toy_csv.read_text().splitlines()
        lines[4] = lines[4].split(",")[0] + ",nan"
        bad.write_text("\n".join(lines) + "\n")
        code, _, stderr = train_tiny(capsys, bad, tmp_path / "m.json")
        assert code == 2
        assert "line 5" in stderr
        assert not (tmp_path / "m.json").exists()

    def test_missing_data_file_is_runtime_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")
        )
        assert code == 1


class TestInfer:
    def test_defaults_match_library(self, capsys, toy_model):
        code, stdout, _ = run_cli(capsys, "infer", "--model", str(toy_model), "--query", "-0.7")
        assert code == 0
        result = inference.infer(model_io.load_model(toy_model), np.array([-0.7]), np.empty(0))
        assert json.loads(stdout) == {
            "prediction": None if result.prediction is None else list(result.prediction),
            "eu": result.eu,
            "au": result.au,
            "valid_count": result.valid_count,
        }

    def test_prints_result_json(self, capsys, toy_model):
        code, stdout, _ = run_cli(
            capsys, "infer",
            "--model", str(toy_model), "--query", "-0.7",
            "--samples", "16", "--steps", "3", "--alpha", "0.1",
        )
        assert code == 0
        out = json.loads(stdout)
        assert set(out) == {"prediction", "eu", "au", "valid_count"}
        assert isinstance(out["valid_count"], int)

    def test_deterministic_output(self, capsys, toy_model):
        args = (
            "infer", "--model", str(toy_model), "--query", "-0.7",
            "--samples", "16", "--steps", "3", "--seed", "9",
        )
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_wrong_query_width_is_usage_error(self, capsys, toy_model):
        code, _, _ = run_cli(
            capsys, "infer", "--model", str(toy_model), "--query", "0.1,0.2",
            "--samples", "16", "--steps", "3",
        )
        assert code == 2

    @pytest.mark.parametrize("alpha", ["2", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_is_usage_error(self, capsys, toy_model, alpha):
        code, stdout, stderr = run_cli(
            capsys, "infer", "--model", str(toy_model), "--query", "-0.7",
            "--samples", "16", "--steps", "3", "--alpha", alpha,
        )
        assert code == 2
        assert stdout == ""
        assert "alpha" in stderr

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.1", "1e-300"])
    def test_bad_dedup_tol_is_usage_error(self, capsys, toy_model, tol):
        # 1e-300 is finite but puts every sample's dedup cell beyond int64
        code, stdout, stderr = run_cli(
            capsys, "infer", "--model", str(toy_model), "--query", "-0.7",
            "--samples", "16", "--steps", "3", "--alpha", "0.1", "--dedup-tol", tol,
        )
        assert code == 2
        assert stdout == ""
        assert "dedup" in stderr

    @pytest.mark.parametrize("query", ["5.0", "-1.001", "1.0000000000000002"])
    def test_query_outside_input_bounds_is_usage_error(self, capsys, toy_model, query):
        code, stdout, stderr = run_cli(
            capsys, "infer", "--model", str(toy_model), "--query", query,
            "--samples", "16", "--steps", "3",
        )
        assert code == 2
        assert stdout == ""
        assert "outside" in stderr

    @pytest.mark.parametrize(
        "row, words",
        [
            # a NaN low bound once let any query through the bounds check
            ([float("nan"), 1.0], "input_bounds must be finite"),
            # finite ends, but the self-check draw over it once raised OverflowError
            ([-1e308, 1e308], "input_bounds must have a finite width"),
        ],
        ids=["nan-low", "infinite-width"],
    )
    def test_model_with_non_finite_bound_is_usage_error(
        self, capsys, tmp_path, toy_model, row, words
    ):
        doc = json.loads(toy_model.read_text())
        doc["input_bounds"][0] = row
        bad = tmp_path / "bad_bound.json"
        bad.write_text(json.dumps(doc))
        code, stdout, stderr = run_cli(
            capsys, "infer", "--model", str(bad), "--query", "-50", "--samples", "16", "--steps", "3"
        )
        assert code == 2
        assert stdout == ""
        assert words in stderr

    def test_model_with_another_clamp_is_usage_error(self, capsys, tmp_path, toy_model):
        edited = tmp_path / "edited.json"
        edited.write_text(toy_model.read_text().replace('"logit_clip": 13.8', '"logit_clip": 12.8'))
        code, stdout, stderr = run_cli(capsys, "infer", "--model", str(edited), "--query", "-0.7")
        assert (code, stdout) == (2, "")
        assert "logit_clip" in stderr

    def test_missing_model_file_is_runtime_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "infer", "--model", str(tmp_path / "nope.json"), "--query", "0.1"
        )
        assert code == 1


class TestOracle:
    def test_agreement_report(self, capsys, tmp_path, tiny_toy_csv, toy_model):
        out_csv = tmp_path / "oracle.csv"
        code, stdout, _ = run_cli(
            capsys, "oracle",
            "--model", str(toy_model), "--data", str(tiny_toy_csv),
            "--bins", "10", "--grid-probes", "6",
            "--samples", "16", "--steps", "3", "--out", str(out_csv),
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["probes"] == 6
        assert 0.0 <= report["agreement_rate"] <= 1.0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "x,cdrm_nonempty,bin_nonempty,agree"
        assert len(lines) == 7

    def test_requires_one_dimensional_stateless_model(self, capsys, room_csv, room_model):
        code, _, stderr = run_cli(
            capsys, "oracle", "--model", str(room_model), "--data", str(room_csv), "--bins", "4"
        )
        assert code == 2
        assert "1-D" in stderr


class TestEval:
    def eval_room(self, capsys, model, out, *extra):
        return run_cli(
            capsys, "eval", "--model", str(model), "--out", str(out),
            "--grid", "5", "--samples", "16", "--steps", "3", *extra,
        )

    def test_writes_metrics_and_probe_grid(self, capsys, tmp_path, room_model):
        out = tmp_path / "eval.csv"
        code, stdout, _ = self.eval_room(capsys, room_model, out)
        assert code == 0
        row = json.loads(stdout)
        assert set(row) == {"au_auroc", "au_auprc", "eu_auroc", "eu_auprc"}
        assert all(0.0 <= v <= 1.0 for v in row.values())
        header = out.read_text().splitlines()[0]
        assert header == "au_auroc,au_auprc,eu_auroc,eu_auprc"
        probe_lines = (tmp_path / "eval.csv.probes.csv").read_text().strip().splitlines()
        assert probe_lines[0] == "x,y,label,au_score,eu_score,valid_count"
        assert len(probe_lines) == 5 * 5 + 1

    def test_deterministic_bytes(self, capsys, tmp_path, room_model):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _, out_a, _ = self.eval_room(capsys, room_model, a)
        _, out_b, _ = self.eval_room(capsys, room_model, b)
        assert out_a == out_b
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.probes.csv").read_bytes() == (tmp_path / "b.csv.probes.csv").read_bytes()

    def test_custom_regions_reach_gen_room_and_eval(self, capsys, tmp_path, room_model):
        regions = ["--noisy-region", "0,0,0.20,0.2", "--hidden-region", "0.6,0.6,1,1"]
        walk = tmp_path / "walk.csv"
        code, _, _ = run_cli(capsys, "gen", "room", "--out", str(walk), "--steps", "300", *regions)
        assert code == 0
        meta = json.loads((tmp_path / "walk.csv.meta.json").read_text())
        assert (meta["noisy_region"], meta["hidden_region"]) == ("0,0,0.20,0.2", "0.6,0.6,1,1")
        xy = data.load_csv(walk).tuples[:, :2]
        assert not np.any(np.all((xy >= 0.6) & (xy <= 1.0), axis=1))

        assert self.eval_room(capsys, room_model, tmp_path / "eval.csv", *regions)[0] == 0
        probe_lines = (tmp_path / "eval.csv.probes.csv").read_text().splitlines()[1:]
        probes = [line.split(",") for line in probe_lines]
        layout = data.RoomLayout(
            noisy_region=data.Rect(0.0, 0.0, 0.2, 0.2), hidden_region=data.Rect(0.6, 0.6, 1.0, 1.0)
        )
        expected = [
            data.label_probe(layout, np.array([float(x), float(y)])).value for x, y, *_ in probes
        ]
        assert [label for _, _, label, *_ in probes] == expected
        # the default noisy region holds four 5x5 probes; this one holds one
        assert (expected.count("au_positive"), expected.count("eu_positive")) == (1, 4)

    def test_toy_model_is_usage_error(self, capsys, tmp_path, toy_model):
        code, stdout, stderr = self.eval_room(capsys, toy_model, tmp_path / "eval.csv")
        assert code == 2
        assert stdout == ""
        assert "(2, 0, 1)" in stderr
        assert not (tmp_path / "eval.csv").exists()


class TestBench:
    def test_writes_grid_of_rows(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            capsys, "bench", "--out", str(out),
            "--b-values", "4,8", "--l-values", "2,4",
            "--reps", "1", "--bin-queries", "8",
            "--samples", "8", "--dataset-size", "64",
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:4] == ["b", "d_s", "d_a", "L"]
        assert len(lines) == 5


@pytest.mark.parametrize(
    "command, flag",
    [
        ("oracle", "--grid-probes"),
        ("bench", "--bin-queries"),
        ("bench", "--reps"),
        ("bench", "--l-values"),
    ],
)
def test_count_below_one_is_usage_error(capsys, tmp_path, tiny_toy_csv, toy_model, command, flag):
    if command == "oracle":
        args = ["oracle", "--model", str(toy_model), "--data", str(tiny_toy_csv), "--bins", "10"]
    else:
        args = ["bench", "--out", str(tmp_path / "bench.csv"), "--b-values", "4",
                "--l-values", "2", "--samples", "8", "--dataset-size", "64"]
    code, stdout, stderr = run_cli(capsys, *args, flag, "0")
    assert code == 2
    assert stdout == ""
    assert flag in stderr


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["infer", "--query", "-0.7", "--samples"], "--samples"),
        (["gen", "room", "--out", "r.csv", "--steps"], "--steps"),
        (["gen", "toy", "--out", "t.csv", "--n-per-region"], "--n-per-region"),
        (["oracle", "--data", "t.csv", "--bins"], "--bins"),
    ],
    ids=["infer", "gen-room", "gen-toy", "oracle"],
)
def test_count_beyond_the_index_range_is_usage_error(capsys, tmp_path, monkeypatch, argv, flag):
    # numpy cannot size an array past intp, so such a count is refused at parse time
    monkeypatch.chdir(tmp_path)
    model = ["--model", "m.json"] if argv[0] in ("infer", "oracle") else []
    for count in (2**63, 2**64):
        code, stdout, stderr = run_cli(capsys, *argv, str(count), *model)
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: {flag}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["train", "--data", "t.csv", "--out", "m.json", "--epochs"], "--epochs"),
        (["bench", "--out", "b.csv", "--reps"], "--reps"),
        (["bench", "--out", "b.csv", "--bin-queries"], "--bin-queries"),
    ],
    ids=["epochs", "reps", "bin-queries"],
)
def test_loop_count_beyond_its_bound_is_usage_error(capsys, tmp_path, monkeypatch, argv, flag):
    # a count that only bounds a loop sizes no array, so it has a bound of
    # its own; past it the command would run for ever instead of failing
    monkeypatch.chdir(tmp_path)
    parse = cli._COMMANDS[argv[0]].knobs[flag[2:].replace("-", "_")][1]
    assert parse(str(cli._LOOP_MAX)) == cli._LOOP_MAX
    for count in (cli._LOOP_MAX + 1, 2**60):
        code, stdout, stderr = run_cli(capsys, *argv, str(count))
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: {flag}: expected an integer >= ")
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_is_a_runtime_error(capsys, toy_model):
    # 2**40 chains of 51 steps need 816 TiB, past the user address space,
    # so the first allocation fails before any memory is touched
    code, stdout, stderr = run_cli(
        capsys, "infer", "--model", str(toy_model), "--query", "-0.7", "--samples", str(2**40)
    )
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: ")


def test_count_too_big_to_size_an_array_is_a_runtime_error(capsys, toy_model):
    # 2**60 chains overflow numpy's byte-size computation, which raises a
    # ValueError of its own instead of MemoryError
    code, stdout, stderr = run_cli(
        capsys, "infer", "--model", str(toy_model), "--query", "-0.7", "--samples", str(2**60)
    )
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: cannot allocate: array is too big")


@pytest.mark.parametrize("command", ["infer", "eval", "oracle"])
def test_chain_knob_defaults_are_the_default_chain(command):
    knobs = cli._COMMANDS[command].knobs
    defaults = tuple(knobs[k][0] for k in ("samples", "steps", "step_size", "noise"))
    assert defaults == dataclasses.astuple(inference.DEFAULT_CHAIN)
    assert cli._chain_config({k: knobs[k][0] for k in knobs}) == inference.DEFAULT_CHAIN


@pytest.mark.parametrize("command", ["infer", "eval", "oracle"])
def test_chain_without_steps_is_usage_error(capsys, tmp_path, tiny_toy_csv, request, command):
    # training chains may have no step; an inference chain needs one
    model_fixture = "room_model" if command == "eval" else "toy_model"
    model = str(request.getfixturevalue(model_fixture))
    inputs = {
        "infer": ["--model", model, "--query", "-0.7"],
        "eval": ["--model", model, "--out", str(tmp_path / "e.csv"), "--grid", "3"],
        "oracle": ["--model", model, "--data", str(tiny_toy_csv), "--grid-probes", "3"],
    }[command]
    code, stdout, stderr = run_cli(capsys, command, *inputs, "--samples", "8", "--steps", "0")
    assert (code, stdout) == (2, "")
    assert "--steps" in stderr
    assert not (tmp_path / "e.csv").exists()


BAD_VALUES = ["-1", "0", "1.5", "nan", "inf", "x", ""]


@pytest.mark.parametrize(
    "command, key",
    [
        (command, key)
        for command, entry in cli._COMMANDS.items()
        for key, (_, parse) in entry.knobs.items()
        if parse is not cli._switch  # a switch flag takes no value; argparse refuses one
    ],
)
def test_knob_rejects_values_its_parse_refuses(capsys, tmp_path, monkeypatch, command, key):
    # Every value the knob's own parse refuses is a usage error naming the
    # flag, raised before any file is read or written.
    monkeypatch.chdir(tmp_path)
    knobs = cli._COMMANDS[command].knobs
    required = [f"--{k.replace('_', '-')}=5" for k, (d, _) in knobs.items() if d is cli._REQUIRED]
    flag = f"--{key.replace('_', '-')}"
    parse = knobs[key][1]
    for value in BAD_VALUES:
        try:
            parse(value)
            continue
        except ValueError:
            pass
        code, stdout, stderr = run_cli(capsys, *command.split(), *required, f"{flag}={value}")
        assert (code, stdout) == (2, ""), value
        assert stderr.startswith(f"error: {flag}: "), value
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "values, flag",
    [
        ({"n_per_region": 5.9}, "--n-per-region"),
        ({"seed": 2.7}, "--seed"),
        ({"seed": True}, "--seed"),
        ({"multimodal": "false"}, "--multimodal"),
        ({"sigma_eta": "nan"}, "--sigma-eta"),
        ({"out": 5}, "--out"),
    ],
)
def test_config_value_of_wrong_type_is_usage_error(capsys, tmp_path, values, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "toy.csv"), **values}))
    code, stdout, stderr = run_cli(capsys, "gen", "toy", "--config", str(cfg))
    assert (code, stdout) == (2, "")
    assert flag in stderr
    assert not (tmp_path / "toy.csv").exists()


def test_config_null_keeps_default_and_integral_number_is_an_integer(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_per_region": None, "seed": 4.0, "multimodal": False}))
    out = tmp_path / "toy.csv"
    code, stdout, _ = run_cli(capsys, "gen", "toy", "--out", str(out), "--config", str(cfg))
    assert code == 0
    assert "400 tuples" in stdout
    assert data.load_csv(out) == data.gen_toy(seed=4)


def test_non_integral_flag_names_the_flag(capsys, tmp_path):
    out = tmp_path / "r.csv"
    code, _, stderr = run_cli(capsys, "gen", "room", "--out", str(out), "--steps", "2.5")
    assert code == 2
    assert "--steps" in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["infer", "--query", "-0.7", "--noise", "nan"],
        ["infer", "--query", "-0.7", "--noise", "inf"],
        ["infer", "--query", "-0.7", "--step-size", "inf"],
        ["oracle", "--grid-probes", "3", "--noise", "nan"],
        ["eval", "--grid", "3", "--step-size", "inf"],
        ["train", "--langevin-noise", "nan"],
        ["train", "--langevin-step-size", "inf"],
        ["train", "--learning-rate", "inf"],
        ["train", "--bandwidth", "inf"],
    ],
    ids=lambda argv: " ".join([argv[0], *argv[-2:]]),
)
def test_non_finite_chain_and_training_knob_is_usage_error(
    capsys, tmp_path, tiny_toy_csv, toy_model, room_model, argv
):
    command, *rest = argv
    inputs = {
        "infer": ["--model", str(toy_model), "--samples", "8", "--steps", "2"],
        "oracle": ["--model", str(toy_model), "--data", str(tiny_toy_csv), "--samples", "8"],
        "eval": ["--model", str(room_model), "--out", str(tmp_path / "e.csv"), "--samples", "8"],
        "train": ["--data", str(tiny_toy_csv), "--out", str(tmp_path / "m.json"), "--epochs", "1"],
    }[command]
    code, stdout, stderr = run_cli(capsys, command, *inputs, *rest)
    assert (code, stdout) == (2, "")
    assert rest[-2] in stderr
    assert not (tmp_path / "e.csv").exists() and not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--out", "m.json", "--data"],
        ["infer", "--query", "0.1", "--model"],
        ["gen", "toy", "--out", "t.csv", "--config"],
    ],
    ids=["dataset", "model", "config"],
)
def test_file_that_is_not_text_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "binary").write_bytes(b"\xff\xfe\x00\x81 not utf-8")
    code, stdout, _ = run_cli(capsys, *argv, "binary")
    assert (code, stdout) == (2, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["binary"]


def test_plain_value_error_in_a_handler_is_not_a_usage_error(capsys, tmp_path, monkeypatch):
    def broken(**_):
        raise ValueError("library bug")

    monkeypatch.setattr(cli.data, "gen_toy", broken)
    with pytest.raises(ValueError, match="library bug"):
        run(["gen", "toy", "--out", str(tmp_path / "toy.csv")])


def test_console_script_resolves_to_run(capsys):
    # the `cdrm` command that installing the package creates must call run
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["cdrm"]
    module_name, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    assert entry is cli.run
    with pytest.raises(SystemExit) as exc_info:
        entry(["--help"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cdrm")


# Hostile values for one knob: (flag text, config-file JSON text). The file
# names resolve in each run's own directory, where "missing" does not
# exist, "dir" is a directory and "binary" holds bytes that are not UTF-8.
HOSTILE = [
    ("", '""'),
    ("nan", "NaN"),
    ("inf", "Infinity"),
    ("-inf", "-Infinity"),
    ("1e400", "1e400"),
    ("0", "0"),
    ("-1", "-1"),
    (str(2**64), str(2**64)),
    (str(2**60), str(2**60)),
    ("x", '"x"'),
    ("missing", '"missing"'),
    ("dir", '"dir"'),
    ("binary", '"binary"'),
]
PATH_KNOBS = {"out", "data", "model", "loss_out", "probes_out"}
SWITCH_KNOBS = {"multimodal"}
LIST_KNOBS = {"hidden", "b_values", "l_values", "query"}  # "" is an empty list
COUNT_KNOBS = {
    "n_per_region", "steps", "epochs", "hidden", "positive_batch", "negative_batch",
    "langevin_steps", "samples", "grid", "bins", "grid_probes", "b_values", "l_values",
    "reps", "bin_queries", "dataset_size",
}


def refused(knob: str, value: tuple[str, str], as_config: bool) -> bool:
    """Whether the value must be a usage error naming the flag, by the
    knob's kind alone: a switch takes no value, a path is any string, and
    every other knob is numeric, refusing text that is not a finite number
    and, for a count, a negative number or one beyond the index range (for
    a count that only bounds a loop, one beyond cli's loop bound); a
    seed refuses a number outside [0, 2**64)."""
    text, json_text = value
    if knob in SWITCH_KNOBS:
        return True
    if knob in PATH_KNOBS:
        return as_config and not json_text.startswith('"')
    if text == "":
        return knob not in LIST_KNOBS
    if text in ("-1", str(2**64)):
        return knob in COUNT_KNOBS or knob == "seed"
    if text == str(2**60):
        return knob in ("epochs", "reps", "bin_queries")
    return text != "0"


@contextlib.contextmanager
def in_directory(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def test_hostile_tables_name_real_knobs():
    knobs = {key for entry in cli._COMMANDS.values() for key in entry.knobs}
    assert PATH_KNOBS | SWITCH_KNOBS | LIST_KNOBS | COUNT_KNOBS <= knobs


@pytest.fixture(scope="module")
def cheap_inputs(tmp_path_factory):
    """A tiny toy dataset, and a toy and a room model trained for one epoch."""
    root = tmp_path_factory.mktemp("hostile")
    toy, room = str(root / "toy.csv"), str(root / "room.csv")
    data.save_csv(data.gen_toy(n_per_region=6, seed=3), toy)
    data.save_csv(data.gen_room(20, seed=3), room)
    models = {}
    for name, dataset in [("toy", toy), ("room", room)]:
        models[name] = str(root / f"{name}.json")
        argv = ["train", "--data", dataset, "--out", models[name], "--epochs", "1", "--hidden", "4",
                "--positive-batch", "8", "--negative-batch", "4", "--langevin-steps", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0
    return toy, models


def cheap_knobs(command: str, toy: str, models: dict) -> dict:
    """Valid values that keep each command to a few milliseconds of work."""
    chain = {"samples": 8, "steps": 2}
    return {
        "gen toy": {"out": "g.csv", "n_per_region": 4},
        "gen room": {"out": "g.csv", "steps": 5},
        "train": {"data": toy, "out": "m.json", "epochs": 1, "hidden": 4, "positive_batch": 8,
                  "negative_batch": 4, "langevin_steps": 1},
        "infer": {"model": models["toy"], "query": -0.7, **chain},
        "eval": {"model": models["room"], "out": "e.csv", "grid": 2, **chain},
        "oracle": {"model": models["toy"], "data": toy, "grid_probes": 2, "bins": 4, **chain},
        "bench": {"out": "b.csv", "b_values": 2, "l_values": 2, "reps": 1, "bin_queries": 1,
                  "samples": 8, "dataset_size": 8},
    }[command]


KNOB_CASES = [(command, knob) for command, entry in cli._COMMANDS.items() for knob in entry.knobs]


# Twice the number of distinct cases: Hypothesis stops once it has tried them all.
@settings(max_examples=2 * len(KNOB_CASES) * len(HOSTILE) * 2, deadline=None)
@given(st.sampled_from(KNOB_CASES), st.sampled_from(HOSTILE), st.booleans())
def test_hostile_knob_values_end_in_an_exit_code(cheap_inputs, case, value, as_config):
    # Any value of any knob ends in exit 0, 1 or 2, never in a traceback;
    # exit 1 comes only from a runtime failure, and a value of the wrong
    # kind is refused before the handler runs, naming its flag.
    command, knob = case
    text, json_text = value
    flag = cli._flag(knob)
    must_refuse = refused(knob, value, as_config)
    others = cheap_knobs(command, *cheap_inputs)
    argv = command.split() + [f"{cli._flag(k)}={v}" for k, v in others.items() if k != knob]
    argv += ["--config", "cfg.json"] if as_config else [f"{flag}={text}"]
    raised, entry = [], cli._COMMANDS[command]

    def handler(cfg):
        assert not must_refuse, f"{flag} value {text!r} reached the handler"
        try:
            return entry.handler(cfg)
        except BaseException as exc:
            raised.append(exc)
            raise

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir, in_directory(workdir):
        Path("dir").mkdir()
        Path("binary").write_bytes(b"\xff\xfe\x00\x81 not utf-8")
        Path("cfg.json").write_text(f'{{"{knob}": {json_text}}}')
        with mock.patch.dict(cli._COMMANDS, {command: entry._replace(handler=handler)}):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = run(argv)
                except SystemExit as exc:  # argparse refuses a value given to a switch
                    code = exc.code
    assert code in (0, 1, 2), err.getvalue()
    if must_refuse:
        assert (code, out.getvalue()) == (2, ""), err.getvalue()
        assert flag in err.getvalue()
    if code == 1:
        exc = raised[-1]
        assert isinstance(exc, (errors.RuntimeFailure, OSError, MemoryError)) or (
            isinstance(exc, ValueError) and str(exc).startswith(cli._ARRAY_TOO_BIG)
        ), raised
        assert err.getvalue().startswith("error: ")


# Every exception class of cdrm.errors, found by walking the module, so a new
# type is covered here without editing this test.
ERROR_TYPES = [
    kind
    for kind in vars(errors).values()
    if isinstance(kind, type) and issubclass(kind, Exception) and kind.__module__ == errors.__name__
]
EXIT_CODES = {errors.UsageError: 2, errors.RuntimeFailure: 1}


def test_error_types_found():
    assert {errors.EmptyValidSetError, *EXIT_CODES} <= set(ERROR_TYPES)


@pytest.mark.parametrize("kind", ERROR_TYPES, ids=lambda kind: kind.__name__)
def test_each_error_type_exits_with_its_base_code(capsys, kind):
    bases = [base for base in EXIT_CODES if issubclass(kind, base)]
    assert len(bases) == 1, f"{kind.__name__} derives from {bases}"

    def handler(cfg):
        raise kind("handler failed")

    gen_toy = cli._COMMANDS["gen toy"]._replace(handler=handler)
    with mock.patch.dict(cli._COMMANDS, {"gen toy": gen_toy}):
        code, stdout, stderr = run_cli(capsys, "gen", "toy", "--out", "unused.csv")
    assert (code, stdout) == (EXIT_CODES[bases[0]], "")
    assert stderr.startswith("error: ")
