"""End-to-end CLI runs: generation, evaluation, benchmark, training, and
the exit-code contract."""

import binascii
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frn import training
from frn.bench import BenchConfig
from frn.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_SAMPLING, _config,
                     build_parser, main)
from frn.data import MAGIC, GenSpec, manifest_path
from frn.training import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    PretrainConfig,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)


def run(argv):
    return main(argv)


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.frnt"
    code = run([
        "gen", "--kind", "gaussian-prototype", "--classes", "6", "--items", "8",
        "--r", "2", "--d", "6", "--sigma", "0.0", "--seed", "3",
        "--out", str(path),
    ])
    assert code == EXIT_OK
    return path


class TestGen:
    def test_writes_container_and_manifest(self, dataset):
        assert dataset.exists()
        assert Path(str(dataset) + ".labels.csv").exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_is_config_error(self, tmp_path, capsys, sigma):
        out = tmp_path / "data.frnt"
        assert run(["gen", "--sigma", sigma, "--out", str(out)]) == EXIT_CONFIG
        assert "noise_sigma" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


#: per command: the config it builds, its required flags, and for each config
#: field the flag tokens that set it and the value they must reach it with
CONFIG_FLAGS = {
    "gen": (GenSpec, ["--out", "x"], {
        "n_classes": (["--classes", "3"], 3),
        "items_per_class": (["--items", "5"], 5),
        "r": (["--r", "2"], 2),
        "d": (["--d", "7"], 7),
        "noise_sigma": (["--sigma", "0.5"], 0.5),
        "kind": (["--kind", "pose-permutation"], "pose-permutation"),
        "seed": (["--seed", "9"], 9),
    }),
    "bench": (BenchConfig, ["--out", "x"], {
        "b": (["--b", "3"], 3),
        "k": (["--shot", "2"], 2),
        "r": (["--r", "5"], 5),
        "d": (["--d", "9"], 9),
        "iterations": (["--iters", "7"], 7),
        "warmup": (["--warmup", "4"], 4),
        "precision": (["--precision", "f64"], "f64"),
        "seed": (["--seed", "9"], 9),
    }),
    "train": (TrainConfig, ["--data", "d", "--out", "x"], {
        "head": (["--head", "ctx"], "ctx"),
        "way": (["--way", "4"], 4),
        "shot": (["--shot", "2"], 2),
        "query": (["--query", "6"], 6),
        "episodes": (["--episodes", "11"], 11),
        "lr": (["--lr", "0.3"], 0.3),
        "val_every": (["--val-every", "7"], 7),
        "val_trials": (["--val-trials", "13"], 13),
        "val_query": (["--val-query", "5"], 5),
        "embed_dim": (["--embed-dim", "8"], 8),
        "learn_alpha": (["--fix-alpha"], False),
        "learn_beta": (["--fix-beta"], False),
        "learn_gamma": (["--fix-gamma"], False),
        "use_aux": (["--no-aux"], False),
        "seed": (["--seed", "9"], 9),
    }),
    "pretrain": (PretrainConfig, ["--data", "d", "--out", "x"], {
        "steps": (["--steps", "17"], 17),
        "batch_size": (["--batch-size", "4"], 4),
        "lr": (["--lr", "0.3"], 0.3),
        "embed_dim": (["--embed-dim", "8"], 8),
        "seed": (["--seed", "9"], 9),
    }),
}

#: config fields no flag sets
FIELDS_WITHOUT_FLAG = {TrainConfig: {"val_way"}}


class TestFlagsReachTheirFields:
    @pytest.mark.parametrize("command", sorted(CONFIG_FLAGS))
    def test_every_flag_reaches_its_field(self, command):
        cls, required, flags = CONFIG_FLAGS[command]
        parser = build_parser()
        defaults = vars(parser.parse_args([command, *required]))
        args = parser.parse_args([command, *required,
                                  *(token for tokens, _ in flags.values() for token in tokens)])
        cfg = _config(cls, args)
        for name, (tokens, value) in flags.items():
            assert value != defaults[name], name  # else a flag that never arrives would pass
            assert getattr(cfg, name) == value, tokens

    @pytest.mark.parametrize("command", sorted(CONFIG_FLAGS))
    def test_every_field_has_a_flag(self, command):
        # the test above parses every flag of the table
        cls, _, flags = CONFIG_FLAGS[command]
        fields = {f.name for f in dataclasses.fields(cls)} - FIELDS_WITHOUT_FLAG.get(cls, set())
        assert set(flags) == fields, sorted(fields ^ set(flags))


class TestEval:
    def test_perfect_on_noiseless_data(self, dataset, tmp_path):
        out = tmp_path / "eval_out"
        code = run([
            "eval", "--head", "frn", "--data", str(dataset), "--way", "5",
            "--shot", "1", "--query", "3", "--trials", "50", "--seed", "0",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "eval.json").read_text())
        assert payload["report"]["accuracy_mean"] == 1.0
        assert payload["config_hash"]
        assert "config_hash" in (out / "eval.txt").read_text()

    def test_byte_identical_reruns(self, dataset, tmp_path):
        args = [
            "eval", "--head", "proto", "--data", str(dataset), "--way", "4",
            "--shot", "1", "--query", "3", "--trials", "20", "--seed", "7",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out1)]) == EXIT_OK
        assert run(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "eval.json").read_bytes() == (out2 / "eval.json").read_bytes()

    def test_f32_precision_runs(self, dataset, tmp_path):
        code = run([
            "eval", "--head", "frn", "--data", str(dataset), "--way", "3",
            "--shot", "1", "--query", "2", "--trials", "10", "--seed", "0",
            "--precision", "f32", "--out", str(tmp_path / "f32"),
        ])
        assert code == EXIT_OK

    def test_missing_data_is_io_error(self, tmp_path):
        code = run([
            "eval", "--head", "frn", "--data", str(tmp_path / "nope.frnt"),
            "--trials", "10", "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_IO

    def test_non_integer_manifest_row_is_io_error(self, dataset, tmp_path):
        lines = manifest_path(dataset).read_text().splitlines()
        manifest_path(dataset).write_text("\n".join([lines[0], "x,0"] + lines[2:]) + "\n")
        code = run([
            "eval", "--head", "frn", "--data", str(dataset), "--trials", "10",
            "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_IO

    def test_overflowing_dims_are_io_error(self, dataset, tmp_path):
        # dims (2^32-1, 2^32-1, 2) wrap around in int64; the CRC is valid
        big = 2**32 - 1
        body = MAGIC + struct.pack("<III", 1, 2, 3) + struct.pack("<III", big, big, 2)
        dataset.write_bytes(body + struct.pack("<I", binascii.crc32(body) & 0xFFFFFFFF))
        code = run([
            "eval", "--head", "frn", "--data", str(dataset), "--trials", "10",
            "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_IO

    @pytest.mark.parametrize("dims", [(3, 0, 4), (3, 2, 0), (0, 2, 4)])
    def test_zero_size_dimension_is_io_error(self, dataset, tmp_path, dims):
        body = MAGIC + struct.pack("<III", 1, 2, 3) + struct.pack("<III", *dims)
        dataset.write_bytes(body + struct.pack("<I", binascii.crc32(body) & 0xFFFFFFFF))
        rows = ["item_index,class_id"] + [f"{i},{i % 2}" for i in range(dims[0])]
        manifest_path(dataset).write_text("\n".join(rows) + "\n")
        code = run([
            "eval", "--head", "frn", "--data", str(dataset), "--trials", "10",
            "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_IO

    def test_infeasible_way_is_sampling_error(self, dataset, tmp_path):
        code = run([
            "eval", "--head", "frn", "--data", str(dataset), "--way", "40",
            "--trials", "10", "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_SAMPLING

    def test_logits_of_the_wrong_shape_are_a_numerical_error(self, dataset, tmp_path, monkeypatch):
        import frn.episodes

        monkeypatch.setattr(frn.episodes, "episode_logits", lambda q, pools, params: np.zeros((1, 3)))
        code = run([
            "eval", "--head", "frn", "--data", str(dataset), "--way", "3", "--shot", "1",
            "--query", "2", "--trials", "4", "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_NUMERICAL

    def test_all_heads_run(self, dataset, tmp_path):
        for head in ("frn", "proto", "dsn", "ctx"):
            code = run([
                "eval", "--head", head, "--data", str(dataset), "--way", "3",
                "--shot", "1", "--query", "2", "--trials", "10", "--seed", "1",
                "--out", str(tmp_path / head),
            ])
            assert code == EXIT_OK, head


class TestToF32:
    @staticmethod
    def _dataset(dtype):
        import numpy as np

        from frn.episodes import Dataset

        rng = np.random.default_rng(0)
        items = rng.standard_normal((24, 2, 6)).astype(dtype)
        return Dataset.from_arrays(items, [i % 4 for i in range(24)])

    @staticmethod
    def _episode(ds):
        from frn.episodes import sample_episode, trial_rng

        return sample_episode(ds, 3, 2, 2, trial_rng(0, 0))

    def test_f32_episode_is_shared_not_copied(self):
        import numpy as np

        from frn.cli import _to_f32

        episode = self._episode(self._dataset(np.float32))
        out = _to_f32(episode)
        assert out is episode  # an all-float32 episode passes through
        for new, old in zip(out.support, episode.support):
            assert np.shares_memory(new.values, old.values)
        for (new, _), (old, _) in zip(out.queries, episode.queries):
            assert np.shares_memory(new.values, old.values)

    def test_f64_episode_becomes_f32(self):
        import numpy as np

        from frn.cli import _to_f32

        episode = self._episode(self._dataset(np.float64))
        out = _to_f32(episode)
        assert {p.values.dtype for p in out.support} == {np.dtype(np.float32)}
        assert {qm.values.dtype for qm, _ in out.queries} == {np.dtype(np.float32)}
        np.testing.assert_array_equal(
            out.support[0].values, episode.support[0].values.astype(np.float32)
        )
        assert [y for _, y in out.queries] == [y for _, y in episode.queries]

    def test_evaluate_leaves_dataset_unchanged(self):
        import numpy as np

        from frn.cli import _to_f32
        from frn.episodes import evaluate, make_head_fn
        from frn.head import HeadParams, choose_formulation

        ds = self._dataset(np.float32)
        maps = [m for cid in sorted(ds.classes) for m in ds.classes[cid]]
        before = [m.values.copy() for m in maps]
        for m in maps:
            m.values.flags.writeable = False  # a head writing into them raises
        heads = [(make_head_fn(kind, HeadParams()), 2) for kind in ("frn", "proto", "dsn", "ctx")]
        # r = 2, d = 6: frn scores 2-shot pools on the direct side, 3-shot ones on woodbury
        assert choose_formulation(2, 2, 6) == "direct" and choose_formulation(3, 2, 6) == "woodbury"
        heads.append((make_head_fn("frn", HeadParams()), 3))
        for inner, shot in heads:
            evaluate(ds, lambda ep, _inner=inner: _inner(_to_f32(ep)), n=3, k=shot, q=2,
                     trials=3, seed=0)
        for m, old in zip(maps, before):
            np.testing.assert_array_equal(m.values, old)


class TestContainerPrecision:
    """An f32 container scores and trains as an f64 one holding the same values."""

    @staticmethod
    def _containers(tmp_path):
        from frn.data import GenSpec, generate, ingest, save_dataset

        ds = generate(GenSpec(6, 8, 2, 6, 0.05, "gaussian-prototype", 3))
        dirs = {}
        for tag in ("f32", "f64"):
            dirs[tag] = tmp_path / tag
            dirs[tag].mkdir()
        save_dataset(dirs["f32"] / "data.frnt", ds, dtype=np.float32)
        rounded = ingest(dirs["f32"] / "data.frnt")
        save_dataset(dirs["f64"] / "data.frnt", rounded, dtype=np.float64)
        return dirs

    def test_eval_in_f64_is_byte_identical(self, tmp_path, monkeypatch):
        outputs = []
        for where in self._containers(tmp_path).values():
            monkeypatch.chdir(where)  # the same --data text in both configs
            code = run([
                "eval", "--head", "frn", "--data", "data.frnt", "--way", "3", "--shot", "2",
                "--query", "3", "--trials", "6", "--precision", "f64", "--seed", "0",
                "--out", "out",
            ])
            assert code == EXIT_OK
            outputs.append((where / "out" / "eval.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_pretrain_then_train_are_byte_identical(self, tmp_path, monkeypatch):
        outputs = []
        for where in self._containers(tmp_path).values():
            monkeypatch.chdir(where)
            assert run(["pretrain", "--data", "data.frnt", "--steps", "3", "--batch-size", "8",
                        "--embed-dim", "4", "--seed", "0", "--out", "pre"]) == EXIT_OK
            assert run(["train", "--head", "frn", "--data", "data.frnt",
                        "--from", "pre/checkpoint.bin", "--way", "3", "--shot", "1",
                        "--query", "2", "--episodes", "3", "--val-every", "3",
                        "--val-trials", "4", "--val-query", "3", "--seed", "0",
                        "--out", "fine"]) == EXIT_OK
            outputs.append([(where / run_dir / name).read_bytes()
                            for run_dir in ("pre", "fine")
                            for name in ("checkpoint.bin", "history.jsonl")])
        assert outputs[0] == outputs[1]


class TestBench:
    def test_small_benchmark(self, tmp_path):
        out = tmp_path / "bench_out"
        code = run([
            "bench", "--b", "2", "--shot", "1", "--r", "4", "--d", "8",
            "--iters", "5", "--warmup", "1", "--seed", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "bench.json").read_text())
        assert payload["direct"]["iterations"] == 5
        assert payload["config_hash"]
        assert payload["seed"] == 0

    def test_bad_shape_is_config_error(self, tmp_path):
        code = run([
            "bench", "--b", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_CONFIG

    BENCH_ARGS = ("bench", "--b", "2", "--r", "2", "--d", "4", "--iters", "2", "--warmup", "0")

    def test_a_command_runs_at_one_blas_thread_and_restores_the_count(self, tmp_path, monkeypatch):
        from frn.linalg import blas_threads, blas_threads_at

        if set(blas_threads()) != {"numpy", "scipy"}:
            pytest.skip("numpy or scipy does not run its wheel's bundled OpenBLAS")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        with blas_threads_at(2):
            before = blas_threads()
            assert run([*self.BENCH_ARGS, "--out", str(tmp_path / "b")]) == EXIT_OK
            assert blas_threads() == before
        threads = json.loads((tmp_path / "b" / "bench.json").read_text())["threads"]
        assert before == {"numpy": 2, "scipy": 2}
        assert threads["openblas"] == {"numpy": 1, "scipy": 1}

    def test_train_and_pretrain_run_at_one_blas_thread(
            self, dataset, tmp_path, monkeypatch):
        # pretrain's woodbury node threads its backward, and OpenBLAS's own
        # threads beside it slowed a d 64 or d 256 pretrain 2.5- to 2.7-fold
        import frn.cli
        from frn.linalg import blas_threads, blas_threads_at

        if set(blas_threads()) != {"numpy", "scipy"}:
            pytest.skip("numpy or scipy does not run its wheel's bundled OpenBLAS")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        seen = {}
        for command, name in (("train", "meta_train"), ("pretrain", "pretrain")):
            def spy(*args, _command=command, _fn=getattr(frn.cli, name), **kwargs):
                seen[_command] = blas_threads()
                return _fn(*args, **kwargs)

            monkeypatch.setattr(frn.cli, name, spy)
        with blas_threads_at(2):
            assert run(["train", "--data", str(dataset), "--way", "3", "--shot", "1",
                        "--query", "2", "--episodes", "2", "--embed-dim", "4",
                        "--val-every", "0", "--out", str(tmp_path / "train")]) == EXIT_OK
            assert run(["pretrain", "--data", str(dataset), "--steps", "2", "--batch-size", "4",
                        "--embed-dim", "4", "--out", str(tmp_path / "pretrain")]) == EXIT_OK
            assert blas_threads() == {"numpy": 2, "scipy": 2}  # restored on return
        assert seen == {"train": {"numpy": 1, "scipy": 1}, "pretrain": {"numpy": 1, "scipy": 1}}

    @pytest.mark.parametrize("blas_threads", [None, "2"])
    def test_bench_records_the_blas_threads_it_ran_with(self, tmp_path, blas_threads):
        # a fresh process: the variable, when set, is read as OpenBLAS loads
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        proc = subprocess.run([sys.executable, "-m", "frn.cli", *self.BENCH_ARGS,
                               "--out", str(tmp_path)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        threads = json.loads((tmp_path / "bench.json").read_text())["threads"]
        assert threads["OPENBLAS_NUM_THREADS"] == blas_threads
        if set(threads["openblas"]) != {"numpy", "scipy"}:
            pytest.skip("numpy or scipy does not run its wheel's bundled OpenBLAS")
        # OpenBLAS caps a requested count at the CPUs it finds
        want = 1 if blas_threads is None else min(2, os.cpu_count())
        assert threads["openblas"] == {"numpy": want, "scipy": want}


class TestTrainAndCheckpoints:
    def test_train_then_eval_from_checkpoint(self, dataset, tmp_path):
        train_out = tmp_path / "train_out"
        code = run([
            "train", "--head", "frn", "--data", str(dataset), "--way", "3",
            "--shot", "1", "--query", "3", "--episodes", "8", "--lr", "0.02",
            "--embed-dim", "4", "--val-every", "4", "--val-trials", "10",
            "--val-query", "3", "--seed", "0", "--out", str(train_out),
        ])
        assert code == EXIT_OK
        ckpt = train_out / "checkpoint.bin"
        assert ckpt.exists()
        history = (train_out / "history.jsonl").read_text().strip().splitlines()
        assert json.loads(history[0])["event"] == "config"
        assert len(history) == 1 + 8
        for line in history[1:]:
            entry = json.loads(line)
            assert entry["ce"] + entry["aux"] == pytest.approx(entry["loss"], rel=1e-12)

        eval_out = tmp_path / "eval_ckpt"
        code = run([
            "eval", "--data", str(dataset), "--from", str(ckpt), "--way", "3",
            "--shot", "1", "--query", "2", "--trials", "10", "--seed", "0",
            "--out", str(eval_out),
        ])
        assert code == EXIT_OK
        payload = json.loads((eval_out / "eval.json").read_text())
        assert payload["report"]["accuracy_mean"] >= 0.9

    def test_eval_from_checkpoint_scores_in_f32(self, dataset, tmp_path, monkeypatch):
        import numpy as np

        import frn.head
        from frn.training import save_checkpoint

        rng = np.random.default_rng(0)
        ckpt = tmp_path / "ckpt.bin"
        save_checkpoint(ckpt, {
            "embed_weight": rng.standard_normal((6, 4)), "embed_bias": np.zeros(4),
            "alpha": np.float64(0.0), "beta": np.float64(0.0), "gamma": np.float64(0.25),
        }, {"train_config": {"head": "frn"}})
        seen = []
        original = frn.head._pass

        # 1-shot pools of r = 2 rows in d = 4 channels score on the direct side
        def spy(q, pools, direct, *args, **kwargs):
            seen.extend((q.dtype, pool.values.dtype) for pool, side in zip(pools, direct) if side)
            return original(q, pools, direct, *args, **kwargs)

        monkeypatch.setattr(frn.head, "_pass", spy)
        code = run([
            "eval", "--data", str(dataset), "--from", str(ckpt), "--way", "3",
            "--shot", "1", "--query", "2", "--trials", "4", "--seed", "0",
            "--precision", "f32", "--out", str(tmp_path / "eval_f32"),
        ])
        assert code == EXIT_OK
        assert seen and set(seen) == {(np.dtype(np.float32), np.dtype(np.float32))}

    def test_fixed_scalars_flagged_through(self, dataset, tmp_path):
        out = tmp_path / "fixed"
        code = run([
            "train", "--head", "frn", "--data", str(dataset), "--way", "3",
            "--shot", "1", "--query", "2", "--episodes", "4", "--embed-dim", "4",
            "--fix-alpha", "--fix-beta", "--val-every", "0",
            "--seed", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        from frn.training import load_checkpoint

        params, meta = load_checkpoint(out / "checkpoint.bin")
        assert float(params["alpha"]) == 0.0
        assert float(params["beta"]) == 0.0
        assert meta["train_config"]["learn_alpha"] is False

    def test_pretrain_then_finetune(self, dataset, tmp_path):
        pre_out = tmp_path / "pre"
        code = run([
            "pretrain", "--data", str(dataset), "--steps", "10",
            "--batch-size", "16", "--embed-dim", "4", "--seed", "0",
            "--out", str(pre_out),
        ])
        assert code == EXIT_OK
        assert (pre_out / "checkpoint.bin").exists()
        assert (pre_out / "pretrain.json").exists()

        fine_out = tmp_path / "fine"
        code = run([
            "train", "--head", "frn", "--data", str(dataset),
            "--from", str(pre_out / "checkpoint.bin"), "--way", "3",
            "--shot", "1", "--query", "2", "--episodes", "4", "--embed-dim", "4",
            "--val-every", "0", "--seed", "0", "--out", str(fine_out),
        ])
        assert code == EXIT_OK

    def test_pretrain_json_gives_the_base_set_accuracy(self, dataset, tmp_path):
        from frn.data import ingest
        from frn.training import pretrain, pretrain_accuracy

        out = tmp_path / "pre"
        assert run(["pretrain", "--data", str(dataset), "--steps", "40", "--batch-size", "16",
                    "--lr", "0.5", "--embed-dim", "6", "--seed", "0", "--out", str(out)]) == EXIT_OK
        accuracy = json.loads((out / "pretrain.json").read_text())["pretrain_accuracy"]
        assert 0.0 <= accuracy <= 1.0
        ds = ingest(dataset, np.float64)
        cfg = PretrainConfig(steps=40, batch_size=16, lr=0.5, embed_dim=6, seed=0)
        assert accuracy == pretrain_accuracy(pretrain(ds, cfg), ds)

    @pytest.mark.parametrize("embed_dim", [[], ["--embed-dim", "5"]])
    def test_ctx_finetunes_from_an_embedding_of_another_width(self, dataset, tmp_path, embed_dim):
        # the ctx projections act on the trained features: the checkpoint's
        # width (4), not --embed-dim or the data's d (6)
        pre_out = tmp_path / "pre"
        assert run(["pretrain", "--data", str(dataset), "--steps", "2", "--batch-size", "8",
                    "--embed-dim", "4", "--seed", "0", "--out", str(pre_out)]) == EXIT_OK
        out = tmp_path / "ctx"
        code = run([
            "train", "--head", "ctx", "--data", str(dataset),
            "--from", str(pre_out / "checkpoint.bin"), "--way", "3", "--shot", "1",
            "--query", "2", "--episodes", "2", "--val-every", "2", "--val-trials", "4", "--val-query", "2",
            "--seed", "0", "--out", str(out), *embed_dim,
        ])
        assert code == EXIT_OK
        params, _ = load_checkpoint(out / "checkpoint.bin")
        assert params["ctx_key"].shape == params["ctx_value"].shape == (4, 4)

    def test_a_checkpoint_naming_a_formulation_scores_as_one_without(
        self, dataset, tmp_path, monkeypatch
    ):
        # checkpoints written while training took a formulation setting keep
        # it in their train_config; eval takes the side from the shapes anyway
        import frn.head

        rng = np.random.default_rng(1)
        tensors = {
            "embed_weight": rng.standard_normal((6, 4)), "embed_bias": np.zeros(4),
            "alpha": np.float64(-0.5), "beta": np.float64(0.1), "gamma": np.float64(0.5),
        }
        train_config = dataclasses.asdict(TrainConfig(embed_dim=4))
        sides, run_pass = [], frn.head._pass

        def counted(q, pools, direct, *args, **kwargs):
            sides.extend("direct" if side else "woodbury" for side in direct)
            return run_pass(q, pools, direct, *args, **kwargs)

        monkeypatch.setattr(frn.head, "_pass", counted)
        reports = []
        for tag, extra in (("old", {"formulation": "woodbury"}), ("new", {})):
            ckpt = tmp_path / f"{tag}.bin"
            save_checkpoint(ckpt, tensors, {"train_config": {**train_config, **extra}})
            sides.clear()
            assert run(["eval", "--data", str(dataset), "--from", str(ckpt), "--way", "3",
                        "--shot", "1", "--query", "2", "--trials", "6", "--seed", "0",
                        "--out", str(tmp_path / tag)]) == EXIT_OK
            # 1-shot pools of r = 2 rows in d = 4 channels: kr < d, the direct side
            assert sides and set(sides) == {"direct"}, tag
            reports.append(json.loads((tmp_path / tag / "eval.json").read_text())["report"])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_the_formulation_flag_is_gone(self, dataset, tmp_path, command):
        with pytest.raises(SystemExit) as info:
            run([command, "--data", str(dataset), "--formulation", "direct",
                 "--out", str(tmp_path / command)])
        assert info.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["train", "pretrain"])
    def test_the_downscale_flag_is_gone(self, dataset, tmp_path, command):
        with pytest.raises(SystemExit) as info:
            run([command, "--data", str(dataset), "--downscale-features",
                 "--out", str(tmp_path / command)])
        assert info.value.code == EXIT_CONFIG

    # (embedding width, the train_config's downscale_features, whether eval loads it)
    @pytest.mark.parametrize("width, recorded, loads", [
        (4, None, True), (4, False, True), (4, True, False), (256, True, True), (256, False, False),
    ])
    def test_a_checkpoint_recording_another_feature_scale_is_io_error(
        self, dataset, tmp_path, capsys, width, recorded, loads
    ):
        # checkpoints written while a setting could override the width's
        # feature scale keep it in their train_config; one that disagrees
        # would score at a scale it was not trained at
        rng = np.random.default_rng(2)
        tensors = {"embed_weight": rng.standard_normal((6, width)), "embed_bias": np.zeros(width)}
        codes, reports = [], []
        for tag, train_config in (("new", {"head": "frn"}),
                                  ("old", {"head": "frn", "downscale_features": recorded})):
            ckpt = tmp_path / f"{tag}.bin"
            save_checkpoint(ckpt, tensors, {"train_config": train_config})
            capsys.readouterr()
            codes.append(run(["eval", "--data", str(dataset), "--from", str(ckpt), "--way", "3",
                              "--query", "2", "--trials", "6", "--seed", "0",
                              "--out", str(tmp_path / tag)]))
            if codes[-1] == EXIT_OK:
                reports.append(json.loads((tmp_path / tag / "eval.json").read_text())["report"])
        if loads:
            assert codes == [EXIT_OK, EXIT_OK] and reports[0] == reports[1]
        else:
            assert codes == [EXIT_OK, EXIT_IO]
            assert "'downscale_features'" in capsys.readouterr().err
            assert not (tmp_path / "old").exists()

    # (embedding width, the train_config's downscale_features, whether train starts from it)
    @pytest.mark.parametrize("width, recorded, loads", [
        (4, None, True), (4, False, True), (4, True, False), (256, False, False),
    ])
    def test_training_from_a_checkpoint_recording_another_feature_scale_is_io_error(
        self, dataset, tmp_path, capsys, width, recorded, loads
    ):
        # fine-tuning such a checkpoint at its width's scale would quietly
        # train it at a scale it was not trained at, as scoring it would
        rng = np.random.default_rng(3)
        tensors = {"embed_weight": rng.standard_normal((6, width)) / math.sqrt(6),
                   "embed_bias": np.zeros(width)}
        ckpt = tmp_path / "old.bin"
        save_checkpoint(ckpt, tensors, {"train_config": {"head": "frn", "downscale_features": recorded}})
        capsys.readouterr()
        code = run(["train", "--data", str(dataset), "--from", str(ckpt), "--way", "3",
                    "--query", "2", "--episodes", "2", "--val-every", "0",
                    "--embed-dim", str(width), "--out", str(tmp_path / "train")])
        if loads:
            assert code == EXIT_OK
        else:
            assert code == EXIT_IO
            assert "'downscale_features'" in capsys.readouterr().err
            assert not (tmp_path / "train").exists()

    def test_train_json_is_strict_json_when_no_validation_ran(self, dataset, tmp_path):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        out = tmp_path / "train"
        assert run(["train", "--data", str(dataset), "--way", "3", "--query", "2",
                    "--episodes", "3", "--embed-dim", "4", "--val-every", "0",
                    "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "train.json").read_text(), parse_constant=reject)
        assert summary["best_val_accuracy"] is None
        for line in (out / "history.jsonl").read_text().splitlines():
            json.loads(line, parse_constant=reject)

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["train", "pretrain"])
    def test_a_non_finite_learning_rate_is_config_error(self, dataset, tmp_path, capsys, command, lr):
        code = run([command, "--data", str(dataset), "--lr", lr, "--embed-dim", "4",
                    "--out", str(tmp_path / command)])
        assert code == EXIT_CONFIG
        assert "learning rate" in capsys.readouterr().err
        assert not (tmp_path / command).exists()

    # a negative rate would run gradient ascent to the end and exit 0
    @pytest.mark.parametrize("command, lr", [("train", "-0.05"), ("pretrain", "-1"),
                                             ("pretrain", "0")])
    def test_a_non_positive_learning_rate_is_config_error(self, dataset, tmp_path, capsys,
                                                          command, lr):
        code = run([command, "--data", str(dataset), *self.SMALL_RUN[command], "--lr", lr,
                    "--out", str(tmp_path / command)])
        assert code == EXIT_CONFIG
        assert "learning rate must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / command).exists()

    #: flags of a run that succeeds; each case below overrides one of them
    SMALL_RUN = {
        "train": ["--way", "3", "--shot", "1", "--query", "2", "--episodes", "2",
                  "--embed-dim", "4", "--val-every", "0", "--val-trials", "2", "--val-query", "2"],
        "pretrain": ["--steps", "2", "--batch-size", "8", "--embed-dim", "4"],
    }

    @pytest.mark.parametrize("command, flags, field", [
        ("train", ["--embed-dim", "0"], "embed_dim"),
        ("pretrain", ["--embed-dim", "0"], "embed_dim"),
        ("train", ["--embed-dim", "-2"], "embed_dim"),
        ("pretrain", ["--embed-dim", "-2"], "embed_dim"),
        ("train", ["--episodes", "-3"], "episodes"),
        ("pretrain", ["--steps", "-1"], "steps"),
        ("pretrain", ["--batch-size", "0"], "batch_size"),
        ("train", ["--val-every", "-1"], "val_every"),
        ("train", ["--val-every", "1", "--val-trials", "1"], "val_trials"),
    ])
    def test_a_count_out_of_range_is_config_error(
        self, dataset, tmp_path, capsys, command, flags, field
    ):
        assert run([command, "--data", str(dataset), *self.SMALL_RUN[command],
                    "--out", str(tmp_path / "ok")]) == EXIT_OK
        capsys.readouterr()
        code = run([command, "--data", str(dataset), *self.SMALL_RUN[command], *flags,
                    "--out", str(tmp_path / command)])
        assert code == EXIT_CONFIG
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / command).exists()

    def test_the_least_counts_are_accepted(self):
        # no steps, and one validation trial where no validation runs
        TrainConfig(episodes=0, val_every=0, val_trials=1, embed_dim=1, val_way=2)
        PretrainConfig(steps=0, batch_size=1, embed_dim=1)

    def test_a_validation_way_below_two_is_config_error(self):
        # an episode needs two ways; unchecked, it failed only after training
        with pytest.raises(ValueError, match="val_way must be >= 2, got 1"):
            TrainConfig(val_way=1)

    def test_validation_data_of_another_width_is_config_error(self, tmp_path, capsys):
        paths = {}
        for d in (16, 12):
            paths[d] = tmp_path / f"d{d}.frnt"
            assert run(["gen", "--classes", "5", "--items", "6", "--r", "2", "--d", str(d),
                        "--out", str(paths[d])]) == EXIT_OK
        capsys.readouterr()
        code = run(["train", "--data", str(paths[16]), "--val-data", str(paths[12]),
                    "--way", "3", "--shot", "1", "--query", "2", "--episodes", "4",
                    "--embed-dim", "4", "--val-every", "2", "--val-trials", "2",
                    "--out", str(tmp_path / "train")])
        assert code == EXIT_CONFIG
        assert "validation data has 12 channels, training data has 16" in capsys.readouterr().err
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("flags, code, message", [
        (["--episodes", "30", "--val-every", "25", "--val-query", "0"], EXIT_CONFIG,
         "val_query must be >= 1 when val_every > 0, got 0"),
        # the fixture's classes hold 8 items each, and it has 6 classes
        (["--episodes", "4", "--val-every", "2", "--val-query", "8"], EXIT_SAMPLING,
         "validation class 0 has 8 items, validation episodes need shot+val_query=9"),
        (["--episodes", "4", "--val-every", "4", "--val-data", "two-classes"], EXIT_SAMPLING,
         "validation data has 2 classes, validation episodes need 3"),
    ])
    def test_validation_that_cannot_run_fails_before_training(
        self, dataset, tmp_path, capsys, monkeypatch, flags, code, message
    ):
        if "two-classes" in flags:
            val = tmp_path / "val.frnt"
            assert run(["gen", "--classes", "2", "--items", "8", "--r", "2", "--d", "6",
                        "--out", str(val)]) == EXIT_OK
            flags = [str(val) if f == "two-classes" else f for f in flags]
        steps = []
        monkeypatch.setattr(training, "sgd_step", lambda *args: steps.append(args))
        assert run(["train", "--data", str(dataset), *self.SMALL_RUN["train"], *flags,
                    "--out", str(tmp_path / "train")]) == code
        assert message in capsys.readouterr().err
        assert steps == [] and not (tmp_path / "train").exists()

    def test_validation_past_the_last_episode_is_not_checked(self, dataset, tmp_path):
        # it never runs, so the items it would need are not required
        assert run(["train", "--data", str(dataset), *self.SMALL_RUN["train"],
                    "--episodes", "2", "--val-every", "3", "--val-query", "8",
                    "--out", str(tmp_path / "train")]) == EXIT_OK

    def test_ctx_training_runs(self, dataset, tmp_path):
        out = tmp_path / "ctx"
        code = run([
            "train", "--head", "ctx", "--data", str(dataset), "--way", "3",
            "--shot", "1", "--query", "2", "--episodes", "3", "--embed-dim", "4",
            "--val-every", "0", "--seed", "0", "--out", str(out),
        ])
        assert code == EXIT_OK


def _f64_tensor(name, shape):
    return {"name": name, "dtype": "f64", "shape": shape}


#: checkpoints with a valid checksum whose structure is broken:
#: (header, payload, declared header length or None for the true one)
BAD_CHECKPOINTS = {
    "no_tensors_key": ({"precision": "f64"}, b"", None),
    "header_past_end": ({"tensors": []}, b"", 4096),
    "short_payload": ({"tensors": [_f64_tensor("w", [2, 2])]}, bytes(8 * 3), None),
    "negative_shape": ({"tensors": [_f64_tensor("w", [-1, 2])]}, bytes(8 * 2), None),
    "trailing_bytes": ({"tensors": [_f64_tensor("w", [2])]}, bytes(8 * 3), None),
    # four f32 values fill exactly the 16 bytes an f64 tensor of shape [2] would
    "f32_tensor": ({"tensors": [{"name": "w", "dtype": "f32", "shape": [2]}]},
                   np.array([1.5, 2.5, 3.5, 4.5], dtype=np.float32).tobytes(), None),
    "extra_not_object": ({"tensors": [], "extra": [1, 2]}, b"", None),
    "train_config_not_object": ({"tensors": [], "extra": {"train_config": [1, 2]}}, b"", None),
}


class TestBadCheckpoint:
    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
    def test_rejected_as_io_error(self, dataset, tmp_path, case):
        header, payload, header_len = BAD_CHECKPOINTS[case]
        header_bytes = json.dumps(header).encode("utf-8")
        if header_len is None:
            header_len = len(header_bytes)
        body = struct.pack("<II", CHECKPOINT_VERSION, header_len) + header_bytes + payload
        ckpt = tmp_path / "bad.bin"
        ckpt.write_bytes(CHECKPOINT_MAGIC + body + struct.pack("<I", binascii.crc32(body)))
        with pytest.raises(CheckpointError):
            load_checkpoint(ckpt)
        code = run([
            "eval", "--data", str(dataset), "--from", str(ckpt), "--trials", "10",
            "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_IO

    # well-formed files whose tensors do not fit the command or the data (d = 6):
    # (extra eval flags, tensors, words the error must name)
    UNFIT = {
        "no_embed_weight": ([], {"embed_bias": (4,)}, ["'embed_weight'"]),
        "ctx_without_value": (["--head", "ctx"], {"embed_weight": (6, 4), "embed_bias": (4,),
                                                  "ctx_key": (4, 4)}, ["'ctx_value'"]),
        "embed_rows_not_d": ([], {"embed_weight": (5, 4), "embed_bias": (4,)},
                             ["'embed_weight'", "(5, 4)", "(6, 4)"]),
    }

    @pytest.mark.parametrize("case", sorted(UNFIT))
    def test_unfit_tensors_rejected_as_io_error(self, dataset, tmp_path, capsys, case):
        flags, shapes, named = self.UNFIT[case]
        ckpt = tmp_path / "unfit.bin"
        save_checkpoint(ckpt, {n: np.ones(shape) for n, shape in shapes.items()})
        code = run(["eval", "--data", str(dataset), "--from", str(ckpt), "--trials", "10",
                    "--seed", "0", "--out", str(tmp_path / "x")] + flags)
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert all(word in err for word in named), err

    def test_train_from_unfit_embedding_is_io_error(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "unfit.bin"
        save_checkpoint(ckpt, {"embed_weight": np.ones((5, 4)), "embed_bias": np.zeros(4)})
        code = run(["train", "--data", str(dataset), "--from", str(ckpt), "--way", "3",
                    "--query", "2", "--episodes", "2", "--embed-dim", "4", "--val-every", "0",
                    "--seed", "0", "--out", str(tmp_path / "x")])
        assert code == EXIT_IO
        assert "(5, 4)" in capsys.readouterr().err
