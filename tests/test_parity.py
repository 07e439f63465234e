"""The comparison of ``tools/parity.py``: which differences between two work
directories it reports, and under which key. No git and no ``frn`` command
runs here; the trees are written by hand."""

import importlib.util
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
_SPEC = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

#: one work directory's artifacts, by path relative to it
TREE = {
    "eval-d64/eval.json": json.dumps({"accuracy": {"mean": 0.5625, "ci95": 0.125}, "trials": 10}),
    "train-d64/history.jsonl": "\n".join(json.dumps({"step": i, "loss": 1.0 / (i + 1)})
                                          for i in range(3)) + "\n",
    "train-d64/checkpoint.bin": bytes(range(16)),
    "bench-d64/bench.json": json.dumps({"direct": {"median_ns": 1000.0, "iterations": 2}}),
    "bench-d64/bench.txt": "shapes            b=4\ndirect median     0.100 ms  p95 0.200 ms\n",
    ".streams/eval-d64/exit_code": "0\n",
}


def _write(root: Path, files: dict):
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)


def _compare(ours: dict, theirs: dict):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "ours", Path(tmp) / "theirs"
        _write(a, ours)
        _write(b, theirs)
        return parity._compare(a, b)


def test_identical_trees_differ_in_no_key():
    compared, diffs = _compare(TREE, TREE)
    assert compared > 0 and diffs == []


def _changed(rel, content):
    return {**TREE, rel: content}


def _one_ulp_up():
    data = json.loads(TREE["eval-d64/eval.json"])
    data["accuracy"]["mean"] = float(np.nextafter(data["accuracy"]["mean"], 1.0))
    return json.dumps(data)


def _flipped_byte():
    data = bytearray(TREE["train-d64/checkpoint.bin"])
    data[5] ^= 0x01
    return bytes(data)


@pytest.mark.parametrize("theirs, expected", [
    (_changed("eval-d64/eval.json", _one_ulp_up()), "eval-d64/eval.json: accuracy.mean: "),
    (_changed("train-d64/history.jsonl",
              TREE["train-d64/history.jsonl"].replace('"loss": 0.5', '"loss": 0.25')),
     "train-d64/history.jsonl: [1].loss: "),
    (_changed("train-d64/checkpoint.bin", _flipped_byte()), "train-d64/checkpoint.bin: bytes: "),
    (_changed(".streams/eval-d64/exit_code", "5\n"), ".streams/eval-d64/exit_code: value: 0 != 5"),
    ({**TREE, "eval-d64/extra.json": "{}"}, "eval-d64/extra.json: only in the revision"),
], ids=["one-ulp-float", "history-line", "checkpoint-byte", "exit-code", "one-side-only"])
def test_each_difference_is_reported_with_its_key(theirs, expected):
    _, diffs = _compare(TREE, theirs)
    assert len(diffs) == 1 and diffs[0].startswith(expected), diffs


def test_a_file_only_in_the_working_tree_is_reported():
    _, diffs = _compare({**TREE, "gen-d64/data.frnt": b"\x00"}, TREE)
    assert diffs == ["gen-d64/data.frnt: only in the working tree"]


def test_wall_clock_times_are_skipped():
    bench = json.loads(TREE["bench-d64/bench.json"])
    bench["direct"]["median_ns"] = 2000.0
    theirs = {**TREE, "bench-d64/bench.json": json.dumps(bench),
              "bench-d64/bench.txt": TREE["bench-d64/bench.txt"].replace("0.100", "0.300")}
    compared, diffs = _compare(TREE, theirs)
    assert diffs == [] and compared == _compare(TREE, TREE)[0]
