#!/usr/bin/env python3
"""Compare the artifacts of a fixed matrix of ``frn`` commands between the
working tree and another git revision.

    python3 tools/parity.py <rev>

The revision is exported with ``git archive`` into a temporary directory
(``TMPDIR`` chooses where), so the repository's own metadata is left as
it is. Both trees then run the same commands (``MATRIX``), each in a
fresh process, with relative paths in a work directory of their own:
containers, ``eval`` of every head in f32 and f64 on direct- and
woodbury-shaped pools at widths below and above 256, ``train``,
``pretrain``, ``eval --from`` and ``bench``.

Every artifact is compared: JSON files key by key, ``history.jsonl``
line by line and key by key, text files and each command's stdout and
stderr line by line, its exit code, and every other file (checkpoints,
containers, manifests) byte for byte. Each key that differs is printed.
Only wall-clock times are skipped, by the names in ``TIMING_KEYS``.
The exit code is 0 when nothing differs and 1 otherwise.

Needs only the standard library and the ``frn`` dependencies in the
interpreter that runs it; it is not part of the test suite, since it
needs a second revision.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: wall-clock times, never compared: the JSON keys of ``bench.json`` and the
#: line labels of ``bench.txt`` and bench's stdout that hold them
TIMING_KEYS = ("median_ns", "p95_ns", "direct median", "woodbury median")

HEADS = ("frn", "proto", "dsn", "ctx")
PRECISIONS = ("f32", "f64")
#: width -> the shots that put its r 25 pools on each side: kr < d scores
#: on the direct side and kr >= d on woodbury (256 is where the feature
#: scale changes)
SHOTS = {64: {"direct": 1, "woodbury": 5}, 320: {"direct": 1, "woodbury": 13}}
EPISODE = ["--way", "5", "--query", "5"]


def _matrix() -> list[tuple[str, list[str]]]:
    """(name, argv) of each command in run order; each writes under ``<name>/``
    and later commands read what earlier ones wrote."""
    cmds = []
    for d in SHOTS:
        cmds.append((f"gen-d{d}", ["gen", "--classes", "10", "--items", "24", "--r", "25",
                                   "--d", str(d), "--seed", "1", "--out", f"gen-d{d}/data.frnt"]))
    cmds.append(("gen-d64-f32", ["gen", "--classes", "10", "--items", "24", "--r", "25",
                                 "--d", "64", "--precision", "f32", "--seed", "1",
                                 "--out", "gen-d64-f32/data.frnt"]))
    for d, shots in SHOTS.items():
        for side, shot in shots.items():
            for head in HEADS:
                for prec in PRECISIONS:
                    name = f"eval-d{d}-{side}-{head}-{prec}"
                    cmds.append((name, ["eval", "--data", f"gen-d{d}/data.frnt", "--head", head,
                                        *EPISODE, "--shot", str(shot), "--trials", "10",
                                        "--precision", prec, "--seed", "2", "--out", name]))
    cmds.append(("eval-d64-f32-container", ["eval", "--data", "gen-d64-f32/data.frnt",
                                            *EPISODE, "--trials", "10", "--precision", "f32",
                                            "--seed", "2", "--out", "eval-d64-f32-container"]))
    train = [*EPISODE, "--episodes", "4", "--val-every", "2", "--val-trials", "3",
             "--val-query", "5", "--seed", "3"]
    for head in HEADS:
        cmds.append((f"train-d64-{head}", ["train", "--data", "gen-d64/data.frnt", "--head", head,
                                           "--shot", "1", "--embed-dim", "64", *train,
                                           "--out", f"train-d64-{head}"]))
    cmds.append(("train-d64-frn-woodbury", ["train", "--data", "gen-d64/data.frnt", "--shot", "5",
                                            "--embed-dim", "64", *train,
                                            "--out", "train-d64-frn-woodbury"]))
    cmds.append(("train-d320-frn", ["train", "--data", "gen-d320/data.frnt", "--shot", "1",
                                    "--embed-dim", "320", *EPISODE, "--episodes", "2",
                                    "--val-every", "2", "--val-trials", "2", "--val-query", "5",
                                    "--seed", "3", "--out", "train-d320-frn"]))
    for d, steps in ((64, "6"), (320, "2")):
        cmds.append((f"pretrain-d{d}", ["pretrain", "--data", f"gen-d{d}/data.frnt",
                                        "--steps", steps, "--batch-size", "16",
                                        "--embed-dim", str(d), "--seed", "4",
                                        "--out", f"pretrain-d{d}"]))
    cmds.append(("train-d64-from-pretrain", ["train", "--data", "gen-d64/data.frnt",
                                             "--from", "pretrain-d64/checkpoint.bin",
                                             "--shot", "1", "--embed-dim", "64", *train,
                                             "--out", "train-d64-from-pretrain"]))
    for ckpt, data in (("train-d64-frn", 64), ("train-d64-frn-woodbury", 64),
                       ("train-d64-ctx", 64), ("train-d320-frn", 320),
                       ("pretrain-d64", 64), ("train-d64-from-pretrain", 64)):
        for prec in PRECISIONS:
            name = f"eval-from-{ckpt}-{prec}"
            cmds.append((name, ["eval", "--data", f"gen-d{data}/data.frnt",
                                "--from", f"{ckpt}/checkpoint.bin", *EPISODE, "--shot", "1",
                                "--trials", "6", "--precision", prec, "--seed", "5",
                                "--out", name]))
    for side, shot in SHOTS[64].items():
        name = f"bench-d64-{side}"
        cmds.append((name, ["bench", "--b", "4", "--shot", str(shot), "--r", "25", "--d", "64",
                            "--iters", "2", "--warmup", "0", "--out", name]))
    return cmds


MATRIX = _matrix()


def _export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest``; return its full commit id."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def _run(tree: Path, work: Path, name: str, argv: list[str]) -> int:
    """Run one command in ``work`` against ``tree``'s sources; keep its streams
    and return its exit code."""
    (work / name).mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "frn.cli", *argv], cwd=work, env=env,
                          capture_output=True, text=True)
    streams = work / ".streams" / name
    streams.mkdir(parents=True, exist_ok=True)
    (streams / "exit_code").write_text(f"{done.returncode}\n")
    (streams / "stdout").write_text(done.stdout)
    (streams / "stderr").write_text(done.stderr)
    return done.returncode


def _flatten(value, prefix: str, out: dict) -> dict:
    """Leaves of a JSON value keyed by their path: ``a.b[2]``."""
    if isinstance(value, dict):
        if not value:
            out[prefix] = value
        for k, v in value.items():
            if k not in TIMING_KEYS:
                _flatten(v, f"{prefix}.{k}" if prefix else k, out)
    elif isinstance(value, list):
        if not value:
            out[prefix] = value
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix or "value"] = value
    return out


def _keys(path: Path) -> dict:
    """The comparable keys of one artifact, each mapped to a JSON-encoded value."""
    data = path.read_bytes()
    text = None
    if path.suffix in (".json", ".jsonl", ".txt") or path.parent.parent.name == ".streams":
        text = data.decode()
    if text is not None and path.suffix == ".jsonl":
        leaves = {}
        for i, line in enumerate(text.splitlines()):
            _flatten(json.loads(line), f"[{i}]", leaves)
    elif text is not None:
        try:
            leaves = _flatten(json.loads(text), "", {})
        except ValueError:
            leaves = {f"line {i + 1}": line for i, line in enumerate(text.splitlines())
                      if not line.startswith(TIMING_KEYS)}
    else:
        return {"bytes": data.hex()}
    return {k: json.dumps(v, sort_keys=True) for k, v in leaves.items()}


def _compare(ours: Path, theirs: Path) -> tuple[int, list[str]]:
    """(keys compared, one line per differing key) over both work directories."""
    files = sorted({p.relative_to(w) for w in (ours, theirs) for p in w.rglob("*") if p.is_file()})
    compared, diffs = 0, []
    for rel in files:
        a, b = ours / rel, theirs / rel
        if not (a.exists() and b.exists()):
            diffs.append(f"{rel}: only in {'the working tree' if a.exists() else 'the revision'}")
            continue
        ka, kb = _keys(a), _keys(b)
        for key in sorted(ka.keys() | kb.keys()):
            compared += 1
            va, vb = ka.get(key, "<absent>"), kb.get(key, "<absent>")
            if va != vb:
                shown = (va, vb) if key != "bytes" else ("<bytes>", "<bytes>")
                diffs.append(f"{rel}: {key}: {shown[0]} != {shown[1]}")
    return compared, diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare the working tree against")
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="frn-parity-"))
    try:
        other = scratch / "tree"
        sha = _export(args.rev, other)
        ours, theirs = scratch / "ours", scratch / "theirs"
        # a command that fails on both sides would compare equal and show nothing
        failed = [name for name, cmd in MATRIX
                  if _run(ROOT, ours, name, cmd) | _run(other, theirs, name, cmd)]
        compared, diffs = _compare(ours, theirs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"parity: working tree against {args.rev} ({sha[:12]})")
    print(f"commands run on each side: {len(MATRIX)}")
    print(f"timing keys skipped: {', '.join(TIMING_KEYS)}")
    print(f"commands that failed on either side: {len(failed)}")
    for name in failed:
        print(f"  {name}")
    print(f"keys compared: {compared}")
    print(f"keys that differ: {len(diffs)}")
    for line in diffs:
        print(f"  {line}")
    return 1 if diffs or failed else 0


if __name__ == "__main__":
    sys.exit(main())
