"""Print a sha256 of every artifact of a fixed set of `cdrm` commands.

Usage, from the repository root:

    PYTHONPATH=src python tools/artifact_digests.py

The commands run in-process, in a temporary directory, on the `cdrm`
package found on the import path: generate the toy and room datasets,
train a small model on each, infer a data query, a gap query and a query
with deduplication, evaluate the room model, run the oracle suite on the
toy model and run a small bench. Each output line is `name sha256`, one
per artifact. The bench's timing columns are dropped before hashing and
the progress lines that name file paths are not hashed. Two source trees
whose outputs should be byte-identical print the same lines; point
PYTHONPATH at each in turn and compare.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import sys
import tempfile

from cdrm import cli

BENCH_TIMING_COLUMNS = ("cdrm_ns", "bin_ns")


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _run(argv: list[str]) -> bytes:
    """Run one command; return its stdout, or fail on a non-zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    if code != 0:
        raise SystemExit(f"cdrm {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def _without_timings(path: str) -> bytes:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name not in BENCH_TIMING_COLUMNS]
    return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()


def digests() -> list[str]:
    """`name sha256` for every artifact of the command set."""
    with tempfile.TemporaryDirectory(prefix="cdrm-digests-") as tmp:

        def path(name: str) -> str:
            return os.path.join(tmp, name)

        def read(name: str) -> bytes:
            with open(path(name), "rb") as fh:
                return fh.read()

        blobs: dict[str, bytes] = {}
        _run(["gen", "toy", "--out", path("toy.csv"), "--n-per-region", "100", "--seed", "1"])
        _run(["gen", "room", "--out", path("room.csv"), "--steps", "300", "--seed", "5"])
        for name in ("toy.csv", "toy.csv.meta.json", "room.csv", "room.csv.meta.json"):
            blobs[name] = read(name)

        small = ["--positive-batch", "32", "--negative-batch", "8", "--langevin-steps", "2"]
        for stem, hidden in (("toy", "16,16"), ("room", "8")):
            _run(
                ["train", "--data", path(f"{stem}.csv"), "--out", path(f"{stem}.json")]
                + ["--epochs", "10", "--hidden", hidden, "--seed", "5", *small]
            )
            for name in (f"{stem}.json", f"{stem}.json.loss.csv"):
                blobs[name] = read(name)

        chain = ["--samples", "32", "--steps", "5", "--seed", "2"]
        for name, extra in (
            ("infer-data", ["--query", "0.7"]),
            ("infer-gap", ["--query", "-0.1"]),
            ("infer-dedup", ["--query", "0.7", "--dedup-tol", "0.05"]),
        ):
            blobs[name] = _run(["infer", "--model", path("toy.json"), *extra, *chain])

        _run(
            ["eval", "--model", path("room.json"), "--out", path("eval.csv")]
            + ["--grid", "4", "--samples", "16", "--steps", "5", "--seed", "7"]
        )
        for name in ("eval.csv", "eval.csv.probes.csv"):
            blobs[name] = read(name)

        blobs["oracle-stdout"] = _run(
            ["oracle", "--model", path("toy.json"), "--data", path("toy.csv")]
            + ["--out", path("oracle.csv"), "--bins", "20", "--grid-probes", "6", *chain]
        )
        blobs["oracle.csv"] = read("oracle.csv")

        _run(
            ["bench", "--out", path("bench.csv"), "--b-values", "4,16", "--l-values", "1,2"]
            + ["--reps", "1", "--bin-queries", "1", "--samples", "8"]
            + ["--dataset-size", "32", "--seed", "3"]
        )
        blobs["bench.csv.untimed"] = _without_timings(path("bench.csv"))
    return [f"{name} {_sha256(blob)}" for name, blob in blobs.items()]


def main() -> int:
    for line in digests():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
