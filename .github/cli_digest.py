"""Print one line per command of a fixed CLI command set: the first 16 hex
digits of the sha256 of its stdout and stderr, its exit code and the
command.  Two trees whose outputs agree print identical lines, so

    python3 .github/cli_digest.py ../base/src > base.txt
    python3 .github/cli_digest.py src > head.txt
    diff base.txt head.txt

shows every command whose output or exit code a change moved.  SRC (default
`src`) is the directory that holds the `orbifold_voa` package; every
command runs in this one process through `cli.main`.  Stdlib only.

The set: every verify suite in text and json at k=1..4, `verify jacobi
--k 2 --cutoff 8`, `fusion table` and `zhu table` in both formats at
k=1..4, the four `dump` targets, and at k=1..3 `fusion query` on every
label triple and `witness` on every triple of value 1."""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product

sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else "src")

from orbifold_voa import cli  # noqa: E402
from orbifold_voa.fusion import get_engine  # noqa: E402


def commands():
    for k in range(1, 5):
        for suite in cli.SUITES:
            for fmt in ("text", "json"):
                yield ["verify", suite, "--k", str(k), "--format", fmt]
    yield ["verify", "jacobi", "--k", "2", "--cutoff", "8"]
    for k in range(1, 5):
        for fmt in ("json", "csv"):
            yield ["fusion", "table", "--k", str(k), "--format", fmt]
        for fmt in ("text", "json"):
            yield ["zhu", "table", "--k", str(k), "--format", fmt]
    yield ["dump", "table", "--k", "2"]
    yield ["dump", "delta", "--order", "8"]
    yield ["dump", "decompose", "--k", "2", "--module", "Va+", "--window", "2"]
    yield ["dump", "zhu", "--k", "2", "--format", "json"]
    for k in range(1, 4):
        eng = get_engine(k)
        codes = [label.code for label in eng.labels]
        for i, j, l in product(range(len(codes)), repeat=3):
            yield ["fusion", "query", "--k", str(k), codes[i], codes[j], codes[l]]
            if (i, j, l) in eng.table:
                yield ["witness", "--type", f"{codes[i]},{codes[j]},{codes[l]}", "--k", str(k)]


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue() + "\0" + err.getvalue()
    return f"{hashlib.sha256(text.encode()).hexdigest()[:16]} {code} {' '.join(argv)}"


if __name__ == "__main__":
    for argv in commands():
        print(digest(argv))
