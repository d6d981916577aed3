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
--k 2` at cutoffs 8 and 0 (at 0 every item but the twisted commutators
skips, naming each call that compared only zeros), `verify jacobi` in
json at k=5..8 (where the residue item skips, naming its calls of E that
compare only zeros), `verify decomp` in json at `--k 1 --cutoff 40` and
`--k 3 --cutoff 20` (partition counts up to about n = 40 and odd-part
counts up to about n = 80; the default cutoff 10 stops near a quarter of
that), `verify closure` and `verify bounds` in json at k=5..8,
`fusion table` and `zhu table` in both formats at k=1..4, the four `dump`
targets (`dump zhu` and `dump decompose` in both formats), `witness --type
V+,V-,V- --k 2 --cutoff 0` (its explicit cutoff stops the search below
the first nonzero image, so it prints `ZERO-UP-TO-CUTOFF`), at k=1..4
`fusion query` on every label triple and `witness` on every triple of
value 1, and at k=3 and 4 `fusion query` on every triple of V+ and the
out-of-range spellings Vl5, Vl-1 and Vl7, which `parse_label` folds into
1..k-1 by the lattice shift and, for every spelling but Vl7 at k=3, by
the reflection.  The twisted witnesses at k=4 print images placed with
the prefactor's even-k sqrt(2) form at lattice indices 1, 2 and 3, where
those at k=2 reach index 1 alone."""

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
    yield ["verify", "jacobi", "--k", "2", "--cutoff", "0"]
    for k in range(5, 9):
        yield ["verify", "jacobi", "--k", str(k), "--format", "json"]
    for k, cutoff in ((1, 40), (3, 20)):
        yield ["verify", "decomp", "--k", str(k), "--cutoff", str(cutoff), "--format", "json"]
    for k in range(5, 9):
        for suite in ("closure", "bounds"):
            yield ["verify", suite, "--k", str(k), "--format", "json"]
    for k in range(1, 5):
        for fmt in ("json", "csv"):
            yield ["fusion", "table", "--k", str(k), "--format", fmt]
        for fmt in ("text", "json"):
            yield ["zhu", "table", "--k", str(k), "--format", fmt]
    yield ["dump", "table", "--k", "2"]
    yield ["dump", "delta", "--order", "8"]
    yield ["dump", "decompose", "--k", "2", "--module", "Va+", "--window", "2"]
    yield ["dump", "zhu", "--k", "2", "--format", "json"]
    yield ["dump", "zhu", "--k", "2"]
    yield ["dump", "decompose", "--k", "2", "--module", "Va+", "--window", "2", "--format", "json"]
    yield ["witness", "--type", "V+,V-,V-", "--k", "2", "--cutoff", "0"]
    for k in range(1, 5):
        eng = get_engine(k)
        codes = [label.code for label in eng.labels]
        for i, j, l in product(range(len(codes)), repeat=3):
            yield ["fusion", "query", "--k", str(k), codes[i], codes[j], codes[l]]
            if (i, j, l) in eng.table:
                yield ["witness", "--type", f"{codes[i]},{codes[j]},{codes[l]}", "--k", str(k)]
    for k in (3, 4):
        for triple in product(("V+", "Vl5", "Vl-1", "Vl7"), repeat=3):
            yield ["fusion", "query", "--k", str(k), *triple]


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue() + "\0" + err.getvalue()
    return f"{hashlib.sha256(text.encode()).hexdigest()[:16]} {code} {' '.join(argv)}"


if __name__ == "__main__":
    for argv in commands():
        print(digest(argv))
