"""Batch command-line surface: fusion queries and table dumps, computed
top-level actions, decomposition listings, and the verification suites
of `verify`.  Output is deterministic: fixed term ordering, fixed JSON key
order and fixed item order.

`main` maps every outcome to its exit code in one place: 0 success / all
pass, 1 usage errors (an option the command does not define, which
argparse refuses as unrecognized: `verify` takes only --k, --cutoff and
--format, since its suites sample nothing; and `UsageError`, including
k < 1, a negative cutoff, order or window, a `--cutoff` for a suite that
does not read it, a `dump` option for a target that does not read it, a
fractional cutoff for `verify delta` and a cutoff that is not a multiple
of 1/2 for `verify decomp`), failing suite items or a `witness` that
finds no nonzero image (`NO-DIRECT-CONSTRUCTION` or `ZERO-UP-TO-CUTOFF`),
2 fusion-table inconsistency (`EngineInconsistencyError`).  A stdout
closed by its reader ends the output: no traceback, exit code 1.

At load time this module imports the label half alone (`labels`,
`fusion`); a command that evaluates operators imports them when it runs.

`build_parser` builds the one parser tree (top level, command, subcommand)
for help, usage and errors.  `main` walks the command words at the head
of the line (`fusion query`, `verify`, `zhu table`, ...) through
`COMMANDS`, builds the leaf parser they name on its own and reads a
well-formed rest straight off its actions; any other rest goes to that
parser's `parse_known_args`; see `_parse`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import labels as lb
from .fusion import EngineInconsistencyError, decompose, direct_witness, get_engine, upper_bound

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONSISTENT = 2


class UsageError(Exception):
    """Bad command-line input: `main` prints it and exits 1."""


def _emit_report(k: int, command: str, items, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "k": k,
            "command": command,
            "results": [
                {"name": name, "status": status, "detail": detail}
                for name, status, detail in items
            ],
        }
        print(json.dumps(payload))
        return
    for name, status, detail in items:
        line = f"{status.upper():5s} {name}"
        print(line + (f": {detail}" if detail else ""))


# -- commands -------------------------------------------------------------------


def _parse_labels(texts, k: int):
    """The module labels spelled by `texts`; a bad spelling is a usage
    error."""
    try:
        return tuple(lb.parse_label(t, k) for t in texts)
    except ValueError as exc:
        raise UsageError(exc) from None


def cmd_query(args) -> int:
    k = args.k
    eng = get_engine(k)
    w1, w2, w3 = _parse_labels(args.labels, k)
    value = eng.fusion(w1, w2, w3)
    bound = upper_bound(w1, w2, w3, k)
    witnesses = witness_names(k, (w1, w2, w3)) if value else []
    record = {
        "k": k,
        "triple": [w1.code, w2.code, w3.code],
        "value": value,
        "bound": bound,
        "witnesses": witnesses,
    }
    if args.format == "json":
        print(json.dumps(record))
    else:
        wtxt = f" witnesses: {', '.join(witnesses)}" if witnesses else ""
        print(f"{w1.code} x {w2.code} -> {w3.code}: value {value} (bound {bound}){wtxt}")
    return EXIT_OK


def cmd_table(args) -> int:
    """`fusion table` and its alias `dump table`: JSON, or csv for any
    other format."""
    k = args.k
    eng = get_engine(k)
    codes = [label.code for label in eng.labels]
    rows = [
        (codes[i], codes[j], codes[l], 1 if (i, j, l) in eng.table else 0)
        for i, j, l in product(range(len(codes)), repeat=3)
    ]
    if args.format == "json":
        triples = [{"triple": [a, b, c], "value": v} for a, b, c, v in rows]
        print(json.dumps({"k": k, "command": "fusion table", "triples": triples}))
    else:
        print("w1,w2,w3,value")
        for row in rows:
            print(",".join(str(x) for x in row))
    return EXIT_OK


def witness_names(k: int, triple) -> list[str]:
    """Names of explicit constructions witnessing a nonzero fusion value,
    searching the symmetry orbit when the triple itself is not covered.
    Names only: nothing is built or evaluated."""
    orbit = [triple]
    for t in orbit:
        hit = direct_witness(k, t)
        if hit is not None:
            name = hit[0].name
            return [name if t == triple else f"{name} (via symmetry)"]
        w1, w2, w3 = t
        for image in ((w2, w1, w3), (w1, lb.contragredient(w3, k), lb.contragredient(w2, k))):
            if image not in orbit:
                orbit.append(image)
    return []


def _refuse_unread_options(args, command: str, target: str, readers: dict) -> None:
    """A usage error for an option of `readers` (option -> the targets
    that read it) given to a `target` that does not read it: the command
    would ignore it and still exit 0."""
    for option, targets in readers.items():
        if getattr(args, option) is not None and target not in targets:
            raise UsageError(f"{command} {target} takes no --{option}")


def cmd_verify(args) -> int:
    from .verify import SUITE_OPTIONS, SUITES
    _refuse_unread_options(args, "verify", args.suite, SUITE_OPTIONS)
    items = list(SUITES[args.suite](args.k, args.cutoff))
    _emit_report(args.k, f"verify {args.suite}", items, args.format)
    return EXIT_FAIL if any(status == "fail" for _n, status, _d in items) else EXIT_OK


# the `dump` targets that read each option
DUMP_OPTIONS = {"order": ("delta",), "module": ("decompose",), "window": ("decompose",)}


def cmd_dump(args) -> int:
    k = args.k
    _refuse_unread_options(args, "dump", args.what, DUMP_OPTIONS)
    if args.what == "table":
        return cmd_table(args)
    if args.what == "delta":
        if args.format == "json":
            raise UsageError("dump delta writes csv only; drop --format json")
        from .twisted import delta_table
        order = args.order if args.order is not None else 8
        tab = delta_table(order)
        print("m,n,c")
        for (m, n) in sorted(tab):
            print(f"{m},{n},{tab[(m, n)]}")
        return EXIT_OK
    if args.what == "decompose":
        if not args.module:
            raise UsageError("dump decompose needs --module")
        (label,) = _parse_labels([args.module], k)
        window = args.window if args.window is not None else 2
        rows = decompose(label, k, window=window)
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "k": k,
                        "module": label.code,
                        "window": window,
                        "constituents": [
                            {
                                "constituent": m1.code,
                                "lattice_index": idx,
                                "norm": str(m1.norm(k)),
                            }
                            for m1, idx in rows
                        ],
                    }
                )
            )
        else:
            print("constituent,lattice_index,norm")
            for m1, idx in rows:
                print(f"{m1.code},{'' if idx is None else idx},{m1.norm(k)}")
        return EXIT_OK
    # zhu: argparse admits no other target
    from . import zhu
    from .ring import RingParams
    table = zhu.top_action_table(RingParams(k))
    if args.format == "json":
        _print_zhu_json(k, "dump zhu", table)
    else:
        print("label,omega,J,E")
        for code, gens in table.items():
            print(f"{code},{gens['omega']},{gens['J']},{gens['E']}")
    return EXIT_OK


def _print_zhu_json(k: int, command: str, table) -> None:
    """The JSON form of a top-action table, shared by `dump zhu` and
    `zhu table`."""
    actions = {code: {g: str(v) for g, v in gens.items()} for code, gens in table.items()}
    print(json.dumps({"k": k, "command": command, "actions": actions}))


def cmd_zhu(args) -> int:
    from . import zhu
    from .ring import RingParams
    params = RingParams(args.k)
    table = zhu.top_action_table(params)
    if args.format == "json":
        _print_zhu_json(args.k, "zhu table", table)
    else:
        width = max(len(code) for code in table)
        for code, gens in table.items():
            print(
                f"{code:<{width}}  omega={gens['omega']}  J={gens['J']}  E={gens['E']}"
            )
    return EXIT_OK


def cmd_witness(args) -> int:
    k = args.k
    parts = args.type.split(",")
    if len(parts) != 3:
        raise UsageError("--type wants W1,W2,W3")
    triple = _parse_labels(parts, k)
    hit = direct_witness(k, triple)
    if hit is None:
        print("NO-DIRECT-CONSTRUCTION")
        return EXIT_FAIL
    from .intertwine import first_nonzero_mode, witness_vectors
    from .ring import RingParams
    spec, sign = hit
    u, v = witness_vectors(RingParams(k), triple)
    cutoff = args.cutoff if args.cutoff is not None else lb.top_weight(triple[2], k) + 4
    res = first_nonzero_mode(spec, u, v, cutoff, sign)
    if res is None:
        print("ZERO-UP-TO-CUTOFF")
        return EXIT_FAIL
    m, img = res
    print(f"{spec.name} mode {m}: {img}")
    return EXIT_OK


def _fraction(text: str) -> Fraction:
    """argparse type of `--cutoff`: an exact rational.  Every malformed
    value, a zero denominator among them, is a usage error that names the
    type, not a traceback."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


# the help line of each command by the words that name it, in the order help
# lists them; a parser is named by its words, () for the top level
COMMANDS = {
    ("fusion",): "fusion queries and table dumps",
    ("fusion", "query"): "value of one triple",
    ("fusion", "table"): "all label triples",
    ("verify",): "run a verification suite",
    ("dump",): "machine-readable data dumps",
    ("zhu",): "computed generator actions on top levels",
    ("zhu", "table"): "all labels at once",
    ("witness",): "first nonzero mode of a construction",
}


def _arguments(parser: argparse.ArgumentParser, words: tuple[str, ...]) -> argparse.ArgumentParser:
    """`parser` with the arguments and command of the leaf `words` name; a
    parser with subcommands gets none here."""
    add = parser.add_argument
    if words == ("fusion", "query"):
        add("--k", type=int, required=True)
        add("--format", choices=("text", "json"), default="text")
        add("labels", nargs=3, metavar="LABEL")
        parser.set_defaults(fn=cmd_query)
    elif words == ("fusion", "table"):
        add("--k", type=int, required=True)
        add("--format", choices=("json", "csv"), default="csv")
        parser.set_defaults(fn=cmd_table)
    elif words == ("verify",):
        from .verify import SUITES
        add("suite", choices=SUITES)
        add("--k", type=int, default=2)
        add("--cutoff", type=_fraction, default=None)
        add("--format", choices=("text", "json"), default="text")
        parser.set_defaults(fn=cmd_verify)
    elif words == ("dump",):
        add("what", choices=("decompose", "delta", "zhu", "table"))
        add("--k", type=int, default=2)
        add("--order", type=int, default=None)
        add("--window", type=int, default=None)
        add("--module", type=str, default=None)
        add("--format", choices=("text", "json", "csv"), default="text")
        parser.set_defaults(fn=cmd_dump)
    elif words == ("zhu", "table"):
        add("--k", type=int, required=True)
        add("--format", choices=("text", "json"), default="text")
        parser.set_defaults(fn=cmd_zhu)
    elif words == ("witness",):
        add("--type", required=True, metavar="W1,W2,W3")
        add("--k", type=int, required=True)
        add("--cutoff", type=_fraction, default=None)
        parser.set_defaults(fn=cmd_witness)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The argument parser: the one tree for help, usage and errors."""
    return _parsers()[()]


@lru_cache(maxsize=None)
def _parsers() -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """Every parser of the tree by the command words that name it, () for
    the top level; built once per process.  Parsing leaves the parsers
    unchanged, so every `main` call shares them."""
    parser = argparse.ArgumentParser(
        prog="orbifold-voa",
        description="exact fusion-rule engine for the rank-one charge "
        "conjugation orbifold",
    )
    parsers, subparsers = {(): parser}, {}
    for words, help in COMMANDS.items():
        above = words[:-1]
        if above not in subparsers:
            dest = "which" if above else "command"
            subparsers[above] = parsers[above].add_subparsers(dest=dest, required=True)
        parsers[words] = _arguments(subparsers[above].add_parser(words[-1], help=help), words)
    return parsers


@lru_cache(maxsize=None)
def _leaf(words: tuple[str, ...]):
    """(parser, option string -> action, positional actions, defaults) of
    the leaf parser that `words` name, None for a parser with subcommands;
    built once, on its own, as `add_parser` builds it in the tree.  The
    actions are those `_arguments` added, in order (argparse keeps them in
    `_actions`); -h, whose default is SUPPRESS, is left out, so a line that
    asks for help goes to argparse.  The defaults start the namespace as
    `parse_known_args` starts it: each action's default, then `fn`."""
    if words not in COMMANDS:
        return None
    parser = _arguments(argparse.ArgumentParser(prog=" ".join(("orbifold-voa", *words))), words)
    fn = parser.get_default("fn")
    if fn is None:
        return None
    options, positionals, defaults = {}, [], {}
    for action in parser._actions:
        if action.default is argparse.SUPPRESS:
            continue
        defaults[action.dest] = action.default
        if action.option_strings:
            options.update(dict.fromkeys(action.option_strings, action))
        else:
            positionals.append(action)
    defaults["fn"] = fn
    return parser, options, positionals, defaults


def _value(action: argparse.Action, text: str):
    """`text` converted by the action's type and checked against its
    choices; ValueError, TypeError or ArgumentTypeError where argparse
    would refuse it."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(text)
    return value


def _read(words: tuple[str, ...], line: list[str]) -> argparse.Namespace | None:
    """The namespace `parse_known_args` of the leaf `words` gives `line`, for
    the lines of a strict subset; None for any other line.  In the subset
    each option is an exact option string, given at most once, with a
    value that does not start with `-`; every required option is there;
    the other words form one run, with no option inside it, that fills
    the positionals exactly; and every value passes its action's type and
    choices.  A run split by an option is refused: argparse fills no
    positional from a part too short for it, so `V+ --k 2 V+ V+` misses
    a LABEL."""
    leaf = _leaf(words)
    if leaf is None:
        return None
    _parser, options, positionals, defaults = leaf
    given, run, end, i = {}, [], 0, 0
    while i < len(line):
        token = line[i]
        i += 1
        if not token.startswith("-"):
            if run and end != i - 1:  # a second run
                return None
            run.append(token)
            end = i
            continue
        action = options.get(token)
        if action is None or action in given or i == len(line) or line[i].startswith("-"):
            return None
        given[action] = line[i]
        i += 1
    if any(action.required and action not in given for action in options.values()):
        return None
    values = dict(defaults)
    try:
        for action, text in given.items():
            values[action.dest] = _value(action, text)
        for action in positionals:
            n = 1 if action.nargs is None else action.nargs
            texts, run = run[:n], run[n:]
            if len(texts) < n:
                return None
            got = [_value(action, text) for text in texts]
            values[action.dest] = got[0] if action.nargs is None else got
    except (ValueError, TypeError, argparse.ArgumentTypeError):
        return None
    return None if run else argparse.Namespace(**values)


def _parse(argv) -> argparse.Namespace:
    """`argv` parsed for the leaf its leading command words name.  A line
    of the subset `_read` takes is read off the leaf's actions with no
    argparse call; any other line goes to the parser the words name, so
    help, usage and errors stay argparse's.  The whole tree is built only
    where the walk stops short of a leaf (no command word, `-h`, a typo),
    whose parser prints the help or error the tree would, or arguments
    are left over; they get the top-level error that `parse_args` gives,
    but for one case: beside a leftover positional, each unknown option
    is named with the word after it, since argparse reads that word as a
    positional.  The namespace lacks the `command` and `which` dests of
    the levels walked past, which no command reads."""
    words: tuple[str, ...] = ()
    for word in argv:
        if words + (word,) not in COMMANDS:
            break
        words += (word,)
    line = argv[len(words):]
    args = _read(words, line)
    if args is not None:
        return args
    leaf = _leaf(words)
    parser = _parsers()[words] if leaf is None else leaf[0]
    args, rest = parser.parse_known_args(line)
    if rest:
        unknown = [a for a in rest if a.startswith("-")]
        loose = [a for a in rest if not a.startswith("-")]
        if unknown and loose:
            # argparse gives an unknown option no value, so in `--seed 1 V+
            # V+ V+` the 1 fills a LABEL and a V+ is left over: name the
            # option with its value, and only the positionals beyond the
            # values so named
            named = []
            for a, after in zip(line, line[1:] + [None]):
                if a in unknown:
                    owns = after is not None and "=" not in a and not after.startswith("-")
                    named += [a, after] if owns else [a]
            rest = named + loose[len(named) - len(unknown):]
        build_parser().error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_FAIL if exc.code else EXIT_OK
    try:
        if args.k < 1:
            raise UsageError("k must be a positive integer")
        for option in ("cutoff", "order", "window"):
            value = getattr(args, option, None)
            if value is not None and value < 0:
                raise UsageError(f"--{option} must be nonnegative")
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: the output ends here.  Point stdout at
        # devnull so that the interpreter's last flush does not raise again
        with suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except EngineInconsistencyError as exc:
        print(f"fusion table inconsistent: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    # `python -m` runs this file as __main__: bind it under its own name too,
    # so that `verify` imports this module, and raises the UsageError `main` catches
    sys.modules[f"{__package__}.cli"] = sys.modules[__name__]
    sys.exit(main())
