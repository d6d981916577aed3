"""Command-line surface: exit codes, schemas, and output determinism."""

import argparse
import copy
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_lines
from cli_lines import V3
from orbifold_voa import cli, intertwine, ring, verify
from orbifold_voa import labels as lb
from orbifold_voa.cli import (
    EXIT_FAIL,
    EXIT_INCONSISTENT,
    EXIT_OK,
    build_parser,
    main,
    witness_names,
)
from orbifold_voa.fock import (
    TVector,
    UVector,
    heis_act,
    lattice_vector,
    m1_graded_dim,
    partition_count,
    twisted_basis,
)
from orbifold_voa.fusion import EngineInconsistencyError, get_engine
from orbifold_voa.ring import RingParams
from orbifold_voa.verify import SUITES
from orbifold_voa.fusion import direct_witness
from orbifold_voa.twisted import delta_rows, lattice_sector_map, psi_map
from orbifold_voa.untwisted import e_vec, vertex_mode


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def unrecognized(arguments: str) -> str:
    """The stderr of a command line whose `arguments` no parser defines."""
    return f"{build_parser().format_usage()}orbifold-voa: error: unrecognized arguments: {arguments}\n"


def test_fusion_query_text(capsys):
    code, out, _ = run(capsys, "fusion", "query", "--k", "2", "Vl1", "VT1+", "VT2+")
    assert code == EXIT_OK
    assert "value 1" in out
    assert "Ytilde[1]" in out


def test_fusion_query_identity_row(capsys):
    code, out, _ = run(capsys, "fusion", "query", "--k", "2", "V+", "V+", "V+")
    assert code == EXIT_OK
    assert "value 1" in out


def test_fusion_query_json_record(capsys):
    code, out, _ = run(
        capsys, "fusion", "query", "--k", "3", "V-", "Va+", "Va+", "--format", "json"
    )
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["k"] == 3
    assert rec["triple"] == ["V-", "Va+", "Va+"]
    assert rec["value"] == 0
    assert rec["bound"] >= 1
    assert rec["witnesses"] == []


def test_fusion_query_bad_label(capsys):
    code, _, err = run(capsys, "fusion", "query", "--k", "2", "V?", "V+", "V+")
    assert code == EXIT_FAIL
    assert "unknown module label" in err


def test_fusion_query_rejects_boundary_coset(capsys):
    code, _, err = run(capsys, "fusion", "query", "--k", "2", "Vl2", "V+", "V+")
    assert code == EXIT_FAIL
    assert "Va+" in err  # descriptive redirect to the eigenspace labels


@pytest.mark.parametrize("k", ("0", "-3"))
@pytest.mark.parametrize("which", (("query", "V+", "V+", "V+"), ("table",)))
def test_fusion_rejects_nonpositive_k(capsys, which, k):
    code, out, err = run(capsys, "fusion", *which[:1], "--k", k, *which[1:])
    assert code == EXIT_FAIL
    assert out == ""
    assert err == "error: k must be a positive integer\n"


@pytest.mark.parametrize("k", ("0", "-2"))
@pytest.mark.parametrize(
    "argv",
    (
        ("verify", "jacobi"),
        ("dump", "delta"),
        ("dump", "zhu"),
        ("zhu", "table"),
        ("witness", "--type", "Vl1,VT1+,VT2+"),
    ),
)
def test_commands_reject_nonpositive_k(capsys, argv, k):
    code, out, err = run(capsys, *argv, "--k", k)
    assert code == EXIT_FAIL
    assert out == ""
    assert err == "error: k must be a positive integer\n"


@pytest.mark.parametrize(
    "argv, option",
    (
        (("verify", "jacobi", "--k", "1", "--cutoff", "-2"), "cutoff"),
        (("verify", "decomp", "--k", "2", "--cutoff=-1/2"), "cutoff"),
        (("witness", "--type", "Vl1,VT1+,VT2+", "--k", "2", "--cutoff", "-1"), "cutoff"),
        (("dump", "delta", "--order", "-1"), "order"),
        (("dump", "decompose", "--k", "2", "--module", "Va+", "--window", "-1"), "window"),
    ),
)
def test_negative_sizes_are_usage_errors(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_FAIL
    assert out == ""
    assert err == f"error: --{option} must be nonnegative\n"


@pytest.mark.parametrize(
    "command",
    (("verify", "jacobi", "--k", "2"), ("witness", "--type", "Vl1,VT1+,VT2+", "--k", "2")),
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("cutoff", ("abc", "nan", "inf", "1/0"))
def test_a_malformed_cutoff_is_a_usage_error(capsys, command, cutoff):
    # every malformed value, a zero denominator among them, names the type
    # and not the private helper that parses it
    code, out, err = run(capsys, *command, "--cutoff", cutoff)
    assert code == EXIT_FAIL
    assert out == ""
    assert err.endswith(f"error: argument --cutoff: invalid Fraction value: '{cutoff}'\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", ("table1", "identities", "closure", "bounds", "psi", "p31"))
@pytest.mark.parametrize(
    "option, value",
    (("cutoff", "0"), ("cutoff", "3"), ("seed", "0"), ("seed", "7")),
    ids=("0", "3", "seed=0", "seed=7"),
)
def test_a_cutoff_for_a_suite_that_ignores_it_is_a_usage_error(capsys, suite, option, value):
    # these suites read no cutoff, and no suite reads a seed: a run with one
    # must not print a PASS that the option had no part in
    code, out, err = run(capsys, "verify", suite, "--k", "2", f"--{option}", value)
    assert code == EXIT_FAIL
    assert out == ""
    if option == "seed":
        assert err == unrecognized(f"--seed {value}")
    else:
        assert err == f"error: verify {suite} takes no --cutoff\n"


@pytest.mark.parametrize("suite", ("decomp", "delta", "jacobi"))
@pytest.mark.parametrize("seed", ("0", "7"))
def test_a_seed_is_a_usage_error_for_the_suites_that_read_a_cutoff(capsys, suite, seed):
    # the six suites above refuse a seed too, so every suite does:
    # `verify jacobi` checks one fixed input set and never read its seed
    code, out, err = run(capsys, "verify", suite, "--k", "2", "--cutoff", "1", "--seed", seed)
    assert code == EXIT_FAIL
    assert out == ""
    assert err == unrecognized(f"--seed {seed}")


@pytest.mark.parametrize(
    "argv",
    (
        ("verify", "decomp", "--seed", "1"),
        ("verify", "delta", "--cutoff", "2", "--seed", "0"),
        ("dump", "zhu", "--window", "3"),
        ("dump", "zhu", "--order", "2"),
        ("dump", "zhu", "--module", "Va+"),
        ("dump", "delta", "--window", "9"),
        ("dump", "delta", "--module", "Va+"),
        ("dump", "decompose", "--module", "Va+", "--order", "2"),
        ("dump", "table", "--order", "2"),
    ),
    ids=" ".join,
)
def test_an_option_the_command_ignores_is_a_usage_error(capsys, argv):
    # `--order` is read by `dump delta` alone, `--module` and `--window` by
    # `dump decompose` alone and `--seed` by no command; anywhere else the
    # option (the last one given) would change nothing and the command
    # would still exit 0
    code, out, err = run(capsys, *argv)
    assert code == EXIT_FAIL
    assert out == ""
    if argv[-2] == "--seed":
        assert err == unrecognized(" ".join(argv[-2:]))
    else:
        assert err == f"error: {argv[0]} {argv[1]} takes no {argv[-2]}\n"


@pytest.mark.parametrize("cutoff", ("5/2", "1/2"))
def test_verify_delta_rejects_a_fractional_cutoff(capsys, cutoff):
    # the cutoff is the series order: 5/2 must not run order 2, and 1/2 must
    # not print order-0 passes that compare nothing
    code, out, err = run(capsys, "verify", "delta", "--cutoff", cutoff)
    assert code == EXIT_FAIL
    assert out == ""
    assert err == "error: verify delta needs an integer --cutoff\n"
    code, out, _ = run(capsys, "verify", "delta", "--cutoff", "2")
    assert code == EXIT_OK
    assert "order 2" in out


@pytest.mark.parametrize("cutoff", ("1/3", "5/4"))
def test_verify_decomp_rejects_a_cutoff_off_the_half_grid(capsys, cutoff):
    # weights are checked in steps of 1/2: 1/3 must not check the top weight
    # alone and report "weights up to top+1/3 agree"
    code, out, err = run(capsys, "verify", "decomp", "--cutoff", cutoff)
    assert code == EXIT_FAIL
    assert out == ""
    assert err == "error: verify decomp needs a --cutoff that is a multiple of 1/2\n"
    code, out, _ = run(capsys, "verify", "decomp", "--cutoff", "3/2")
    assert code == EXIT_OK
    assert "weights up to top+3/2 agree" in out


def test_fusion_table_csv_shape(capsys):
    code, out, _ = run(capsys, "fusion", "table", "--k", "1", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "w1,w2,w3,value"
    assert len(lines) == 1 + 8**3


@pytest.mark.parametrize("suite", SUITES)
def test_verify_suites_pass_at_k2(capsys, suite):
    code, out, _ = run(capsys, "verify", suite, "--k", "2")
    assert code == EXIT_OK, out
    assert "FAIL" not in out


@pytest.mark.parametrize("k", ("1", "2", "3", "4"))
def test_verify_jacobi_items_compare_nonzero_images(capsys, monkeypatch, k):
    # each item runs several checker calls; record every call's own count,
    # so a call that compared only zeros cannot hide behind the others
    counts = []
    swept = verify._swept

    def recording(results, detail):
        def record():
            for name, (ok, count) in results:
                counts.append((name, count))
                yield name, (ok, count)

        return swept(record(), detail)

    monkeypatch.setattr(verify, "_swept", recording)
    code, out, _ = run(capsys, "verify", "jacobi", "--k", k, "--format", "json")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert [r["status"] for r in results] == ["pass"] * 5  # a sweep of zero images would report skip
    assert results[-1]["name"] == "intertwiner Jacobi residue"
    # two cosets, r in {1, k, 2k}, three and two conjugations, eight residues
    assert len(counts) == 2 + len({1, int(k), 2 * int(k)}) + 3 + 2 + 8
    assert [name for name, count in counts if not count] == []


def test_verify_jacobi_residue_skips_the_vacuous_e_calls_at_k6(capsys):
    # from k=6 on, the sweep of depth 4 reaches no nonzero image of E_n on
    # e[1] at n = k-1, k for either intertwiner, while the omega calls do
    code, out, _ = run(capsys, "verify", "jacobi", "--k", "6", "--format", "json")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert [r["status"] for r in results] == ["pass"] * 4 + ["skip"]
    assert results[-1]["detail"] == (
        "Y[1,1], a=E, n=5; Y[1,1], a=E, n=6; Y[1,-1]∘theta, a=E, n=5; "
        "Y[1,-1]∘theta, a=E, n=6 compared only zeros"
    )


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_verify_jacobi_checks_the_twisted_basis_up_to_weight_three_halves(capsys, monkeypatch, k):
    # the vectors each twisted item checks; nothing else pins them, so a
    # change that shrank the set would still pass
    calls = []

    def commutators(mode, a, a_on, ns, u, vectors, depth, grid=None):
        calls.append((mode, list(vectors)))
        return True, 1

    def conjugations(mode, u, vectors, depth, dress=None):
        calls.append((mode, list(vectors)))
        return True, 1

    monkeypatch.setattr(verify, "commutator_formula_check", commutators)
    monkeypatch.setattr(verify, "conjugation_check", conjugations)
    code, _, _ = run(capsys, "verify", "jacobi", "--k", str(k), "--cutoff", "0")
    assert code == EXIT_OK
    params = ring.RingParams(k)
    sector1, sector2 = (
        [TVector(params, {key: 1}) for key in twisted_basis(params, sector, Fraction(3, 2))]
        for sector in (1, 2)
    )
    half = Fraction(1, 2)
    assert [next(iter(v.terms)) for v in sector1 + sector2] == [
        (parts, sector) for sector in (1, 2) for parts in ((), (half,), (half, half))
    ]
    twisted = [(mode, vs) for mode, vs in calls if any(isinstance(v, TVector) for v in vs)]
    # the twisted commutators at r = 1, k, 2k, then conjugation at three u,
    # then the sector-map conjugation at two u
    assert twisted == (
        [(verify.mtheta_mode, sector1)] * (len({1, k, 2 * k}) + 3)
        + [(verify.tilde_mode, sector1 + sector2)] * 2
    )


# an unknown option beside the labels, whose value argparse reads as the
# first LABEL, pushing the last one out: the tree's own error would name
# `--seed V+`; `main` names the option with its value (.github/cli_digest.py
# runs both lines too)
UNKNOWN_OPTION_LINES = {
    ("fusion", "query", "--k", "2", "--seed", "1", *V3): "--seed 1",
    ("fusion", "query", "--k", "2", "--seed", "1", *V3, "extra"): "--seed 1 extra",
}
# the digest's parse lines but for UNKNOWN_OPTION_LINES, where `main` and the
# tree name the unknown option differently
PARSE_LINES = tuple(line for line in cli_lines.PARSE_LINES if line not in UNKNOWN_OPTION_LINES)
# one well-formed line per command path: (command words, the rest)
COMMAND_PATHS = (
    (("fusion", "query"), ("--k", "2", *V3)),
    (("fusion", "table"), ("--k", "2", "--format", "json")),
    (("verify",), ("p31", "--k", "2")),
    (("dump",), ("delta", "--order", "2")),
    (("zhu", "table"), ("--k", "2")),
    (("witness",), ("--type", "V+,V+,V+", "--k", "2")),
)


def no_parsers_built():
    """Forget every parser built so far, as a fresh process starts."""
    cli._parsers.cache_clear()
    cli._leaf.cache_clear()


def tree_built() -> bool:
    return cli._parsers.cache_info().currsize > 0


@pytest.mark.parametrize(
    "argv", PARSE_LINES + tuple(words + rest for words, rest in COMMAND_PATHS),
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_main_parses_a_line_as_the_whole_tree_does(capsys, argv):
    """`main` hands a line to the parser its command words name, built on
    its own.  A line the tree refuses or answers with help must print and
    exit as the tree's `parse_args` does, leftovers refused with the
    top-level usage; a line it parses must give the tree's namespace but
    for the `command` and `which` dests of the levels walked past, with no
    tree built."""
    try:
        tree = build_parser().parse_args(argv)
    except SystemExit as exc:
        want = (EXIT_FAIL if exc.code else EXIT_OK, *capsys.readouterr())
        no_parsers_built()
        assert run(capsys, *argv) == want
        return
    want = {dest: v for dest, v in vars(tree).items() if dest not in ("command", "which")}
    no_parsers_built()
    assert vars(cli._parse(list(argv))) == want
    assert not tree_built()
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", UNKNOWN_OPTION_LINES, ids=" ".join)
def test_an_unknown_option_is_named_with_its_value(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_FAIL, "", unrecognized(UNKNOWN_OPTION_LINES[argv]))


@pytest.fixture
def parsed(monkeypatch):
    """The prog of every parser whose `parse_known_args` runs."""
    progs = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(parser, *args, **kwargs):
        progs.append(parser.prog)
        return parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    return progs


@pytest.mark.parametrize("words, rest", COMMAND_PATHS, ids=[" ".join(w) for w, _ in COMMAND_PATHS])
def test_a_well_formed_line_is_read_with_no_argparse_call(capsys, parsed, words, rest):
    assert run(capsys, *words, *rest)[0] == EXIT_OK
    assert parsed == []


def test_a_line_the_reader_refuses_is_parsed_once_by_its_leaf(capsys, parsed):
    # `--k=2` is no exact option string, so argparse reads the line
    code, out, _ = run(capsys, "fusion", "query", "--k=2", *V3)
    assert (code, out) == (EXIT_OK, "V+ x V+ -> V+: value 1 (bound 1) witnesses: Y[0,0]\n")
    assert parsed == ["orbifold-voa fusion query"]


# per command path: its words, its options (option -> (required, values
# to draw, a bad one among them)) and its positionals (the values to draw,
# one tuple per word)
K_VALUES = ("2", "12", "two")
LINE_SPECS = (
    (("fusion", "query"), {"--k": (True, K_VALUES), "--format": (False, ("json", "text", "xml"))},
     (("V+", "Vl1", "VT1+"),) * 3),
    (("fusion", "table"), {"--k": (True, K_VALUES), "--format": (False, ("json", "csv", "text"))}, ()),
    (("verify",), {"--k": (False, K_VALUES), "--cutoff": (False, ("0", "1/2", "abc")),
                   "--format": (False, ("text", "json", "csv"))}, (("p31", "psi", "nosuch"),)),
    (("dump",), {"--k": (False, K_VALUES), "--order": (False, ("2", "x")), "--window": (False, ("1", "x")),
                 "--module": (False, ("Va+", "")), "--format": (False, ("csv", "json", "xml"))},
     (("delta", "zhu", "nosuch"),)),
    (("zhu", "table"), {"--k": (True, K_VALUES), "--format": (False, ("text", "json", "csv"))}, ()),
    (("witness",), {"--type": (True, ("V+,V+,V+", "Vl1,VT1+,VT2+")), "--k": (True, K_VALUES),
                    "--cutoff": (False, ("0", "5/2", "abc"))}, ()),
)
JUNK = ("--", "-h", "--k=2", "--form", "-3", "extra", "")
DASHES = tuple(token for token in JUNK if token.startswith("-"))


@st.composite
def near_valid_lines(draw):
    """A well-formed line of one command path, its options in any order and
    its positionals split in two runs at any gaps between the options, then
    up to two slips: a junk token put in or put in place of a token, a
    token dropped, one or two tokens repeated, or the value of an option
    replaced by a junk token that starts with a dash."""
    words, options, positionals = draw(st.sampled_from(LINE_SPECS))
    pairs = [
        [option, draw(st.sampled_from(values))]
        for option, (required, values) in options.items()
        if required or draw(st.booleans())
    ]
    chunks = draw(st.permutations(pairs))
    loose = [draw(st.sampled_from(values)) for values in positionals]
    cut = draw(st.integers(0, len(loose)))
    first, second = sorted(draw(st.integers(0, len(chunks))) for _ in range(2))
    chunks.insert(second, loose[cut:])
    chunks.insert(first, loose[:cut])
    line = [*words, *(token for chunk in chunks for token in chunk)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(line)))
        slip = draw(st.sampled_from(("junk", "swap", "drop", "repeat", "dash")))
        if slip == "dash":
            values = [j + 1 for j, token in enumerate(line[:-1]) if token in options]
            if values:
                line[draw(st.sampled_from(values))] = draw(st.sampled_from(DASHES))
        elif slip in ("junk", "swap"):
            line[i:i + (slip == "swap")] = [draw(st.sampled_from(JUNK))]
        elif slip == "drop":
            del line[i:i + 1]
        else:
            line[i:i] = line[i:i + draw(st.integers(1, 2))]
    return line


def _outcome(parse, argv):
    """What `parse` makes of `argv`: its namespace, or the exit code and
    output of the help or error it printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=near_valid_lines())
@example(argv=["fusion", "query", "V+", "--k", "2", "V+", "V+"])
@example(argv=["witness", "--k", "2", "--type", "-h"])  # a str option takes no dash value
def test_a_near_valid_line_is_parsed_as_the_whole_tree_does(argv):
    """`_parse`, from no parser built, whether it reads the line itself or
    hands it to argparse, gives the tree's namespace but for the `command`
    and `which` dests, with no tree built, or the tree's exit code and
    output; an unknown option beside a loose positional is named with its
    value (see `test_an_unknown_option_is_named_with_its_value`), so there
    only the message up to `unrecognized arguments:` is the tree's."""
    want = _outcome(build_parser().parse_args, argv)
    no_parsers_built()
    got = _outcome(cli._parse, argv)
    if isinstance(want, dict):
        assert got == {dest: v for dest, v in want.items() if dest not in ("command", "which")}
        assert not tree_built()
        return
    head = "error: unrecognized arguments: "
    if head in want[2]:
        want, got = (*want[:2], want[2].partition(head)[0]), (*got[:2], got[2].partition(head)[0])
    assert got == want


def test_verify_takes_only_k_cutoff_and_format():
    args = build_parser().parse_args(["verify", "jacobi"])
    assert sorted(vars(args)) == ["command", "cutoff", "fn", "format", "k", "suite"]


def test_verify_jacobi_skips_an_empty_sweep(capsys):
    code, out, _ = run(capsys, "verify", "jacobi", "--k", "2", "--cutoff", "0", "--format", "json")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    # the twisted commutators at n = -3/2 still reach weight 3 and compare
    # nonzero images, and so do the omega residues of Y_rs∘theta, whose
    # images of e[1] on theta(e[1]) = e[-1] include weight 0; the other
    # residue calls compare only zeros, so that item is skipped too
    assert [r["status"] for r in results] == ["skip", "pass", "skip", "skip", "skip"]
    assert [r["detail"] for r in results if r["status"] == "skip"] == [
        "coset 0; coset 1 compared only zeros",
        "u = e[1]; u = a(-1)e[1]; u = e[4] compared only zeros",
        "u = e[4]; u = e[2] compared only zeros",
        "Y[1,1], a=omega, n=1; Y[1,1], a=E, n=1; Y[1,1], a=E, n=2; "
        "Y[1,-1]∘theta, a=E, n=1; Y[1,-1]∘theta, a=E, n=2 compared only zeros",
    ]


@pytest.mark.parametrize("cutoff, status", (("0", "skip"), ("1", "pass")))
def test_verify_delta_index_symmetry_needs_an_off_diagonal_pair(capsys, cutoff, status):
    # order 0 holds only c[0][0], which the symmetry item would compare with itself
    code, out, _ = run(capsys, "verify", "delta", "--cutoff", cutoff, "--format", "json")
    assert code == EXIT_OK
    items = {r["name"]: r["status"] for r in json.loads(out)["results"]}
    assert items["index symmetry"] == status


def test_a_failing_item_does_not_print_its_pass_text(capsys, monkeypatch):
    monkeypatch.setattr(verify, "forced_zero_coupling", lambda params: False)
    code, out, _ = run(capsys, "verify", "p31", "--k", "2", "--format", "json")
    assert code == EXIT_FAIL
    [item] = json.loads(out)["results"]
    assert item["status"] == "fail"
    assert "forced to zero" not in item["detail"]


def test_a_bound_below_a_fusion_value_fails_the_soundness_item(capsys, monkeypatch):
    monkeypatch.setattr(verify, "upper_bound", lambda w1, w2, w3, k: 0)
    code, out, _ = run(capsys, "verify", "bounds", "--k", "2", "--format", "json")
    assert code == EXIT_FAIL
    item = json.loads(out)["results"][0]
    assert (item["name"], item["status"]) == ("bound soundness", "fail")
    assert item["detail"] == "fusion 1 > bound 0 at V+,V+,V+"


def test_a_constituent_count_that_falls_short_fails_the_decomposition_items(capsys, monkeypatch):
    monkeypatch.setattr(verify, "m1_graded_dim", lambda k, m1, weight, count: [0] * count)
    code, out, _ = run(capsys, "verify", "decomp", "--k", "2", "--format", "json")
    assert code == EXIT_FAIL
    results = json.loads(out)["results"]
    assert len(results) == len(lb.all_labels(2))
    for item in results:
        assert item["status"] == "fail"
        assert item["detail"].endswith("!= constituents 0")


def test_one_constituent_off_at_one_step_fails_at_that_weight(capsys, monkeypatch):
    # M+ (a constituent of V+ alone) counts one more at its fourth step: the
    # V+ item names weight top + 3/2 with both counts, and every other passes
    def one_step_off(k, m1, weight, count):
        dims = m1_graded_dim(k, m1, weight, count)
        if m1 == lb.m_vac(+1):
            dims[3] += 1
        return dims

    monkeypatch.setattr(verify, "m1_graded_dim", one_step_off)
    code, out, _ = run(capsys, "verify", "decomp", "--k", "2")
    assert code == EXIT_FAIL
    first, *rest = out.splitlines()
    assert first == "FAIL  decomposition character of V+: weight 3/2: module 0 != constituents 1"
    assert len(rest) == len(lb.all_labels(2)) - 1
    assert all(line.startswith("PASS ") for line in rest)


def _skewed_delta_rows(order):
    for m, n, c in delta_rows(order):
        yield m, n, c + 1 if (m, n) == (1, 2) else c


# (suite, the `verify` input patched, its replacement, the item's FAIL line): each
# replacement makes one `fail` return of the item fire, the first it reaches
FAIL_RETURNS = {
    "delta symmetry": (
        "delta", "delta_rows", _skewed_delta_rows, "FAIL  index symmetry: c[1][2] != c[2][1]"
    ),
    # psi(r + 1) carries the sign of b(r + 1), not of br
    "psi commutation": (
        "psi", "psi_map", lambda params, r: psi_map(params, r + 1),
        "FAIL  signed-permutation relations: commutation broken at b=-3, r=-12",
    ),
    # e_b is the identity for every b: it commutes with every psi_r, but
    # psi_{-12} = e_{-3} moves under the lattice shift
    "psi translation": (
        "psi", "lattice_sector_map", lambda b: lattice_sector_map(0),
        "FAIL  signed-permutation relations: translation broken at b=-3, r=-12",
    ),
    "psi lattice symmetry": (
        "psi", "psi_map", lambda params, r: psi_map(params, r).scale(-1 if r < 0 else 1),
        "FAIL  reflection special cases: lattice symmetry broken at m=-3",
    ),
    # e_{-1} read as e_0, so the reflection of psi_{-10} loses its sign
    "psi half-shift reflection": (
        "psi", "lattice_sector_map", lambda b: lattice_sector_map(b + 1),
        "FAIL  reflection special cases: half-shift reflection broken at m=-3",
    ),
    "jacobi sweep": (
        "jacobi", "commutator_formula_check", lambda *args: (False, 1),
        "FAIL  untwisted commutators: coset 0",
    ),
}


@pytest.mark.parametrize("case", FAIL_RETURNS)
def test_a_failing_check_prints_its_item_as_fail(capsys, monkeypatch, case):
    suite, name, replacement, line = FAIL_RETURNS[case]
    monkeypatch.setattr(verify, name, replacement)
    cutoff = ("--cutoff", "0") if suite == "jacobi" else ()
    code, out, _ = run(capsys, "verify", suite, "--k", "2", *cutoff)
    assert code == EXIT_FAIL
    assert line in out.splitlines()


def _one_perturbed_call(monkeypatch, n: int, which: str) -> list:
    """Wrap `intertwine.vertex_mode` so that E_n on the vector `which` of
    `forced_zero_coupling` (a1 = alpha(-1)1, v0 = e[k] + e[-k], w =
    alpha(-1)(e[k] - e[-k])) gains that vector, and every other call is
    left alone; returns the list of calls, True for a perturbed one."""
    params = ring.RingParams(2)
    k, e = params.k, lattice_vector(params, 2)
    vectors = {
        "a1": UVector(params, {((1,), 0): 1}),
        "v0": e + lattice_vector(params, -k),
        "w": heis_act(-1, e) - heis_act(-1, lattice_vector(params, -k)),
    }
    calls = []
    vertex_mode = intertwine.vertex_mode

    def perturbed(u, m, v):
        out = vertex_mode(u, m, v)
        calls.append(m == n and v == vectors[which])
        return out + v if calls[-1] else out

    monkeypatch.setattr(intertwine, "vertex_mode", perturbed)
    return calls


@pytest.mark.parametrize(
    "n, which",
    ((0, "a1"), (1, "a1"), (1, "v0"), (2, "w"), (2, "v0")),
    ids=("E_0 a1", "E_1 a1", "E_{k-1} v0", "E_k w", "E_k v0"),
)
def test_a_broken_ingredient_leaves_the_coupling_undetermined(capsys, monkeypatch, n, which):
    # each of the five ingredient checks of `forced_zero_coupling` at k = 2,
    # failed by the one call it makes: the function returns right after it
    calls = _one_perturbed_call(monkeypatch, n, which)
    code, out, _ = run(capsys, "verify", "p31", "--k", "2")
    assert code == EXIT_FAIL
    assert out == "FAIL  forced zero coupling: coupling constant left undetermined\n"
    assert calls.count(True) == 1 and calls[-1]


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "bogus", "--k", "2")
    assert code == EXIT_FAIL


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "p31", "--k", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert list(payload) == ["k", "command", "results"]
    for item in payload["results"]:
        assert list(item) == ["name", "status", "detail"]
        assert item["status"] in ("pass", "fail", "skip")


def test_verify_skip_is_reported_distinctly(capsys):
    code, out, _ = run(capsys, "verify", "table1", "--k", "1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    skips = [r for r in payload["results"] if r["status"] == "skip"]
    assert len(skips) == 3  # the two-dimensional top level at k=1
    assert all("V-" in r["name"] for r in skips)


def test_dump_delta_contains_low_order_value(capsys):
    code, out, _ = run(capsys, "dump", "delta", "--order", "4")
    assert code == EXIT_OK
    assert "1,1,1/16" in out
    assert out.splitlines()[0] == "m,n,c"


def test_dump_delta_refuses_json(capsys):
    # the delta dump is csv only: --format json must not print csv and exit 0
    code, out, err = run(capsys, "dump", "delta", "--order", "4", "--format", "json")
    assert code == EXIT_FAIL
    assert out == ""
    assert err.startswith("error: ") and "json" in err
    code, out, _ = run(capsys, "dump", "delta", "--order", "4", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "m,n,c"


def test_dump_decompose_window(capsys):
    code, out, _ = run(
        capsys, "dump", "decompose", "--k", "2", "--module", "Va+", "--window", "2"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "constituent,lattice_index,norm"
    assert [l.split(",")[0] for l in lines[1:]] == ["M(2)", "M(6)", "M(10)"]


def test_dump_zhu_matches_computed_actions(capsys):
    code, out, _ = run(capsys, "dump", "zhu", "--k", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    acts = payload["actions"]
    assert acts["VT1+"]["omega"] == "(1/16)*zeta^0*t^0"
    assert acts["VT1+"]["J"] == "(3/128)*zeta^0*t^0"
    assert acts["Va-"]["E"] == "(-1)*zeta^0*t^0"


def test_zhu_table_command(capsys):
    code, out, _ = run(capsys, "zhu", "table", "--k", "3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["command"] == "zhu table"
    assert payload["actions"]["VT2-"]["omega"] == "(9/16)*zeta^0*t^0"
    code, out, _ = run(capsys, "zhu", "table", "--k", "2")
    assert code == EXIT_OK
    assert any(line.startswith("V+") for line in out.splitlines())


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "--type", "Vl1,VT1+,VT2+", "--k", "2", "--cutoff", "2")
    assert code == EXIT_OK
    assert "Ytilde[1]" in out
    code, out, _ = run(capsys, "witness", "--type", "VT1+,V+,VT1+", "--k", "2")
    assert code == EXIT_FAIL
    assert "NO-DIRECT-CONSTRUCTION" in out


@pytest.mark.parametrize("triple", ("V+,VT1+,VT2+", "Vl1,VT1+,VT1+"))
def test_witness_rejects_a_twisted_pair_in_the_wrong_sector(capsys, triple):
    # Ytilde[r] keeps the sector for even r and swaps it for odd r, so no
    # construction reaches these value-0 targets
    code, out, _ = run(capsys, "witness", "--type", triple, "--k", "2")
    assert code == EXIT_FAIL
    assert out == "NO-DIRECT-CONSTRUCTION\n"


def test_witness_projects_onto_the_target_eigenspace(capsys):
    # value 0: the image of Ytilde[0] stays in the plus eigenspace of VT1
    code, out, _ = run(capsys, "witness", "--type", "V+,VT1+,VT1-", "--k", "2")
    assert code == EXIT_FAIL
    assert out == "ZERO-UP-TO-CUTOFF\n"


@pytest.mark.parametrize(
    "argv",
    (
        ("fusion", "query", "--k", "2", "V+", "V+", "V+"),
        ("fusion", "table", "--k", "2"),
        ("dump", "table", "--k", "2"),
        ("verify", "closure", "--k", "2"),
        ("verify", "bounds", "--k", "2"),
    ),
)
def test_inconsistent_table_exits_2(capsys, monkeypatch, argv):
    def inconsistent(k):
        raise EngineInconsistencyError({(lb.u_plus(), lb.u_plus(), lb.u_minus())}, set())

    monkeypatch.setattr(cli, "get_engine", inconsistent)
    monkeypatch.setattr(verify, "get_engine", inconsistent)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INCONSISTENT
    assert out == ""
    assert err.startswith("fusion table inconsistent: ")


def fresh_env() -> dict:
    """The environment of a fresh `python -m orbifold_voa.cli` on this src."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_a_closed_stdout_ends_the_output_without_a_traceback():
    """The reader takes one line and closes the pipe, as `| head -1` does.
    The table is larger than a pipe's buffer, so the command is still
    writing when the pipe closes."""
    argv = [sys.executable, "-m", "orbifold_voa.cli", "fusion", "table", "--k", "16"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env()) as proc:
        assert proc.stdout.readline() == b"w1,w2,w3,value\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert err == b""
    assert code == EXIT_FAIL


def cap_address_space():
    """preexec_fn of a child capped at 512 MB of address space, the child
    alone."""
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize(
    "line, head",
    (
        ("dump delta --order 100000", (b"m,n,c\n", b"0,0,0\n", b"0,1,-1/4\n")),
        ("fusion table --k 200", (b"w1,w2,w3,value\n", b"V+,V+,V+,1\n", b"V+,V+,V-,0\n")),
    ),
    ids=("dump delta", "fusion table"),
)
def test_a_large_output_is_printed_as_it_is_computed(line, head):
    """The reader takes three lines and closes the pipe, in a child capped
    at 512 MB.  Either output, built whole before its first line, would
    not fit under the cap (the C(-1/2, j) of order 100,000 alone take
    gigabytes, and the table has 207^3 rows); printed row by row, its
    first lines come at once and the closed pipe ends the command."""
    argv = [sys.executable, "-m", "orbifold_voa.cli", *line.split()]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env(), preexec_fn=cap_address_space
    ) as proc:
        got = tuple(proc.stdout.readline() for _ in head)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert got == head
    assert (err, code) == (b"", EXIT_FAIL)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_json_fusion_table_prints_the_bytes_of_json_dumps(capsys, k):
    # the JSON table is written row by row; its bytes must be those of
    # json.dumps of the whole document, read from the engine's table
    eng = get_engine(k)
    codes = [label.code for label in eng.labels]
    n = len(codes)
    triples = [
        {"triple": [codes[i], codes[j], codes[l]], "value": 1 if (i, j, l) in eng.table else 0}
        for i in range(n)
        for j in range(n)
        for l in range(n)
    ]
    want = json.dumps({"k": k, "command": "fusion table", "triples": triples}) + "\n"
    assert any(t["value"] for t in triples) and not all(t["value"] for t in triples)
    for command in ("fusion", "dump"):
        assert run(capsys, command, "table", "--k", str(k), "--format", "json") == (EXIT_OK, want, "")


def test_dump_delta_prints_the_rows_of_delta_rows(capsys):
    # `dump delta` prints the rows of `delta_rows`, in their (m, n) order
    code, out, _ = run(capsys, "dump", "delta", "--order", "200")
    assert code == EXIT_OK and len(out.splitlines()) == 1 + 201 * 202 // 2
    code, out, _ = run(capsys, "dump", "delta", "--order", "40")
    tab = {(m, n): c for m, n, c in delta_rows(40)}
    assert out.splitlines() == ["m,n,c", *(f"{m},{n},{tab[m, n]}" for m, n in sorted(tab))]


@pytest.mark.parametrize(
    "line, err",
    (
        ("verify decomp --k 1 --cutoff 1/3", "verify decomp needs a --cutoff that is a multiple of 1/2"),
        ("verify delta --cutoff 1/2", "verify delta needs an integer --cutoff"),
    ),
)
def test_a_suite_s_usage_error_in_a_fresh_process_is_main_s(line, err):
    # `python -m` runs cli as __main__, and a suite's refusal
    # (`verify.refusal`) must reach `main` as the UsageError it catches
    argv = [sys.executable, "-m", "orbifold_voa.cli", *line.split()]
    proc = subprocess.run(argv, capture_output=True, text=True, env=fresh_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_FAIL, "", f"error: {err}\n")


@pytest.mark.parametrize("k", range(2, 25))
def test_verify_identities_predicts_its_vector_size(k):
    # the count `verify.refusal` weighs is the key count of each lattice
    # index of the suite's zero-mode vector
    params = RingParams(k)
    v0 = lattice_vector(params, k) + lattice_vector(params, -k)
    assert len(vertex_mode(e_vec(params), 0, v0).terms) == 2 * partition_count(k - 1)


def test_verify_identities_runs_up_to_its_limit_and_refuses_above_it():
    top = max(k for k in range(1, 200) if partition_count(k - 1) <= verify.IDENTITIES_KEYS)
    assert top >= 40  # CI runs `verify identities --k 40`
    assert verify.refusal("identities", top, None) is None
    assert verify.refusal("identities", top + 1, None) == (
        f"verify identities at k = {top + 1} builds vectors of p(k - 1) = "
        f"{partition_count(top):,} keys, above the limit of {verify.IDENTITIES_KEYS:,}: "
        f"the largest k it runs is {top}"
    )
    # past k = 1000 the count is bounded, not computed, so the refusal stays fast
    assert f"p(k - 1) = more than {partition_count(999):,} keys" in verify.refusal("identities", 5000, None)


def test_verify_identities_refuses_k_80_before_it_builds_anything():
    # a child capped at 512 MB of address space: a refusal that came too late
    # would end in a MemoryError, and the timeout stops a slow one
    argv = [sys.executable, "-m", "orbifold_voa.cli", "verify", "identities", "--k", "80"]
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=fresh_env(), preexec_fn=cap_address_space, timeout=1
    )
    assert (proc.returncode, proc.stdout) == (EXIT_FAIL, "")
    assert proc.stderr == (
        "error: verify identities at k = 80 builds vectors of p(k - 1) = 13,848,650 keys, "
        "above the limit of 200,000: the largest k it runs is 50\n"
    )


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_verify_delta_passes_every_item_at_order_24(capsys, fmt):
    # the residual item checks c[m][n] through m + n = 25 against the
    # defining equation, above the order 8 of the oracle tests
    code, out, _ = run(capsys, "verify", "delta", "--cutoff", "24", "--format", fmt)
    assert code == EXIT_OK
    if fmt == "json":
        statuses = [item["status"] for item in json.loads(out)["results"]]
    else:
        statuses = [line.split()[0].lower() for line in out.splitlines()]
    assert statuses == ["pass"] * 3


# sha256 (first 16 hex digits) over "W1,W2,W3:names" lines of every value-1
# triple in `all_triples` order, taken from the names before `direct_witness`
# read the labels alone, when it still built the top vectors
WITNESS_NAME_DIGESTS = {
    1: (64, "941cbf63b81f7d38"),
    2: (100, "4f416d8111d3ef59"),
    3: (140, "9da5dd27689c96c5"),
    4: (184, "effc7f2cbd302c72"),
    5: (232, "8ba382a4643ec592"),
    6: (284, "fd45fc76f4763aa7"),
    7: (340, "bbe793c762042884"),
    8: (400, "7c21f798a170bfc5"),
}


@pytest.mark.parametrize("k", sorted(WITNESS_NAME_DIGESTS))
def test_witness_names_build_no_ring(monkeypatch, k):
    eng = get_engine(k)

    def no_ring(self, *args):
        raise AssertionError("witness_names built a RingParams")

    monkeypatch.setattr(ring.RingParams, "__init__", no_ring)
    h = hashlib.sha256()
    n = 0
    for t in eng.all_triples():
        if eng.fusion(*t):
            n += 1
            names = witness_names(k, t)
            h.update((",".join(w.code for w in t) + ":" + ";".join(names) + "\n").encode())
    assert (n, h.hexdigest()[:16]) == WITNESS_NAME_DIGESTS[k]


def _label_sweep(eng):
    """The symmetry sweep through the label API, the reference for the
    index sweep of `verify closure`."""
    for w1, w2, w3 in eng.all_triples():
        f = eng.fusion(w1, w2, w3)
        if f != eng.fusion(w2, w1, w3):
            return "fail", f"swap symmetry broken at {w1.code},{w2.code},{w3.code}"
        if f != eng.fusion(w1, lb.contragredient(w3, eng.k), lb.contragredient(w2, eng.k)):
            return "fail", f"dual symmetry broken at {w1.code},{w2.code},{w3.code}"
    return "pass", f"all {(eng.k + 7) ** 3} triples symmetric"


@pytest.mark.parametrize("k", (1, 2, 3))
def test_symmetry_sweep_matches_the_label_sweep(k):
    # the intact table passes; with one triple dropped (a whole orbit when
    # the triple is its own swap and dual image) both sweeps give the same
    # verdict, and a failure names the same first triple and symmetry
    eng = get_engine(k)
    assert verify._symmetry_sweep(eng) == _label_sweep(eng) == ("pass", f"all {(k + 7) ** 3} triples symmetric")
    kinds = set()
    for t in sorted(eng.table)[:: max(1, len(eng.table) // 12)]:
        broken = copy.copy(eng)
        broken.table = eng.table - {t}
        got = verify._symmetry_sweep(broken)
        assert got == _label_sweep(broken), t
        kinds.add(got[1].split()[0])
    assert {"swap", "dual"} <= kinds


def test_output_determinism(capsys):
    args = ("fusion", "table", "--k", "2", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("verify", "closure", "--k", "3", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_repeated_main_calls_share_the_parser(capsys):
    assert build_parser() is build_parser()
    calls = [
        ("fusion", "query", "--k", "3", "V-", "Va+", "Va+", "--format", "json"),
        ("verify", "p31", "--k", "2"),
        ("fusion", "query", "--k", "2", "Vl1", "VT1+"),
        ("fusion", "query", "--k", "2", "Vl1", "VT1+", "VT2+"),
    ]
    first = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [EXIT_OK, EXIT_OK, EXIT_FAIL, EXIT_OK]
    assert "usage:" in first[2][2]
    assert json.loads(first[0][1])["bound"] >= 1
    assert "value 1" in first[3][1]
    assert [run(capsys, *argv) for argv in calls] == first


def test_verify_bounds_at_k12(capsys):
    code, out, _ = run(capsys, "verify", "bounds", "--k", "12")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 7  # soundness and the six bound-blind zeros
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_decomp_at_k24(capsys):
    code, out, _ = run(capsys, "verify", "decomp", "--k", "24", "--cutoff", "4")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 24 + 7  # one item per label
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_decomp_builds_no_ring(capsys, monkeypatch):
    def no_ring(self, *args):
        raise AssertionError("verify decomp built a RingParams")

    monkeypatch.setattr(ring.RingParams, "__init__", no_ring)
    code, out, _ = run(capsys, "verify", "decomp", "--k", "5", "--cutoff", "3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 5 + 7
    assert all(line.startswith("PASS ") for line in lines)


# every command that builds a ring: the verify suites that read one, the
# Zhu table in both commands, and an untwisted and a twisted witness
RING_COMMANDS = (
    *(("verify", suite) for suite in ("identities", "table1", "psi", "p31", "jacobi")),
    ("zhu", "table"),
    ("dump", "zhu"),
    ("witness", "--type", "V+,Va+,Va+"),
    ("witness", "--type", "Vl1,VT1+,VT2+"),
)


@pytest.mark.parametrize("k", (2, 3, 4))
def test_a_command_s_ring_dies_with_the_command(capsys, k):
    """With the cyclic garbage collector off, no RingParams outlives the
    command that built it: no value of its memo refers back to it, so
    reference counting frees the ring and its tables when the command
    returns.  Rings alive before the test are left out."""
    gc.collect()
    alive = {id(o) for o in gc.get_objects() if type(o) is RingParams}
    gc.disable()
    try:
        for argv in RING_COMMANDS:
            code, out, _ = run(capsys, *argv, "--k", str(k))
            assert code == EXIT_OK and out, argv
            left = [o for o in gc.get_objects() if type(o) is RingParams and id(o) not in alive]
            assert left == [], argv
    finally:
        gc.enable()


@pytest.mark.parametrize("k", (17, 20))
def test_witness_searches_above_the_target_top_level_by_default(capsys, k):
    """Va+- (top weight k/4) and Vl<r> (r^2/4k) start above weight 4 from
    about k = 17, so the default search reaches 4 above the target's top
    weight: every value-1 triple with a direct construction prints a
    nonzero mode, as `fusion query` names one for it."""
    eng = get_engine(k)
    triples = [t for t in eng.all_triples() if eng.fusion(*t) and direct_witness(k, t)]
    assert len(triples) == {17: 560, 20: 716}[k]
    for t in triples:
        code, out, _ = run(capsys, "witness", "--type", ",".join(w.code for w in t), "--k", str(k))
        assert code == EXIT_OK, (out, *t)
