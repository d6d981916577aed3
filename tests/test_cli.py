"""Command-line surface: exit codes, schemas, and output determinism."""

import copy
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbifold_voa import cli, ring, zhu
from orbifold_voa import labels as lb
from orbifold_voa.cli import (
    EXIT_FAIL,
    EXIT_INCONSISTENT,
    EXIT_OK,
    SUITES,
    build_parser,
    main,
    witness_names,
)
from orbifold_voa.fock import TVector, twisted_basis
from orbifold_voa.fusion import EngineInconsistencyError, get_engine
from orbifold_voa.intertwine import direct_witness


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
    "argv",
    (
        ("verify", "jacobi", "--k", "2", "--cutoff", "1/0"),
        ("witness", "--type", "Vl1,VT1+,VT2+", "--k", "2", "--cutoff", "1/0"),
    ),
)
def test_zero_denominator_cutoff_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_FAIL
    assert out == ""
    assert err.endswith("error: argument --cutoff: invalid Fraction value: '1/0'\n")
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
    swept = cli._swept

    def recording(results, detail):
        def record():
            for name, (ok, count) in results:
                counts.append((name, count))
                yield name, (ok, count)

        return swept(record(), detail)

    monkeypatch.setattr(cli, "_swept", recording)
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

    monkeypatch.setattr(cli, "commutator_formula_check", commutators)
    monkeypatch.setattr(cli, "conjugation_check", conjugations)
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
        [(cli.mtheta_mode, sector1)] * (len({1, k, 2 * k}) + 3)
        + [(cli.tilde_mode, sector1 + sector2)] * 2
    )


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
    monkeypatch.setattr(cli, "forced_zero_coupling", lambda params: False)
    code, out, _ = run(capsys, "verify", "p31", "--k", "2", "--format", "json")
    assert code == EXIT_FAIL
    [item] = json.loads(out)["results"]
    assert item["status"] == "fail"
    assert "forced to zero" not in item["detail"]


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
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INCONSISTENT
    assert out == ""
    assert err.startswith("fusion table inconsistent: ")


def test_a_closed_stdout_ends_the_output_without_a_traceback():
    """The reader takes one line and closes the pipe, as `| head -1` does.
    The table is larger than a pipe's buffer, so the command is still
    writing when the pipe closes."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-m", "orbifold_voa.cli", "fusion", "table", "--k", "16"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"w1,w2,w3,value\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert err == b""
    assert code == EXIT_FAIL


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
        if f != eng.fusion(w1, zhu.contragredient(w3, eng.k), zhu.contragredient(w2, eng.k)):
            return "fail", f"dual symmetry broken at {w1.code},{w2.code},{w3.code}"
    return "pass", f"all {(eng.k + 7) ** 3} triples symmetric"


@pytest.mark.parametrize("k", (1, 2, 3))
def test_symmetry_sweep_matches_the_label_sweep(k):
    # the intact table passes; with one triple dropped (a whole orbit when
    # the triple is its own swap and dual image) both sweeps give the same
    # verdict, and a failure names the same first triple and symmetry
    eng = get_engine(k)
    assert cli._symmetry_sweep(eng) == _label_sweep(eng) == ("pass", f"all {(k + 7) ** 3} triples symmetric")
    kinds = set()
    for t in sorted(eng.table)[:: max(1, len(eng.table) // 12)]:
        broken = copy.copy(eng)
        broken.table = eng.table - {t}
        got = cli._symmetry_sweep(broken)
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
