"""The parsing lines that `.github/cli_digest.py` runs last and
`tests/test_cli.py` checks against the whole parser tree: help at every
level, unknown commands, subcommands and options, missing and extra
positionals and options (an unknown option before, after and beside the
labels among them), labels split by an option, options above their
command, the `--form` abbreviation, `--k=2`, `--`, a bad int and a bad
choice.  Data only: importing this module has no side effect."""

V3 = ("V+", "V+", "V+")
PARSE_LINES = (
    (),
    ("-h",),
    ("fusion", "-h"),
    ("fusion", "query", "-h"),
    ("fusion", "table", "-h"),
    ("verify", "-h"),
    ("dump", "-h"),
    ("zhu", "-h"),
    ("zhu", "table", "-h"),
    ("witness", "-h"),
    ("fusion", "query", "--k", "2", "-h", "V+"),
    ("fuse", "query", "--k", "2", *V3),
    ("fusion", "quer", "--k", "2", *V3),
    ("zhu", "tables", "--k", "2"),
    ("fusion",),
    ("zhu",),
    ("verify",),
    ("dump", "--k", "2"),
    ("fusion", "query", "--k", "2", "V+", "V+"),
    ("fusion", "query", *V3),
    ("witness", "--k", "2"),
    ("fusion", "query", "--k", "2", *V3, "extra"),
    ("verify", "closure", "bounds"),
    ("fusion", "table", "--k", "2", "csv"),
    ("fusion", "query", "--k", "2", "--seed", "1", *V3),
    ("verify", "p31", "--k", "2", "--window", "3"),
    ("--k", "2", "fusion", "query", *V3),
    ("fusion", "--k", "2", "query", *V3),
    ("fusion", "query", "--k", "2", "--form", "json", *V3),
    ("fusion", "query", "--k=2", *V3),
    ("fusion", "query", "--k", "2", "--", *V3),
    ("--", "fusion", "query", "--k", "2", *V3),
    ("fusion", "query", "--k", "two", *V3),
    ("fusion", "query", "--k", "2", "--format", "xml", *V3),
    ("verify", "nosuch", "--k", "2"),
    ("fusion", "query", "--k", "2", *V3, "--seed", "1"),
    ("fusion", "query", "--k", "2", "--seed=1", *V3, "extra"),
    ("fusion", "query", "--k", "2", "--verbose", *V3),
    ("fusion", "query", "--k", "2", "--seed", "1", *V3, "extra"),
    ("fusion", "query", "V+", "--k", "2", "V+", "V+"),
    ("fusion", "query", "--k", "2", "V+", "V+", "--format", "json", "V+"),
)
