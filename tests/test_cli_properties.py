"""Property test for the command line: cli.main, run in-process on argv drawn
over every subcommand and flag and on input files drawn from the two reader
grammars and from a few brackets that satisfy the identity, returns a
documented exit code (0, 1, 2 or 3) or stops with argparse's usage error,
SystemExit(2); no other exception escapes.  An exit-0 canonical algebra or
reduced ideal reads back in."""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie.cli import main
from omegalie.groebner import read_ideal_text
from omegalie.omega import algebra_from_json

from test_algebra_reader_properties import BAD_SCALARS, algebra_texts
from test_reader_properties import BAD_DESCRIPTORS, GOOD_DESCRIPTORS, ideal_texts

PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)

DESCRIPTORS = GOOD_DESCRIPTORS + BAD_DESCRIPTORS + ("QuadExt:Fp:3:1,0", "Fp:3")
ALPHAS = ("0", "2", "-1", "1/2", "[1,1]") + tuple(x for x in BAD_SCALARS if isinstance(x, str))
FORMATS = st.sampled_from(([], [], ["--format", "human"], ["--format", "machine"],
                           ["--format", "machine"], ["--format", "json"]))
# brackets that satisfy the identity with the form J over every field: A, D,
# the B family with [y,z] = s*x - y/2 (s = 1 is canonical B; s = 2, 3, 8 need
# a square root of s), and one whose eigenvalues need t^2 + t + 1
IDENTITY_BRACKETS = (
    {"0,1": ["1", "1", "0"], "0,2": ["0", "1", "0"], "1,2": ["0", "0", "1"]},
    {"0,1": ["0", "1", "0"], "1,2": ["0", "0", "1"]},
    *({"0,1": ["0", "0", "1"], "0,2": ["-1/2", "0", "0"], "1,2": [s, "-1/2", "0"]}
      for s in ("1", "2", "3", "8")),
    {"0,1": ["0", "0", "1"], "0,2": ["0", "1", "0"], "1,2": ["-1", "-1", "0"]},
)
J_ROWS = [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]]


@st.composite
def identity_algebra_texts(draw):
    return json.dumps({"field": draw(st.sampled_from(GOOD_DESCRIPTORS)), "dim": 3,
                       "omega": J_ROWS, "brackets": draw(st.sampled_from(IDENTITY_BRACKETS))})


def input_texts():
    return st.one_of(algebra_texts(), ideal_texts(), identity_algebra_texts())


def optional(values, flag):
    """No option, or flag with one of values."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


def switch(flag):
    return st.sampled_from(([], [flag]))


@st.composite
def calls(draw):
    """(argv, {file name: text}, stdin text) for one call."""
    files, paths = {}, []
    stdin = draw(input_texts())

    def path():
        kind = draw(st.sampled_from(("file", "file", "stdin", "missing")))
        if kind == "stdin":
            return "-"
        name = f"@in{len(paths)}"  # a placeholder for a path in the run's directory
        paths.append(name)
        if kind == "file":
            files[name] = draw(input_texts())
        return name

    command = draw(st.sampled_from(("check", "classify", "iso", "canonical", "omega-reduce",
                                    "variety", "gb", "verify-paper", "no-such-command")))
    argv = [command]
    if command in ("check", "classify", "omega-reduce", "gb"):
        argv.append(path())
    elif command == "iso":
        argv += [path(), path()]
    elif command == "canonical":
        argv.append(draw(st.sampled_from(("A", "B", "C", "D", "E"))))
        argv += draw(optional(ALPHAS, "--alpha")) + draw(optional(DESCRIPTORS, "--field"))
    elif command == "variety":
        argv += draw(optional(("3", "2", "4", "x"), "--dim"))
        argv += draw(optional(DESCRIPTORS, "--field"))
    elif command == "verify-paper":
        argv += draw(optional(("3", "4", "5", "all", "6"), "--section"))
        argv += draw(optional(DESCRIPTORS, "--field"))
    if command in ("classify", "iso"):
        argv += draw(switch("--allow-extension"))
    if command == "classify":
        argv += draw(switch("--strict-c-labels"))
    if command not in ("canonical", "gb"):
        argv += draw(FORMATS)
    return argv, files, stdin


@PROPERTY
@given(calls())
def test_no_cli_call_ends_in_a_traceback(call):
    argv, files, stdin = call
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name[1:]), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, a[1:]) if a.startswith("@") else a for a in argv]
        with mock.patch("sys.stdin", io.StringIO(stdin)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, (argv, err.getvalue())
                return
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 0 and argv[0] == "canonical":
        algebra_from_json(out.getvalue())
    if code == 0 and argv[0] == "gb":
        read_ideal_text(out.getvalue())
