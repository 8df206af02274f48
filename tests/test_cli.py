import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from omegalie.cli import main
from omegalie.classify3 import canonical_algebra, label_a, label_b, label_c, label_d
from omegalie.fields import QQ, PrimeField, parse_descriptor
from omegalie.linalg import Matrix
from omegalie.omega import GroupElement, algebra_to_json, change_basis


@pytest.fixture
def d_file(tmp_path):
    path = tmp_path / "d.alg"
    path.write_text(algebra_to_json(canonical_algebra(label_d(), QQ)))
    return str(path)


@pytest.fixture
def d_moved_file(tmp_path):
    """Canonical D moved by diag(2, 1, 1): its form is J scaled to 1/2 on x, y."""
    g = GroupElement(Matrix.from_rows(QQ, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    path = tmp_path / "d-moved.alg"
    path.write_text(algebra_to_json(change_basis(g, canonical_algebra(label_d(), QQ))))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_valid_algebra(capsys, d_file):
    code, out, _ = run(capsys, ["check", d_file])
    assert code == 0
    assert "ok" in out


def test_check_invalid_algebra(capsys, tmp_path):
    alg = canonical_algebra(label_d(), QQ)
    payload = json.loads(algebra_to_json(alg))
    payload["brackets"]["0,1"] = ["0", "2", "0"]  # breaks the identity
    bad = tmp_path / "bad.alg"
    bad.write_text(json.dumps(payload))
    code, out, _ = run(capsys, ["check", str(bad)])
    assert code == 1
    assert "FAILED" in out


def test_classify_d_identity_witness(capsys, d_file):
    code, out, _ = run(capsys, ["classify", d_file])
    assert code == 0
    assert "label: D" in out
    assert "already canonical" in out


def test_classify_machine_roundtrip(capsys, tmp_path):
    # 2 is its own pair representative over Fp:101 (the partner is 98)
    code, out, _ = run(capsys, ["canonical", "C", "--alpha", "2", "--field", "Fp:101"])
    assert code == 0
    path = tmp_path / "c.alg"
    path.write_text(out)
    code, out2, _ = run(capsys, ["classify", str(path), "--format", "machine"])
    assert code == 0
    payload = json.loads(out2)
    assert payload["label"] == "C:2"
    assert payload["trace"] == []  # identity witness

    # the partner parameter collapses onto the same representative via the swap
    code, out, _ = run(capsys, ["canonical", "C", "--alpha", "98", "--field", "Fp:101"])
    assert code == 0
    path.write_text(out)
    code, out2, _ = run(capsys, ["classify", str(path), "--format", "machine"])
    assert code == 0
    payload = json.loads(out2)
    assert payload["label"] == "C:2"
    assert [s["tag"] for s in payload["trace"]] == ["c-pair-swap"]


EXTENSION_EXAMPLE = {
    "field": "Q",
    "dim": 3,
    "omega": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
    "brackets": {"0,1": ["0", "0", "1"], "0,2": ["0", "1", "0"],
                 "1,2": ["-1", "-1", "0"]},
}


def test_classify_extension_exit_code(capsys, tmp_path):
    path = tmp_path / "ext.alg"
    path.write_text(json.dumps(EXTENSION_EXAMPLE))
    code, out, _ = run(capsys, ["classify", str(path)])
    assert code == 3
    code, out, _ = run(capsys, ["classify", str(path), "--allow-extension"])
    assert code == 0
    assert "QuadExt" in out or "extension minpoly" in out


def test_iso_machine_reports_a_needed_extension_as_json(capsys, tmp_path):
    path = tmp_path / "ext.alg"
    path.write_text(json.dumps(EXTENSION_EXAMPLE))
    machine = json.dumps({"error": "extension_required", "minpoly": ["1", "1"]}) + "\n"
    for argv in (["classify", str(path)], ["iso", str(path), str(path)]):
        code, out, err = run(capsys, argv + ["--format", "machine"])
        assert (code, out, err) == (3, machine, "")
        assert json.loads(out)["error"] == "extension_required"


def _second_extension_file(tmp_path):
    # the brackets of test_classify_extension_exit_code over Q(sqrt 2): the
    # eigenvalues need t^2 + t + 1, which does not split there either
    zero, one, mone = "[0,0]", "[1,0]", "[-1,0]"
    alg = {
        "field": "QuadExt:Q:-2,0",
        "dim": 3,
        "omega": [[zero, one, zero], [mone, zero, zero], [zero, zero, zero]],
        "brackets": {"0,1": [zero, zero, one], "0,2": [zero, one, zero],
                     "1,2": [mone, mone, zero]},
    }
    path = tmp_path / "ext2.alg"
    path.write_text(json.dumps(alg))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["classify", "{0}", "--allow-extension"],
    ["classify", "{0}", "--allow-extension", "--format", "machine"],
    ["classify", "{0}"],
    ["iso", "{0}", "{0}", "--allow-extension"],
    ["iso", "{0}", "{0}"],
], ids=["classify", "classify-machine", "classify-no-flag", "iso", "iso-no-flag"])
def test_second_extension_is_refused(capsys, tmp_path, argv):
    path = _second_extension_file(tmp_path)
    code, out, err = run(capsys, [a.format(path) for a in argv])
    assert (code, out) == (1, "")
    assert err == ("not classifiable: needs a second quadratic extension by"
                   " t^2 + ([1,0])*t + ([1,0]); extension towers are capped at one step\n")


def _jordan_file(tmp_path, square):
    # [x,y] = z, [x,z] = -x/2, [y,z] = square*x - y/2: label B, whose scaling
    # root needs t^2 - square over Q
    alg = dict(EXTENSION_EXAMPLE, brackets={"0,1": ["0", "0", "1"], "0,2": ["-1/2", "0", "0"],
                                            "1,2": [str(square), "-1/2", "0"]})
    path = tmp_path / f"jordan{square}.alg"
    path.write_text(json.dumps(alg))
    return str(path)


def test_classify_jordan_extension_reports_its_minpoly(capsys, tmp_path):
    path = _jordan_file(tmp_path, 2)
    code, out, _ = run(capsys, ["classify", path])
    assert code == 3
    code, out, _ = run(capsys, ["classify", path, "--format", "machine"])
    assert (code, json.loads(out)["minpoly"]) == (3, ["-2", "0"])
    code, out, _ = run(capsys, ["classify", path, "--allow-extension"])
    assert code == 0
    assert out.splitlines()[:3] == ["label: B", "field: QuadExt:Q:-2,0",
                                    "extension minpoly: t^2 + (0)*t + (-2)"]


def test_classify_splits_a_square_with_a_t_part(capsys, tmp_path):
    # 1 - 4*det of the z-adjoint is 3 + 2 sqrt 2 = (1 + sqrt 2)^2
    alg = dict(EXTENSION_EXAMPLE, field="QuadExt:Q:-2,0",
               brackets={"0,1": ["0", "0", "1"], "0,2": ["0", "[1/2,1/2]", "0"],
                         "1,2": ["1", "-1", "0"]})
    path = tmp_path / "square.alg"
    path.write_text(json.dumps(alg))
    for flag in ([], ["--allow-extension"]):
        code, out, err = run(capsys, ["classify", str(path)] + flag)
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["label: C:[-1,-1/2]", "field: QuadExt:Q:-2,0"]


@pytest.mark.parametrize("other", ["a-over-sqrt2", "jordan2"])
def test_iso_tells_apart_pairs_that_need_different_extensions(capsys, tmp_path, other):
    c = tmp_path / "ext.alg"
    c.write_text(json.dumps(EXTENSION_EXAMPLE))
    if other == "jordan2":
        path, label = _jordan_file(tmp_path, 2), "B"
    else:
        path, label = tmp_path / "a.alg", "A"
        path.write_text(algebra_to_json(canonical_algebra(label_a(), parse_descriptor(
            "QuadExt:Q:-2,0"))))
    for pair, labels in (((c, path), f"C:[-1,-1] vs {label}"),
                         ((path, c), f"{label} vs C:[-1,-1]")):
        code, out, err = run(capsys, ["iso", "--allow-extension", *map(str, pair)])
        assert (code, out, err) == (0, f"non-isomorphic: different canonical families"
                                       f" ({labels})\n", "")


def test_iso_without_the_flag_asks_for_the_extension_a_pair_needs(capsys, tmp_path):
    # the C example needs t^2 + t + 1 over Q, and a second one over Q(sqrt 2)
    c, a = tmp_path / "ext.alg", tmp_path / "a.alg"
    c.write_text(json.dumps(EXTENSION_EXAMPLE))
    a.write_text(algebra_to_json(canonical_algebra(label_a(), parse_descriptor(
        "QuadExt:Q:-2,0"))))
    machine = json.dumps({"error": "extension_required", "minpoly": ["1", "1"]}) + "\n"
    for pair in ((c, a), (a, c)):
        argv = ["iso", *map(str, pair)]
        assert run(capsys, argv) == (3, "needs a quadratic extension by t^2 + (1)*t + (1);"
                                        " rerun with --allow-extension\n", "")
        assert run(capsys, argv + ["--format", "machine"]) == (3, machine, "")


def test_iso_extends_the_first_algebra_when_the_second_needs_it(capsys, tmp_path):
    # B over Q classifies over Q; the Jordan example needs sqrt 2, so the first
    # algebra is classified again over Q(sqrt 2) before the witnesses compose
    b = _canonical_file(tmp_path, "b.alg", label_b(), QQ)
    argv = ["iso", b, _jordan_file(tmp_path, 2)]
    assert run(capsys, argv + ["--allow-extension"]) == (
        0, "isomorphic; witness carrying the first algebra onto the second:\n"
           "  [0,1] [0,0] [0,0]\n  [0,0] [0,1/2] [0,0]\n  [0,0] [0,0] [1,0]\n", "")
    assert run(capsys, argv) == (3, "needs a quadratic extension by t^2 + (0)*t + (-2);"
                                    " rerun with --allow-extension\n", "")


def test_iso_refuses_equal_labels_over_different_extensions(capsys, tmp_path):
    argv = ["iso", "--allow-extension", _jordan_file(tmp_path, 2), _jordan_file(tmp_path, 3)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == ("not classifiable: needs a second quadratic extension by"
                   " t^2 + ([0,0])*t + ([-3,0]); extension towers are capped at one step\n")


def test_canonical_rejects_zero_alpha(capsys):
    code, _, err = run(capsys, ["canonical", "C", "--alpha", "0"])
    assert code == 1
    assert "bad label" in err


@pytest.mark.parametrize("argv, err", [
    (["canonical", "B", "--alpha", "2"], "bad label: family B takes no parameter\n"),
    (["canonical", "C"], "bad label: the C family needs --alpha\n"),
])
def test_canonical_refuses_a_missing_or_needless_alpha(capsys, argv, err):
    assert run(capsys, argv) == (1, "", err)


@pytest.mark.parametrize("p", ["1", "0", "-7"])
def test_canonical_refuses_a_prime_field_descriptor_below_two(capsys, p):
    argv = ["canonical", "A", "--field", f"Fp:{p}"]
    assert run(capsys, argv) == (1, "", f"bad input: {p} is not prime\n")


@pytest.mark.parametrize("field, alpha", [("Q", "1/0"), ("Fp:7", "1/7")])
def test_canonical_rejects_zero_denominator_alpha(capsys, field, alpha):
    code, _, err = run(capsys, ["canonical", "C", "--alpha", alpha, "--field", field])
    assert code == 1
    assert "bad label" in err and "divides by zero" in err


def test_iso_commands(capsys, tmp_path):
    a = tmp_path / "a.alg"
    b = tmp_path / "b.alg"
    a.write_text(algebra_to_json(canonical_algebra(label_c(QQ.elem(3)), QQ)))
    b.write_text(algebra_to_json(canonical_algebra(label_c(QQ.elem(-4)), QQ)))
    code, out, _ = run(capsys, ["iso", str(a), str(b)])
    assert code == 0
    assert "isomorphic" in out and "non-isomorphic" not in out
    d = tmp_path / "d.alg"
    d.write_text(algebra_to_json(canonical_algebra(label_d(), QQ)))
    code, out, _ = run(capsys, ["iso", str(a), str(d)])
    assert code == 0
    assert "non-isomorphic" in out


def _canonical_file(tmp_path, name, label, field):
    path = tmp_path / name
    path.write_text(algebra_to_json(canonical_algebra(label, field)))
    return str(path)


@pytest.mark.parametrize("flags, label, trace", [
    ([], "C:-4", "  c-pair-swap:"),
    (["--strict-c-labels"], "C:3", "  already canonical"),
], ids=["loose", "strict"])
def test_classify_of_canonical_c_keeps_its_parameter_only_under_the_strict_flag(
        capsys, tmp_path, flags, label, trace):
    path = _canonical_file(tmp_path, "c3.alg", label_c(QQ.elem(3)), QQ)
    code, out, _ = run(capsys, ["classify", *flags, path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"label: {label}"
    assert lines[lines.index("case trace:") + 1] == trace


@pytest.mark.parametrize("first, second, reason, labels", [
    (label_d(), label_a(), "derived algebra dimensions differ: 2 vs 3", [None, None]),
    (label_a(), label_b(), "different canonical families", ["A", "B"]),
], ids=["D-A", "A-B"])
def test_iso_machine_reports_a_non_isomorphic_pair(capsys, tmp_path, first, second,
                                                  reason, labels):
    pair = [_canonical_file(tmp_path, f"{k}.alg", label, QQ)
            for k, label in enumerate((first, second))]
    code, out, err = run(capsys, ["iso", *pair, "--format", "machine"])
    assert (code, err) == (0, "")
    assert out == json.dumps({"isomorphic": False, "reason": reason, "labels": labels}) + "\n"


def test_iso_embeds_the_base_field_algebra(capsys, tmp_path):
    # C(3) over Q(sqrt 2) and C(-4) over Q: the swap carries one onto the other,
    # in either order
    ext = parse_descriptor("QuadExt:Q:-2,0")
    a = _canonical_file(tmp_path, "a.alg", label_c(ext.elem(3)), ext)
    b = _canonical_file(tmp_path, "b.alg", label_c(QQ.elem(-4)), QQ)
    zero, one = "[0,0]", "[1,0]"
    swap = [[zero, "[-1,0]", zero], [one, zero, zero], [zero, zero, one]]
    unswap = [[zero, one, zero], ["[-1,0]", zero, zero], [zero, zero, one]]
    for first, second, witness in ((a, b, swap), (b, a, unswap)):
        code, out, _ = run(capsys, ["iso", first, second, "--format", "machine"])
        assert code == 0
        assert json.loads(out) == {"isomorphic": True, "witness": witness}


def test_iso_refuses_unrelated_fields(capsys, tmp_path):
    a = _canonical_file(tmp_path, "a.alg", label_a(), PrimeField(3))
    b = _canonical_file(tmp_path, "b.alg", label_a(), QQ)
    code, _, err = run(capsys, ["iso", a, b])
    assert code == 1
    assert "Fp:3" in err and "Q" in err


def test_omega_reduce(capsys, d_file):
    code, out, _ = run(capsys, ["omega-reduce", d_file, "--format", "machine"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2


def test_omega_reduce_human_prints_the_rank_and_q(capsys, d_file, d_moved_file):
    header = "rank: 2\ncongruence matrix Q (Q^t * form * Q is the block canonical form):\n"
    assert run(capsys, ["omega-reduce", d_file]) == (
        0, header + "  1 0 0\n  0 1 0\n  0 0 1\n", "")
    assert run(capsys, ["omega-reduce", d_moved_file]) == (
        0, header + "  1 0 0\n  0 2 0\n  0 0 1\n", "")


def test_check_machine_reports_validity_failures_and_form(capsys, tmp_path, d_file):
    assert run(capsys, ["check", d_file, "--format", "machine"]) == (
        0, '{"valid": true, "failures": [], "form_recovered": true}\n', "")
    path = tmp_path / "xy-z.alg"
    path.write_text(json.dumps({"field": "Q", "dim": 3,
                                "omega": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
                                "brackets": {"0,1": ["0", "0", "1"]}}))
    code, out, err = run(capsys, ["check", str(path), "--format", "machine"])
    assert (code, err) == (1, "")
    signs = {(0, 1, 2): "-1", (0, 2, 1): "1", (1, 0, 2): "1",
             (1, 2, 0): "-1", (2, 0, 1): "-1", (2, 1, 0): "1"}
    assert json.loads(out) == {
        "valid": False,
        "failures": [{"triple": list(t), "residual": ["0", "0", r]} for t, r in signs.items()],
        "form_recovered": False}


def test_variety_emits_reference_generators(capsys):
    code, out, _ = run(capsys, ["variety", "--dim", "3"])
    assert code == 0
    assert "x2*z1 + y3*z1 - x1*z2 - y1*z3" in out
    assert "x3*y1 - x1*y3 + x3*z2 - x2*z3 + 1" in out
    assert "x2*y1 - x1*y2 - y3*z2 + y2*z3" in out
    assert "quotient dimension: 6" in out


def test_variety_refuses_another_dimension(capsys):
    assert run(capsys, ["variety", "--dim", "4"]) == (1, "", "only --dim 3 is supported\n")


def test_variety_machine_format(capsys):
    code, out, _ = run(capsys, ["variety", "--dim", "3", "--field", "Fp:101",
                                "--format", "machine"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 6
    assert len(payload["generators"]) == 3
    assert len(payload["groebner_basis"]) == 5


def test_gb_roundtrip(capsys, tmp_path):
    ideal_text = ("ring x1 x2 x3 y1 y2 y3 z1 z2 z3 over Q\n"
                  "x2*z1 + y3*z1 - x1*z2 - y1*z3\n"
                  "x3*y1 - x1*y3 + x3*z2 - x2*z3 + 1\n"
                  "x2*y1 - x1*y2 - y3*z2 + y2*z3\n")
    path = tmp_path / "p.ideal"
    path.write_text(ideal_text)
    code, out, _ = run(capsys, ["gb", str(path)])
    assert code == 0
    assert out.splitlines()[0] == "ring x1 x2 x3 y1 y2 y3 z1 z2 z3 over Q"
    assert len(out.strip().splitlines()) == 6  # header + 5 basis elements
    # feeding the output back is stable (already reduced)
    path2 = tmp_path / "gb.ideal"
    path2.write_text(out)
    code, out2, _ = run(capsys, ["gb", str(path2)])
    assert code == 0
    assert out2 == out


def test_verify_paper_section3(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--section", "3",
                                "--field", "Fp:101"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "colon-full-ideal" in out


def test_verify_paper_section5(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--section", "5",
                                "--field", "Q"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_paper_section4_machine(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--section", "4",
                                "--field", "Fp:101", "--format", "machine"])
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert all(entry.get("ok", True) for entry in lines if "check" in entry)
    suites = [e for e in lines if "suite" in e]
    assert suites and all(e["ok"] for e in suites)


@pytest.mark.parametrize("field", ["Fp:3", "Fp:5", "Fp:7"])
def test_verify_paper_section4_small_primes(capsys, field):
    # the default C parameters 3 and 5 vanish mod 3 and 5, and 5 = 2 mod 3
    code, out, _ = run(capsys, ["verify-paper", "--section", "4", "--field", field])
    assert code == 0, out
    assert "FAIL" not in out


def test_bad_file_exit_code(capsys, tmp_path):
    missing = str(tmp_path / "nope.alg")
    code, _, err = run(capsys, ["check", missing])
    assert code == 1
    bad = tmp_path / "bad.alg"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["check", str(bad)])
    assert code == 1


def _check_stdin(capsys, monkeypatch, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    return run(capsys, ["check", "-"])


def _d_payload(field=QQ):
    return json.loads(algebra_to_json(canonical_algebra(label_d(), field)))


def test_check_rejects_brackets_list(capsys, monkeypatch):
    payload = _d_payload()
    payload["brackets"] = []
    code, out, err = _check_stdin(capsys, monkeypatch, payload)
    assert (code, out) == (1, "")
    assert "'brackets' must be an object" in err


def test_check_rejects_numeric_scalars(capsys, monkeypatch):
    payload = _d_payload()
    payload["omega"] = [[int(x) for x in row] for row in payload["omega"]]
    code, out, err = _check_stdin(capsys, monkeypatch, payload)
    assert (code, out) == (1, "")
    assert "bad field element in 'omega': 0 is not a string" in err


def test_check_rejects_zero_denominator(capsys, monkeypatch):
    payload = _d_payload(PrimeField(7))
    payload["brackets"]["0,1"] = ["1/7", "0", "0"]
    code, out, err = _check_stdin(capsys, monkeypatch, payload)
    assert (code, out) == (1, "")
    assert "bad field element in bracket '0,1': '1/7' divides by zero" in err


def test_check_refuses_an_exponent_literal(capsys, tmp_path):
    # Fraction would build 10**999999999 before the check could start
    payload = _d_payload()
    payload["brackets"]["0,1"] = ["1e999999999", "0", "0"]
    path = tmp_path / "exponent.alg"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["check", str(path)])
    assert (code, out) == (1, "")
    assert err == ("bad input: bad field element in bracket '0,1':"
                   " exponent notation is not accepted: '1e999999999'\n")


def test_check_refuses_a_repeated_bracket_pair(capsys, monkeypatch):
    # "0,1" and "0, 1" both name [e_0, e_1]; either bracket alone is a valid
    # Heisenberg algebra, so taking the last one would pass the check
    zero_form = [["0"] * 3 for _ in range(3)]
    payload = {"field": "Q", "dim": 3, "omega": zero_form,
               "brackets": {"0,1": ["0", "0", "1"], "0, 1": ["0", "0", "2"]}}
    code, out, err = _check_stdin(capsys, monkeypatch, payload)
    assert (code, out) == (1, "")
    assert err == "bad input: bracket key '0, 1' repeats the pair (0,1)\n"


def test_check_rejects_dimension_two(capsys, monkeypatch):
    payload = {"field": "Q", "dim": 2, "omega": [["0", "1"], ["-1", "0"]],
               "brackets": {"0,1": ["0", "0"]}}
    code, out, err = _check_stdin(capsys, monkeypatch, payload)
    assert (code, out) == (1, "")
    assert "'dim' must be at least 3, got 2" in err


def _gb_stdin(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, ["gb", "-"])


def test_gb_rejects_zero_denominator_over_q(capsys, monkeypatch):
    code, out, err = _gb_stdin(capsys, monkeypatch, "ring x over Q\n1/0*x\n")
    assert (code, out) == (1, "")
    assert "bad ideal file: line 2: '1/0*x' divides by zero" in err


def test_gb_rejects_zero_denominator_over_fp(capsys, monkeypatch):
    code, out, err = _gb_stdin(capsys, monkeypatch, "ring x over Fp:7\nx^2\n1/7*x\n")
    assert (code, out) == (1, "")
    assert "bad ideal file: line 3: '1/7*x' divides by zero" in err


NESTED = "QuadExt:QuadExt:Q:-2,0:1,0"


def test_gb_rejects_nested_extension(capsys, monkeypatch):
    code, out, err = _gb_stdin(capsys, monkeypatch, f"ring x over {NESTED}\nx\n")
    assert (code, out) == (1, "")
    assert f"bad ideal file: extension towers are capped at one step: {NESTED!r}" in err


def test_check_rejects_nested_extension(capsys, monkeypatch):
    payload = _d_payload()
    payload["field"] = NESTED
    code, out, err = _check_stdin(capsys, monkeypatch, payload)
    assert (code, out) == (1, "")
    assert f"bad input: extension towers are capped at one step: {NESTED!r}" in err


@pytest.mark.parametrize("line", ["--x + 1", "+-x + 1", "x -", "x +", "-", "+", "x +- 1"])
def test_gb_rejects_stray_signs(capsys, monkeypatch, line):
    code, out, err = _gb_stdin(capsys, monkeypatch, f"ring x over Q\n{line}\n")
    assert (code, out) == (1, "")
    assert err == f"bad ideal file: line 2: dangling operator in {line!r}\n"


def test_gb_names_a_missing_exponent(capsys, monkeypatch):
    # the minus of x^-1 splits the term, which leaves x^ without an exponent
    code, out, err = _gb_stdin(capsys, monkeypatch, "ring x y over Q\nx^-1*y - 1\n")
    assert (code, out) == (1, "")
    assert err == ("bad ideal file: line 2: the exponent of 'x' is missing"
                   " or is not a nonnegative integer\n")


def test_gb_refuses_an_exponent_past_the_packed_field(capsys, monkeypatch):
    # each exponent has 63 bits of a packed monomial's 64-bit field
    code, out, err = _gb_stdin(capsys, monkeypatch,
                               "ring x y over Q\nx^9223372036854775808*y - 1\nx*y - 2\n")
    assert (code, out) == (1, "")
    assert err == "bad ideal file: line 2: the exponent of 'x' is outside 0 .. 2^63 - 1\n"


def test_gb_refuses_an_s_polynomial_past_the_packed_field(capsys, monkeypatch):
    # the leads' lcm x^(2^62)*y^(2^62) has total degree 2^63
    text = "ring x y over Q\nx^4611686018427387904*y - 1\nx*y^4611686018427387904 - 1\n"
    code, out, err = _gb_stdin(capsys, monkeypatch, text)
    assert (code, out) == (1, "")
    assert err == "bad input: the total degree is outside 0 .. 2^63 - 1\n"


def test_gb_refuses_a_degree_past_the_packed_field(capsys, monkeypatch):
    # each exponent fits, but the degree 2^64 would carry out of its field
    text = "ring x y z over Q\nx^9223372036854775807*y^9223372036854775807*z^2\nz\n"
    code, out, err = _gb_stdin(capsys, monkeypatch, text)
    assert (code, out) == (1, "")
    assert err == "bad ideal file: line 2: the total degree is outside 0 .. 2^63 - 1\n"


def test_gb_keeps_a_large_exponent_below_the_bound(capsys, monkeypatch):
    text = "ring x y over Fp:101\nx^100000000000\n"
    code, out, err = _gb_stdin(capsys, monkeypatch, text)
    assert (code, out, err) == (0, text, "")


def test_check_refuses_a_repeated_top_level_key(capsys, monkeypatch):
    text = json.dumps(_d_payload()).replace('"dim": 3', '"dim": 3, "dim": 3')
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, ["check", "-"])
    assert (code, out) == (1, "")
    assert err == "bad input: the key 'dim' is repeated\n"


def test_gb_keeps_one_leading_sign(capsys, monkeypatch):
    code, out, _ = _gb_stdin(capsys, monkeypatch, "ring x over Q\n-x + 1\n")
    assert (code, out) == (0, "ring x over Q\nx - 1\n")


def _algebra_file(tmp_path, name, omega, brackets):
    path = tmp_path / name
    path.write_text(json.dumps({"field": "Q", "dim": len(omega), "brackets": brackets,
                                "omega": [[str(x) for x in row] for row in omega]}))
    return str(path)


BROKEN_IDENTITY = ([[0, 0, 0], [0, 0, 1], [0, -1, 0]], {"1,2": ["1", "0", "0"]})
ZERO_FORM = ([[0] * 3] * 3, {"0,1": ["0", "0", "1"]})
ZERO_4D = ([[0] * 4] * 4, {})


@pytest.mark.parametrize("inputs, message", [
    (BROKEN_IDENTITY, "not classifiable: 6 basis triples violate the bracket identity"),
    (ZERO_FORM, "not classifiable: the bilinear form vanishes; this is a classical bracket"),
    (ZERO_4D, "bad input: only 3-dimensional algebras are classified"),
], ids=["broken-identity", "zero-form", "dimension-4"])
@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_iso_refuses_what_classify_refuses(capsys, tmp_path, d_file, inputs, message,
                                           first, fmt):
    # the derived dimensions differ from D's, which used to answer non-isomorphic
    omega, brackets = inputs
    bad = _algebra_file(tmp_path, "bad.alg", omega, brackets)
    pair = [bad, d_file] if first else [d_file, bad]
    code, out, err = run(capsys, ["iso", *pair, "--format", fmt])
    assert (code, out, err) == (1, "", message + "\n")
    if len(omega) == 3:
        assert run(capsys, ["classify", bad]) == (1, "", message + "\n")


@pytest.mark.parametrize("target", ["directory", "missing"])
@pytest.mark.parametrize("command, inputs", [("check", 1), ("classify", 1), ("gb", 1),
                                             ("omega-reduce", 1), ("iso", 2)])
def test_unreadable_input_is_refused(capsys, tmp_path, command, inputs, target):
    path = str(tmp_path if target == "directory" else tmp_path / "missing.alg")
    code, out, err = run(capsys, [command] + [path] * inputs)
    assert (code, out) == (1, "")
    assert err.startswith("cannot read input: ")
    assert path in err


def test_output_write_errors_are_not_input_errors(monkeypatch, capsys):
    class BrokenStdout(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", BrokenStdout())
    assert main(["canonical", "D"]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["variety", "--dim", "3"], ["canonical", "D"],
                                  ["verify-paper", "--section", "4"]],
                         ids=["variety", "canonical", "verify-paper"])
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    # the read end is closed before the command starts, so every write fails;
    # stdout stays block-buffered, as a pipe normally is, so the first failing
    # write can be the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run([sys.executable, "-m", "omegalie.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
