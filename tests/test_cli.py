import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from immaculate.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_immaculate_text(capsys):
    code, out, _ = run(capsys, "expand", "immaculate", "--shape", "3,1,3")
    assert code == 0
    assert out.strip() == (
        "H(3,1,3) - H(3,2,2) + H(4,2,1) - H(4,3) - H(5,1,1) + H(5,2)"
    )


def test_expand_immaculate_skew_json(capsys):
    code, out, _ = run(capsys, "expand", "immaculate", "--shape", "2,5,3",
                       "--skew", "1,3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == "H"
    assert len(data["terms"]) == 4
    # parse-back: json and text describe the same expression
    from immaculate.expr import BasisExpr

    expr = BasisExpr.from_json_dict(data)
    code, out, _ = run(capsys, "expand", "immaculate", "--shape", "2,5,3",
                       "--skew", "1,3", "--format", "text")
    assert out.strip() == expr.to_text()


def test_expand_immaculate_latex(capsys):
    code, out, _ = run(capsys, "expand", "immaculate", "--shape", "3,-1,3",
                       "--format", "latex")
    assert code == 0
    assert out.strip() == "-H_{(3,2)} + H_{(4,1)}"


def test_expand_ribbon_requires_class(capsys):
    code, _, err = run(capsys, "expand", "immaculate", "--shape", "1,1,2,3",
                       "--basis", "R")
    assert code == 1
    assert "force" in err


def test_expand_ribbon_forced_is_tagged(capsys):
    code, out, _ = run(capsys, "expand", "immaculate", "--shape", "1,1,2,3",
                       "--basis", "R", "--force")
    assert code == 0
    assert out.startswith("[UNPROVEN-CLASS]")


def test_expand_ribbon_in_class_untagged(capsys):
    code, out, _ = run(capsys, "expand", "immaculate", "--shape", "2,2",
                       "--basis", "R")
    assert code == 0
    assert out.strip() == "R(2,2) - R(3,1)"


def test_expand_ribbon_zero_skew_is_straight(capsys):
    code, out, _ = run(capsys, "expand", "immaculate", "--shape", "2,2",
                       "--skew", "0,0", "--basis", "R")
    assert code == 0
    assert out.strip() == "R(2,2) - R(3,1)"


@pytest.mark.parametrize("force", [(), ("--force",)])
def test_expand_ribbon_rejects_zero_part(capsys, force):
    code, out, err = run(capsys, "expand", "immaculate", "--shape", "0",
                         "--basis", "R", *force)
    assert (code, out) == (1, "")
    assert err == "error: alpha must be a strong composition: (0,)\n"


@pytest.mark.parametrize("force", [(), ("--force",)])
def test_expand_ribbon_empty_composition(capsys, force):
    # I_() = 1 = R_(), inside the class with J = 0, like the H basis
    code, out, err = run(capsys, "expand", "immaculate", "--shape=",
                         "--basis", "R", *force)
    assert (code, out, err) == (0, "1\n", "")
    assert run(capsys, "expand", "immaculate", "--shape=", "--basis", "H")[1] == out


def test_expand_monomial(capsys):
    code, out, _ = run(capsys, "expand", "monomial", "--shape", "2")
    assert code == 0
    assert out.strip() == "-dI(1,1) + dI(2)"


def test_expand_ribbon_product(capsys):
    code, out, _ = run(capsys, "expand", "ribbon-product",
                       "--shape", "1,1", "--times", "2")
    assert code == 0
    assert out.strip() == "R(1,1,2) + R(1,3)"


@pytest.mark.parametrize("src, dst", [("H", "R"), ("R", "H")])
def test_convert_refuses_more_than_20_parts(capsys, src, dst):
    shape = ",".join(["1"] * 21)
    code, out, err = run(capsys, "convert", "--from", src, "--to", dst,
                         f"--shape={shape}")
    assert (code, out) == (1, "")
    assert err == ("error: cannot convert an index with 21 parts: the limit "
                   "is 20 (2^(parts-1) terms per index)\n")


def test_convert_both_ways(capsys):
    code, out, _ = run(capsys, "convert", "--from", "H", "--to", "R",
                       "--shape", "2,1")
    assert code == 0 and out.strip() == "R(2,1) + R(3)"
    code, out, _ = run(capsys, "convert", "--from", "R", "--to", "H",
                       "--shape", "2,1")
    assert code == 0 and out.strip() == "H(2,1) - H(3)"


def test_straighten_text_and_json(capsys):
    code, out, _ = run(capsys, "straighten", "--shape", "2,-5,0,1",
                       "--skew", "2,-3,1,6")
    assert code == 0
    assert "sign +1" in out and "5,-2,3,4 / 6,6,4,2" in out
    code, out, _ = run(capsys, "straighten", "--shape", "2,-5,0,1",
                       "--skew", "2,-3,1,6", "--format", "json")
    assert json.loads(out) == {
        "sign": 1, "mu": [5, -2, 3, 4], "nu": [6, 6, 4, 2],
    }


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--shape", "4,3,3,2",
                       "--prefix", "2", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 12
    assert {"sign": 1, "prefix": [4, 3], "tail_mu": [3, 2],
            "tail_nu": [0, 0]} in entries


def test_thc_list(capsys):
    code, out, _ = run(capsys, "thc", "list", "--shape", "3,1,3",
                       "--format", "json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 6
    assert lines[0]["delta"] == [3, 1, 3] and lines[0]["sign"] == 1


def test_thc_list_pads_short_shape(capsys):
    # an inner shape longer than the shape pads the shape with zero rows,
    # in thc list as in expand
    from helpers import normalize_h_index
    from immaculate.expr import BasisExpr

    code, out, _ = run(capsys, "thc", "list", "--shape", "2,1",
                       "--skew", "1,0,0", "--format", "json")
    assert code == 0
    terms = {}
    for line in out.splitlines():
        covering = json.loads(line)
        index = normalize_h_index(covering["delta"])
        if index is not None:
            terms[index] = terms.get(index, 0) + covering["sign"]
    code, out, _ = run(capsys, "expand", "immaculate", "--shape", "2,1",
                       "--skew", "1,0,0", "--format", "json")
    assert code == 0
    expected = BasisExpr.from_json_dict(json.loads(out))
    assert BasisExpr("H", terms) == expected == BasisExpr.term("H", (1, 1))


def test_thc_rejects_non_partition_inner_shape(capsys):
    # thc keeps exit 1 on an inner shape expand would straighten, and says so
    for what in ("list", "render"):
        code, out, err = run(capsys, "thc", what, "--shape", "2,5,3",
                             "--skew", "1,3")
        assert code == 1 and out == ""
        assert "inner shape 1,3 is not a partition" in err
        assert "immaculate straighten --shape 2,5,3 --skew 1,3" in err


def test_thc_on_straightened_shape_matches_expand(capsys):
    # following the advice: thc list on the straightened shape folds, with
    # the straightening sign, to the expand result
    from helpers import normalize_h_index
    from immaculate.expr import BasisExpr

    code, out, _ = run(capsys, "straighten", "--shape", "2,5,3",
                       "--skew", "1,3", "--format", "json")
    straight = json.loads(out)
    code, out, _ = run(capsys, "thc", "list",
                       "--shape", ",".join(map(str, straight["mu"])),
                       "--skew", ",".join(map(str, straight["nu"])),
                       "--format", "json")
    assert code == 0
    terms = {}
    for line in out.splitlines():
        covering = json.loads(line)
        index = normalize_h_index(covering["delta"])
        if index is not None:
            terms[index] = terms.get(index, 0) + straight["sign"] * covering["sign"]
    code, out, _ = run(capsys, "expand", "immaculate", "--shape", "2,5,3",
                       "--skew", "1,3", "--format", "json")
    assert BasisExpr("H", terms) == BasisExpr.from_json_dict(json.loads(out))


@pytest.mark.parametrize("argv, code", [
    (("thc", "list", "--shape", "-3,5,5"), 0),
    (("expand", "immaculate", "--shape", "-1,3,2"), 0),
    (("expand", "immaculate", "--shape", "3,1", "--skew", "-2,1"), 0),
    (("decompose", "--shape", "-1,3,2", "--prefix", "2"), 0),
    # negative values that parse, then fail as values
    (("expand", "ribbon-product", "--shape", "1,1", "--times", "-2"), 1),
    (("thc", "render", "--shape", "1,2", "--sigma", "-1,2"), 1),
])
def test_negative_values_spaced_or_joined(capsys, argv, code):
    # `--shape -1,3,2` reads the same as `--shape=-1,3,2`
    joined = []
    for arg in argv:
        if arg.startswith("-") and arg[1:2].isdigit():
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    spaced = run(capsys, *argv)
    assert spaced == run(capsys, *joined)
    assert spaced[0] == code and bool(spaced[1]) == (code == 0)
    assert "expected one argument" not in spaced[2]


def test_thc_render(capsys):
    code, out, _ = run(capsys, "thc", "render", "--shape", "3,1,3")
    assert code == 0
    assert "BBB" in out
    # deterministic byte-for-byte
    code, again, _ = run(capsys, "thc", "render", "--shape", "3,1,3")
    assert again == out


def test_thc_render_overlay(capsys):
    code, out, _ = run(capsys, "thc", "render", "--shape", "3,1,3",
                       "--sigma", "2,1,3")
    assert code == 0
    assert "hook 1" in out and "delta 4" in out


def test_thc_render_too_many_hooks(capsys):
    # 35 overlay marks: the 35th hook is drawn, a 36th is an error
    for k in (35, 36):
        code, out, err = run(capsys, "thc", "render",
                             "--shape", ",".join(["1"] * k),
                             "--sigma", ",".join(map(str, range(1, k + 1))),
                             "--max-k", str(k))
        if k == 35:
            assert code == 0 and "hook z:" in out
        else:
            assert code == 1 and out == "" and "marks" in err


@pytest.mark.parametrize("sigma", [(), ("--sigma", "1,2")])
def test_thc_render_too_wide(capsys, sigma):
    # a row two billion cells wide is refused before its row or its hook's
    # cell set is built
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "thc", "render",
                             "--shape", "3,2000000000", *sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert "2000000000 cells wide: the limit is 1000" in err
    assert peak < 1_000_000


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "golden,replay")
    assert code == 0
    assert "golden" in out and "pass" in out


@pytest.mark.parametrize("n, suite", [("-3", "oracle"), ("0", "duality,ribbon")])
def test_verify_rejects_nonpositive_n(capsys, n, suite):
    code, out, err = run(capsys, "verify", "--n", n, "--suite", suite)
    assert code == 1 and out == ""
    assert "--n" in err


@pytest.mark.parametrize("n", ["0", "9"])
def test_verify_rejects_n_out_of_range(capsys, n):
    # duality folds every composition of n once per composition of n,
    # so a large --n would hang, not fail
    code, out, err = run(capsys, "verify", "--n", n, "--suite", "duality")
    assert (code, out) == (1, "")
    assert err == f"error: --n must be between 1 and 8, got {n}\n"


def test_usage_error_exit_code(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "expand", "immaculate", "--shape", "a,b")[0] == 1


def test_bound_violation_is_usage_error(capsys):
    code, _, err = run(capsys, "expand", "immaculate",
                       "--shape", ",".join(["1"] * 11))
    assert code == 1 and "rows" in err


@pytest.mark.parametrize("basis", ["H", "R"])
def test_max_k_bounds_both_bases(capsys, basis):
    code, out, err = run(capsys, "expand", "immaculate", "--shape", "1,1,1,1,1",
                         "--max-k", "3", "--basis", basis)
    assert code == 1 and out == ""
    assert "limited to 3" in err


def test_cli_import_skips_dataclasses_and_inspect():
    # -S keeps site .pth files, which may import these themselves, out
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import immaculate.cli, sys; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("IMMACULATE_FORMAT", "json")
    code, out, _ = run(capsys, "expand", "immaculate", "--shape", "2,2")
    assert code == 0
    assert json.loads(out)["basis"] == "H"
