import contextlib
import io
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invforge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _dense_form() -> str:
    """A dense integer form: 1,001 terms of degree 1000, coefficients 1..9."""
    r = random.Random(1000)
    return " + ".join(f"{r.randint(1, 9)}*x0^{1000 - s}*x1^{s}" for s in range(1001))


def _sparse_forms() -> list:
    """Two integer forms of 2,000 terms at degree 5000: too sparse for the
    dense route, so their transvectants take the grouped one."""
    r = random.Random(5)
    forms = []
    for _ in range(2):
        exps = sorted(r.sample(range(5001), 2000))
        forms.append(" + ".join(f"{r.randint(1, 9)}*x0^{5000 - s}*x1^{s}" for s in exps))
    return forms


def _split_form() -> str:
    """x0^7 G + x1^7 H with 3,000-term G, H in a, b: with itself at k = 2,
    the grouped table would multiply G by H, 9 M term pairs."""
    r = random.Random(7)
    g, h = (sorted(r.sample([(i, j) for i in range(60) for j in range(60)], 3000)) for _ in range(2))
    return "+".join([f"{r.randint(1, 9)}*a^{i}*b^{j}*x0^7" for i, j in g]
                    + [f"{r.randint(1, 9)}*a^{i}*b^{j}*x1^7" for i, j in h])


_DENSE = _dense_form()
_SPARSE = _sparse_forms()
_SQUARE = "x0^10000*x1^10000"
_SPLIT = _split_form()


# -- golden outputs -----------------------------------------------------------


def test_transvect_golden(capsys):
    code, out, err = run_cli(capsys, "transvect", "--a", "x0^2", "--b", "x1^2", "--k", "1")
    assert code == 0
    assert out == '{"result":"x0*x1"}\n'
    assert err == ""


def test_alpha_rank_golden(capsys):
    code, out, _ = run_cli(capsys, "alpha-rank", "--n", "1", "--d", "4", "--r", "2")
    assert code == 0
    assert out == '{"rows":15,"cols":15,"rank":15}\n'


def test_membership_golden(capsys):
    code, out, _ = run_cli(capsys, "membership", "--d", "4", "--f", "x0^4 + x1^4")
    assert code == 0
    assert out == '{"member":false,"witness":"U(1,1)"}\n'


def test_membership_accepts(capsys):
    code, out, _ = run_cli(
        capsys, "membership", "--d", "4", "--f", "x0^4 + 2*x0^2*x1^2 + x1^4"
    )
    assert code == 0
    assert out == '{"member":true,"witness":null}\n'


def test_pi_p_constant(capsys):
    code, out, _ = run_cli(
        capsys, "pi-p", "--g", "x0^2*y1^2 - 2*x0*x1*y0*y1 + x1^2*y0^2", "--p", "1"
    )
    assert code == 0
    assert out == '{"result":"12","degree":0}\n'


def test_pi_p_prints_past_the_interpreters_digit_limit_within_the_cap(capsys, monkeypatch):
    # (3000)_3000^2 = 3000!^2 has 18,262 digits, past the interpreter's
    # int-string limit; the cap holds its printing, and a raised cap prints it
    argv = ["pi-p", "--g", "x0^3000*y1^3000", "--p", "1500"]
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "4545407")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"].startswith(
        "pi-p could print a coefficient of 19217 digits in 4545408 steps, above the cap of 4545407"
    )
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "4545408")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["degree"] == 0 and len(payload["result"]) == 18262
    limit = sys.get_int_max_str_digits()
    assert limit != 0  # pi-p put the interpreter's limit back
    sys.set_int_max_str_digits(0)
    try:
        assert int(payload["result"]) == math.factorial(3000) ** 2
    finally:
        sys.set_int_max_str_digits(limit)


def test_covariant_golden(capsys):
    code, out, _ = run_cli(
        capsys, "covariant", "--d", "4", "--i", "1", "--j", "1", "--f", "x0^3*x1"
    )
    assert code == 0
    assert out == '{"result":"-1/32*x0^6"}\n'


def test_tau_golden(capsys):
    code, out, _ = run_cli(capsys, "tau", "--r", "2", "--e", "1", "--p", "1")
    assert code == 0
    assert out == '{"result":"-z1^2 + 2*z1*z2 - z2^2"}\n'


def test_scalar_commands(capsys):
    for argv, want in [
        (("n2", "--p", "4", "--q", "4", "--m", "1"), '{"value":"1/14"}\n'),
        (("n3", "--r", "2", "--e", "1", "--pprime", "0", "--p", "0"), '{"value":"1"}\n'),
        (("w", "--p", "2", "--q", "2", "--m", "1"), '{"value":"-3/4"}\n'),
        (("w", "--p", "2", "--q", "2", "--k", "2"), '{"value":"-3/4"}\n'),
        (("f32", "--a", "-2", "--b", "-2", "--c", "-2", "--d", "1", "--e", "1"),
         '{"value":"-6"}\n'),
        (("dixon", "--a", "-2", "--b", "-2", "--c", "-2"), '{"value":"-6"}\n'),
        (("m0", "--n", "1", "--e", "1"), '{"value":2,"excluded":true}\n'),
    ]:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert out == want, argv


def test_j_reports_agreement(capsys):
    code, out, _ = run_cli(capsys, "j", "--s", "4", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"sum": "17160", "closed": "17160", "equal": True}


def test_tau_check_and_g_check(capsys):
    code, out, _ = run_cli(capsys, "tau-check", "--r", "2", "--e", "1", "--p", "1")
    assert code == 0
    assert out == '{"ok":true}\n'
    code, out, _ = run_cli(
        capsys, "g-check", "--r", "2", "--e", "1", "--p", "0", "--pprime", "0"
    )
    assert code == 0
    assert out == '{"ok":true,"n3":"1"}\n'


def test_parser_built_once_and_handler_found_at_call_time(capsys, monkeypatch):
    # one parser per process; a handler replaced after the build still runs
    import invforge.cli as cli

    run_cli(capsys, "m0", "--n", "1", "--e", "1")
    parser = cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_m0", lambda args: seen.append(args.n) or 0)
    assert run_cli(capsys, "m0", "--n", "3", "--e", "1")[0] == 0
    assert seen == [3]
    assert cli.build_parser() is parser


def test_plethysm_weight_lists(capsys):
    code, out, _ = run_cli(capsys, "plethysm", "--r", "2", "--d", "4")
    assert code == 0
    assert out == '{"weights":[[8,1],[4,1],[0,1]]}\n'
    code, out, _ = run_cli(capsys, "ideal-char", "--r", "3", "--d", "4")
    assert code == 0
    assert out == '{"weights":[[6,1]]}\n'


def test_n1_styles_agree(capsys):
    _, brute, _ = run_cli(capsys, "n1", "--e", "3", "--p", "2", "--brute")
    _, closed, _ = run_cli(capsys, "n1", "--e", "3", "--p", "2", "--closed")
    _, default, _ = run_cli(capsys, "n1", "--e", "3", "--p", "2")
    assert brute == closed == default


def test_n1_brute_answers_each_p_at_e_6(capsys, monkeypatch):
    # walked up to row order, every p at e = 6 fits the default cap; p = 4
    # was refused after about 2 s when every row order was walked
    monkeypatch.delenv("INVFORGE_SIZE_CAP", raising=False)
    for p in range(7):
        code, brute, err = run_cli(capsys, "n1", "--e", "6", "--p", str(p), "--brute")
        assert (code, err) == (0, "")
        assert brute == run_cli(capsys, "n1", "--e", "6", "--p", str(p), "--closed")[1]


def test_transvect_of_a_form_with_itself_at_odd_k_prints_0_at_once(capsys, monkeypatch):
    # the same form at k = 2 is refused above; at k = 1 antisymmetry answers
    monkeypatch.delenv("INVFORGE_SIZE_CAP", raising=False)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "transvect", "--a", _SPLIT, "--b", _SPLIT, "--k", "1")
    assert time.perf_counter() - t0 < 5
    assert (code, out, err) == (0, '{"result":"0"}\n', "")


def test_deterministic_output(capsys):
    first = run_cli(capsys, "membership", "--d", "4", "--f", "x0^4 + x1^4")
    second = run_cli(capsys, "membership", "--d", "4", "--f", "x0^4 + x1^4")
    assert first == second


def test_membership_witnesses_replay_recorded_pool(capsys):
    # the recorded non-member pool (d = 8..20): each first witness in
    # canonical set order must come back byte for byte
    recorded = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
    pool = json.loads(recorded.read_text())["nonmember_pool"]
    replayed = 0
    for d_text, entries in pool.items():
        d = int(d_text)
        for entry in entries:
            text = " ".join(
                f"{'-' if c < 0 else '+'} {abs(c)}*x0^{d - t}*x1^{t}"
                for t, c in enumerate(entry["coeffs"])
            )
            code, out, _ = run_cli(capsys, "membership", "--d", d_text, "--f", text)
            assert (code, out) == (0, entry["stdout"]), (d, entry["coeffs"])
            replayed += 1
    assert replayed == 168


# -- failure paths ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["transvect", "--a", "x0^2", "--b", "x1^2", "--k", "-1"],
        ["n1", "--e", "2", "--p", "3", "--closed"],
        ["n1", "--e", "2", "--p", "3", "--brute"],
        ["plethysm", "--r", "-1", "--d", "2"],
        ["w", "--p", "-1", "--q", "0", "--k", "0"],
        ["j", "--s", "-1", "--p", "0"],
        ["f32", "--a", "1", "--b", "1", "--c", "1", "--d", "1", "--e", "1"],
        ["dixon", "--a", "0", "--b", "2", "--c", "0"],
    ],
)
def test_domain_error_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


def test_f32_stops_at_a_vanishing_numerator(capsys):
    # b = -1: every term past i = 1 carries (b)_i = 0, so the sum of depth 3
    # stops at 1 + 3
    argv = ["f32", "--a", "-3", "--b", "-1", "--c", "1", "--d", "1", "--e", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, '{"value":"4"}\n')


def test_negative_n_alpha_rank_exits_1(capsys):
    # monomial_exponents(0, ...) used to recurse until RecursionError
    code, out, err = run_cli(capsys, "alpha-rank", "--n", "-1", "--d", "4", "--r", "2")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "alpha_matrix needs n >= 0, got -1"}


def test_negative_d_alpha_rank_exits_1(capsys):
    # an even negative degree used to give an empty 0x0 matrix and exit 0
    code, out, err = run_cli(capsys, "alpha-rank", "--n", "1", "--d", "-4", "--r", "2")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "alpha_matrix needs d >= 0, got -4"}


def test_ternary_quartic_alpha_rank_under_default_cap(capsys, monkeypatch):
    monkeypatch.delenv("INVFORGE_SIZE_CAP", raising=False)
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "alpha-rank", "--n", "2", "--d", "4", "--r", "4")
    assert time.perf_counter() - t0 < 5
    assert code == 0
    assert out == '{"rows":1035,"cols":3060,"rank":1035}\n'


def test_long_alpha_rank_refused_at_once(capsys, monkeypatch):
    # 501501 rows and columns, each under the default cap; the column labels
    # alone would hold 501501 * 1000 monomials, so nothing is built
    monkeypatch.delenv("INVFORGE_SIZE_CAP", raising=False)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "alpha-rank", "--n", "1", "--d", "2", "--r", "1000")
    assert time.perf_counter() - t0 < 1
    assert code == 1
    assert out == ""
    assert "r = 1000 monomials" in json.loads(err)["error"]


def test_many_variable_alpha_rank_exits_0(capsys):
    # 1201 variables, more than Python's default recursion depth
    code, out, _ = run_cli(capsys, "alpha-rank", "--n", "1200", "--d", "0", "--r", "1")
    assert code == 0
    assert out == '{"rows":1,"cols":1,"rank":1}\n'


def test_long_plethysm_is_fast(capsys):
    # 3000 parts, more than Python's default recursion depth
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "plethysm", "--r", "3000", "--d", "2")
    assert time.perf_counter() - t0 < 2
    assert code == 0
    # S_r(S_2) is the sum of S_(2r-4p) over 0 <= p <= r/2
    assert json.loads(out) == {"weights": [[6000 - 4 * p, 1] for p in range(1501)]}


@pytest.mark.parametrize(
    "argv,cap",
    [
        # refused while walking
        (["n1", "--e", "40", "--p", "1", "--brute"], "100000"),
        (["tau", "--r", "6", "--e", "3", "--p", "4"], "100000"),
        # refused before the walk
        (["n1", "--e", "40", "--p", "1", "--brute"], "10000"),
        # refused before the partition table is allocated
        (["plethysm", "--r", "100000", "--d", "100000"], None),
        (["plethysm", "--r", "1000", "--d", "1000"], None),
        (["ideal-char", "--r", "1000", "--d", "1000"], None),
        # refused before any factorial: the answer could pass the cap in bits
        (["tau", "--r", "2", "--e", "300", "--p", "0"], None),
        (["tau", "--r", "2", "--e", "1000", "--p", "0"], None),
        (["tau-check", "--r", "2", "--e", "300", "--p", "0"], None),
        # a malformed cap is refused, naming the knob
        (["alpha-rank", "--n", "1", "--d", "4", "--r", "2"], "abc"),
        (["alpha-rank", "--n", "1", "--d", "4", "--r", "2"], "-5"),
        # refused before any covariant: S(400)'s Omega work passes the cap
        (["membership", "--d", "400", "--f", "x0^400"], None),
        # refused before any derivative: Omega branches times input terms
        (["transvect", "--a", "x0^1048576", "--b", "x1^1048576", "--k", "1048576"], None),
        (["covariant", "--d", "1000000", "--i", "0", "--j", "1000000",
          "--f", "x0^1000000 + x1^1000000"], None),
        (["pi-p", "--g", "x0^1048576*y1^1048576 + x1^1048576*y0^1048576",
          "--p", "524288"], None),
        # refused before any Omega weight: one could take more bits than the cap
        (["transvect", "--a", "x0^1048576", "--b", "x1^1048576", "--k", "200000"], None),
        (["covariant", "--d", "65536", "--i", "0", "--j", "65536",
          "--f", "x0^65536 + x1^65536"], None),
        # refused before any branch: the answer could take past the cap to print
        (["pi-p", "--g", "x0^3000*y1^3000", "--p", "1500"], None),
        (["pi-p", "--g", "x0^1048576*y1^1048576", "--p", "524288"], None),
        # past the rule's degrees: the whole index window, in closed form,
        # before S(d) is built
        (["membership", "--d", "100000", "--f", "x0^100000"], None),
        # refused before a dense kernel packs: its digits pass the cap in limbs
        (["covariant", "--d", "1000", "--i", "0", "--j", "50", "--f", _DENSE], None),
        (["covariant", "--d", "1000", "--i", "0", "--j", "200", "--f", _DENSE], None),
        # refused by a grouped table: the limbs of its weight entries before
        # any is built, of the weight products it sums while it sums them
        (["transvect", "--a", _SQUARE, "--b", _SQUARE, "--k", "10000"], None),
        (["transvect", "--a", _SPARSE[0], "--b", _SPARSE[1], "--k", "2"], None),
        # refused by the hold on the term pairs of one group product
        (["transvect", "--a", _SPLIT, "--b", _SPLIT, "--k", "2"], None),
    ],
)
def test_capped_work_exits_1(capsys, monkeypatch, argv, cap):
    if cap is None:
        monkeypatch.delenv("INVFORGE_SIZE_CAP", raising=False)
    else:
        monkeypatch.setenv("INVFORGE_SIZE_CAP", cap)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 5
    assert code == 1
    assert out == ""
    assert "INVFORGE_SIZE_CAP" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["covariant", "--d", "1000", "--i", "0", "--j", "20", "--f", _DENSE],
        ["transvect", "--a", _DENSE, "--b", _DENSE, "--k", "20"],
        ["transvect", "--a", "x0^1000*x1^1000", "--b", "x0^1000*x1^1000", "--k", "1000"],
    ],
)
def test_kernel_holds_answer_under_the_default_cap(capsys, monkeypatch, argv):
    # a dense kernel packing under the cap in limbs (the dense route of k = 20
    # would pack about 17 M bits), and a grouped table of 1,001-entry weights
    monkeypatch.delenv("INVFORGE_SIZE_CAP", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] != "0"


def test_tau_check_range_error_exits_1(capsys):
    code, out, err = run_cli(capsys, "tau-check", "--r", "2", "--e", "1", "--p", "5")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "tau_transvectant_check needs 0 <= 2p <= re, got p=5"}


def test_tau_range_checked_before_any_factorial(capsys):
    # checked before any factorial: p = -20000 would need 40,003 of them
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "tau", "--r", "2", "--e", "1", "--p", "-20000")
    assert time.perf_counter() - t0 < 1
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "tau needs 0 <= 2p <= re, got p=-20000"}


def test_parse_error_exits_1(capsys):
    code, out, err = run_cli(capsys, "transvect", "--a", "x0^", "--b", "x1", "--k", "0")
    assert code == 1
    assert "error" in json.loads(err)


def test_over_long_number_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "transvect", "--a", "x0^" + "9" * 5000, "--b", "x1", "--k", "0"
    )
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "number longer than 640 characters at position 3"}


def test_dangling_star_after_coefficient_exits_1(capsys):
    # "3*" used to parse as the constant 3 and print {"result":"3*x0"}
    code, out, err = run_cli(capsys, "transvect", "--a", "3*", "--b", "x0", "--k", "0")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "dangling '*' at position 2"}


@pytest.mark.parametrize("text", ["x0^3", "x0^3 + x1"])
def test_membership_not_a_form_of_degree_exits_1(capsys, text):
    # a wrong degree and a non-homogeneous input get one message
    code, out, err = run_cli(capsys, "membership", "--d", "4", "--f", text)
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "not a form of degree 4 in ('x0', 'x1')"}


def test_degree_mismatch_exits_1(capsys):
    code, _, err = run_cli(capsys, "covariant", "--d", "4", "--i", "0", "--j", "1", "--f", "x0^3")
    assert code == 1
    assert "error" in json.loads(err)


def test_w_needs_exactly_one_style(capsys):
    code, _, err = run_cli(capsys, "w", "--p", "2", "--q", "2")
    assert code == 1
    code, _, err = run_cli(capsys, "w", "--p", "2", "--q", "2", "--k", "1", "--m", "1")
    assert code == 1


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transvect", "--a", "x0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # argparse drops a "--" value and passes on an empty list, which used to
    # reach the handlers and escape as a TypeError
    for argv in (["transvect", "--a=--", "--b=x1", "--k=0"],
                 ["transvect", "--a=x0", "--b=x1", "--k=--"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_size_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("INVFORGE_SIZE_CAP", "10")
    code, out, err = run_cli(capsys, "alpha-rank", "--n", "1", "--d", "4", "--r", "2")
    assert code == 1
    assert "INVFORGE_SIZE_CAP" in json.loads(err)["error"]


def test_large_exponent_transvect_is_fast(capsys):
    # the scale (a-k)!(b-k)!/(a!b!) must not take a factorial of a = 2^20
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "transvect", "--a", "x0^1048576", "--b", "x1", "--k", "0")
    assert time.perf_counter() - t0 < 2
    assert code == 0
    assert out == '{"result":"x0^1048576*x1"}\n'


def test_sparse_high_degree_transvect_is_fast(capsys):
    # two terms of degree 2^20 are far below the dense route's threshold,
    # so no list of 2^20 coefficients is built
    t0 = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "transvect", "--a", "x0^1048576 + x1^1048576", "--b", "x0*x1", "--k", "1"
    )
    assert time.perf_counter() - t0 < 2
    assert code == 0
    assert out == '{"result":"1/2*x0^1048576 - 1/2*x1^1048576"}\n'


@pytest.mark.parametrize("a, b", [("0", "x0^2 + x1^2"), ("x0^2 + x1^2", "0")])
def test_transvect_of_the_zero_form(capsys, a, b):
    # (0, B)_k is 0 whatever degree the zero form has; k < 0 still fails
    for k in ("0", "2"):
        code, out, _ = run_cli(capsys, "transvect", "--a", a, "--b", b, "--k", k)
        assert (code, out) == (0, '{"result":"0"}\n')
    code, out, err = run_cli(capsys, "transvect", "--a", a, "--b", b, "--k", "-1")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "negative transvectant index"}


# -- fuzzed argv --------------------------------------------------------------

_NAMES = ("x0", "x1", "y0", "y1", "s")
_COEFF = st.one_of(
    st.integers(0, 20).map(str),
    st.tuples(st.integers(0, 20), st.integers(0, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
)
_POWER = st.tuples(
    st.sampled_from(_NAMES), st.sampled_from([""] + [f"^{e}" for e in range(10)])
).map("".join)


@st.composite
def _term(draw):
    coeff = draw(st.none() | _COEFF)
    parts = ([coeff] if coeff else []) + draw(st.lists(_POWER, max_size=4))
    return "*".join(parts) or "1"


@st.composite
def _polynomial(draw):
    terms = draw(st.lists(_term(), min_size=1, max_size=5))
    text = draw(st.sampled_from(["", "-"])) + terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + term
    return text


@st.composite
def _form(draw, n=None):
    # a binary form of degree n, so that more inputs get past the checks
    if n is None or n < 0:
        n = draw(st.integers(0, 12))
    terms = []
    for a in draw(st.lists(st.integers(max(0, n - 9), min(n, 9)), min_size=1, max_size=4)):
        coeff = draw(st.none() | _COEFF)
        symbol = draw(st.sampled_from(["", "s*", "s^2*", "y0*"]))
        terms.append(f"{coeff + '*' if coeff else ''}{symbol}x0^{a}*x1^{n - a}")
    return " + ".join(terms)


# polynomial text, a form, or a string over the grammar's alphabet
_TEXT = _polynomial() | _form() | st.text(alphabet="x01y9s/^*+- ", max_size=16)
_INT = st.integers(-2, 12).map(str)


def _flags(command, **values):
    # "--flag=value", so that a value starting with "-" stays a value
    flags = (v.map(lambda text, k=k: f"--{k}={text}") for k, v in values.items())
    return st.tuples(*flags).map(lambda given: [command, *given])


_ARGV = st.one_of(
    _flags("transvect", a=_TEXT, b=_TEXT, k=_INT),
    _INT.flatmap(lambda d: _flags("covariant", d=st.just(d), i=_INT, j=_INT,
                                  f=_form(int(d)) | _TEXT)),
    _INT.flatmap(lambda d: _flags("membership", d=st.just(d), f=_form(int(d)) | _TEXT)),
    _flags("pi-p", g=_TEXT, p=_INT),
    # usage errors: commands, flags and values in any order
    st.lists(
        st.sampled_from(
            ["transvect", "covariant", "membership", "pi-p", "--a", "--b", "--k", "--d",
             "--i", "--j", "--f", "--g", "--p", "--q", "x0", "3", "-1", "x0^2 + x1"]
        ),
        max_size=8,
    ),
)


@settings(max_examples=300, deadline=None)
@given(_ARGV)
def test_fuzzed_argv_exits_0_1_or_2_with_json(argv):
    # exit 0: one JSON line on stdout; exit 1: nothing on stdout and a JSON
    # error on stderr; exit 2: argparse's usage error; each within 5 s
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    assert time.perf_counter() - t0 < 5, argv
    if code == 0:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1, argv
        json.loads(lines[0])
    elif code == 1:
        assert out.getvalue() == "", argv
        assert set(json.loads(err.getvalue())) == {"error"}, argv
    else:
        assert code == 2 and out.getvalue() == "", argv


# -- whole-program paths ------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "invforge.cli", "n2", "--p", "4", "--q", "4", "--m", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"value":"1/14"}\n'


def test_verify_all_passes(verify_all):
    code, payload = verify_all
    assert code == 0
    assert payload["level"] == "desk"
    assert payload["all_passed"] is True
    assert len(payload["results"]) == 9
    assert all(r["passed"] for r in payload["results"])
