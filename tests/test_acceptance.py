"""One test per acceptance criterion; each prints its own pass/fail line.

The battery runs once per session, through `verify-all` (the `verify_all`
fixture); each test reads its criterion's entry.
"""


def _check(verify_all, index):
    entry = verify_all[1]["results"][index - 1]
    assert entry["criterion"] == index
    passed, detail = entry["passed"], entry["detail"]
    print(f"criterion {index}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_quadratic_power_transvectants(verify_all):
    _check(verify_all, 1)


def test_criterion_2_multigraph_count_closed_form(verify_all):
    _check(verify_all, 2)


def test_criterion_3_hypergeometric_sums(verify_all):
    _check(verify_all, 3)


def test_criterion_4_diagonal_normal_form(verify_all):
    _check(verify_all, 4)


def test_criterion_5_alpha_matrix_ranks(verify_all):
    _check(verify_all, 5)


def test_criterion_6_magic_square_sums(verify_all):
    _check(verify_all, 6)


def test_criterion_7_covariant_membership(verify_all):
    _check(verify_all, 7)


def test_criterion_8_character_arithmetic(verify_all):
    _check(verify_all, 8)


def test_criterion_9_regularity_bound(verify_all):
    _check(verify_all, 9)
