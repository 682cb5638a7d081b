import math

import pytest

from emstencil.bounds import (
    LayoutKind,
    best_layout,
    gap_ratio,
    lower_bound_constant,
    prior_gap,
    round_quantities,
    upper_bound_leading,
)

REL = 1e-12


def close(a, b):
    return abs(a - b) <= REL * max(abs(a), abs(b), 1e-300)


def test_lower_bound_2d():
    for M in (64, 4096, 10**6):
        assert close(lower_bound_constant(2, 1, M), 4.0 / M)
        assert close(lower_bound_constant(2, 2, M), 16.0 / M)


def test_lower_bound_3d():
    for M in (64, 4096):
        assert close(lower_bound_constant(3, 1, M), 8.0 / math.sqrt(3.0) / math.sqrt(M))


def test_lower_bound_4d():
    M = 1000
    expected = 12.0 * (1.0 / 12.0) ** (1.0 / 3.0) / M ** (1.0 / 3.0)
    assert close(lower_bound_constant(4, 1, M), expected)
    # general-n formula specialization
    general = 4 * 3 * (2 * 1 / math.factorial(4)) ** (1 / 3) / M ** (1 / 3)
    assert close(lower_bound_constant(4, 1, M), general)


def test_round_quantities():
    c, r0 = round_quantities(2, 1, 100)
    assert c == 200 and close(r0, 50.0)
    c, r0 = round_quantities(3, 1, 96)
    assert c == 384 and close(r0, math.sqrt(72.0))
    c, r0 = round_quantities(2, 2, 100)
    assert c == 200 and close(r0, 25.0)


def test_upper_bound_table_2d():
    M, B = 4096, 16
    assert close(upper_bound_leading(LayoutKind.DIAGONAL_2D, 2, 1, M, B), 4.0 / (B * M))
    assert close(upper_bound_leading(LayoutKind.COLUMN_2D, 2, 1, M, B), 8.0 / (B * M))
    assert close(upper_bound_leading(LayoutKind.ROW_2D, 2, 1, M, B), 8.0 / M)
    assert close(upper_bound_leading(LayoutKind.ROW_2D, 2, 3, M, B), 24.0 / M)


def test_upper_bound_table_3d():
    M, B = 6144, 8
    assert close(
        upper_bound_leading(LayoutKind.HEX_3D, 3, 1, M, B),
        8.0 * math.sqrt(2.0) / (math.sqrt(3.0) * B * math.sqrt(M)),
    )
    assert close(
        upper_bound_leading(LayoutKind.COLUMN_POLE_3D, 3, 1, M, B),
        8.0 * math.sqrt(2.0) / (B * math.sqrt(M)),
    )
    assert close(
        upper_bound_leading(LayoutKind.BALL_2D_IN_3D, 3, 1, M, B),
        8.0 / (B * math.sqrt(M)),
    )
    assert close(
        upper_bound_leading(LayoutKind.ROW_3D, 3, 1, M, B),
        8.0 / math.sqrt(B * M),
    )


def test_gap_ratios():
    assert close(gap_ratio(2), 2.0)
    assert close(gap_ratio(3), math.sqrt(6.0))
    assert close(gap_ratio(4), 24.0 ** (1.0 / 3.0))


@pytest.mark.parametrize("n,s,M,B", [
    (2, 1, 512, 8), (2, 2, 4096, 16), (3, 1, 6144, 8),
    (4, 1, 4096, 8), (5, 2, 8192, 4), (6, 1, 16384, 8),
])
def test_lower_below_upper_and_exact_gap(n, s, M, B):
    lower_rate = lower_bound_constant(n, s, M) / B  # per point
    best = best_layout(n)
    best_rate = upper_bound_leading(best, n, s, M, B)
    assert lower_rate <= best_rate * (1 + 1e-12)
    nd_rate = upper_bound_leading(LayoutKind.COLUMN_ND, n, s, M, B)
    assert close(nd_rate / lower_rate, gap_ratio(n))
    if n == 2:
        assert close(upper_bound_leading(LayoutKind.DIAGONAL_2D, n, s, M, B) / lower_rate, 1.0)
    if n == 3:
        assert close(upper_bound_leading(LayoutKind.HEX_3D, n, s, M, B) / lower_rate, math.sqrt(2.0))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        upper_bound_leading(LayoutKind.DIAGONAL_2D, 3, 1, 64, 4)


def test_prior_gap_closed_in_2d_and_narrowed_in_3d():
    # at the display constants of `emstencil tables`: the 2D layout closes
    # Leopold's gap of 4, the hexagonal layout improves his 3D gap by 2 sqrt(3B)
    M, B = 4096, 16
    gap_2d = upper_bound_leading(best_layout(2), 2, 1, M, B) / (lower_bound_constant(2, 1, M) / B)
    gap_3d = upper_bound_leading(best_layout(3), 3, 1, M, B) / (lower_bound_constant(3, 1, M) / B)
    assert close(prior_gap(2, M, B), 4.0)
    assert close(gap_2d, 1.0)
    assert close(gap_3d, math.sqrt(2.0))
    assert close(prior_gap(3, M, B) / gap_3d, 2.0 * math.sqrt(3.0) * math.sqrt(B))
