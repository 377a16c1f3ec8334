import pytest

import measure


@pytest.mark.parametrize(
    "n, expected",
    [
        (10_000, 99.9),
        (9_999, 99.0),
        (1_000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (40, 75.0),
        (20, 50.0),
        (19, None),
        (1, None),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert measure.supported_percentile(n) == expected
    if expected is not None:
        assert measure.beyond(n, expected) >= measure.MIN_BEYOND


def test_nearest_rank_percentile():
    values = list(range(1, 1001))
    assert measure.percentile(values, 99.0) == 990
    assert measure.beyond(1000, 99.0) == 10
    assert measure.percentile(values[::-1], 50.0) == 500
    assert measure.percentile([7.0], 99.0) == 7.0


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    q1, q2, q3 = __import__("statistics").quantiles(values, n=4)
    assert measure.quartile_spread(values) == pytest.approx((q3 - q1) / q2)
