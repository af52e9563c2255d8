import math

import pytest

from mdelta.delta import DeltaSpec


def test_parse_and_describe_round_trip():
    for text in ("poly:2", "exp:1", "dexp:1.5", "table:0.2,0.1,0.05"):
        spec = DeltaSpec.parse(text)
        assert DeltaSpec.parse(spec.describe()) == spec


def test_exp_clamped_at_small_depth():
    # 2^-3 = 1/8 exceeds 1/12, so the admissible value sits just under it
    spec = DeltaSpec.parse("exp:1")
    value, clamped = spec.eval_detail(3)
    assert clamped
    assert value < 1 / 12
    assert value == pytest.approx(1 / 12, rel=1e-8)


def test_exp_unclamped_value():
    assert DeltaSpec.parse("exp:2")(3) == pytest.approx(1 / 64, abs=0)
    assert not DeltaSpec.parse("exp:2").eval_detail(3)[1]


def test_dexp_value():
    assert DeltaSpec.parse("dexp:1")(3) == pytest.approx(2.0**-8, abs=0)


def test_clamp_invariant_up_to_64():
    for text in ("poly:2", "exp:1", "dexp:1"):
        spec = DeltaSpec.parse(text)
        for m in range(1, 65):
            assert spec(m) < 1.0 / (4 * m)


def test_depth_zero_uses_cap():
    assert DeltaSpec.parse("poly:2")(0) == 1.0
    assert DeltaSpec("exp", c=1.0, cap0=0.3)(0) == 0.3
    # the formula may undercut the cap at depth 0
    assert DeltaSpec.parse("dexp:1")(0) == 0.5


def test_regime_ordering_at_large_depth():
    c = 1.5
    poly = DeltaSpec("poly", c=c)
    exp = DeltaSpec("exp", c=c)
    dexp = DeltaSpec("dexp", c=c)
    for m in range(8, 33):
        assert dexp(m) <= exp(m) <= poly(m)


def test_table_kind():
    spec = DeltaSpec.parse("table:0.2,0.1")
    assert spec(1) == 0.2
    assert spec(2) == 0.1
    with pytest.raises(IndexError):
        spec(3)


def test_invalid_specs():
    with pytest.raises(ValueError):
        DeltaSpec("poly", c=1.0)  # needs c > 1
    with pytest.raises(ValueError):
        DeltaSpec("exp", c=0.0)
    with pytest.raises(ValueError):
        DeltaSpec("table", values=(0.1, -0.2))
    with pytest.raises(ValueError):
        DeltaSpec.parse("exp")
    with pytest.raises(ValueError):
        DeltaSpec.parse("gauss:1")


@pytest.mark.parametrize("text", ["exp:nan", "exp:inf", "poly:inf", "dexp:nan", "table:0.1,nan", "table:inf"])
def test_non_finite_parameters_raise_their_own_error(text):
    with pytest.raises(ValueError, match="finite"):
        DeltaSpec.parse(text)
    with pytest.raises(ValueError, match="cap0 must be positive and finite"):
        DeltaSpec("exp", c=1.0, cap0=math.nan)


def test_values_positive_and_deterministic():
    spec = DeltaSpec.parse("exp:1")
    assert all(spec(m) > 0 for m in range(0, 40))
    assert [spec(m) for m in range(10)] == [spec(m) for m in range(10)]
