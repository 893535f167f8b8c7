import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sure_lab import (
    DegenerateFamilyError,
    GaussianSequenceModel,
    SmootherFamily,
    centered_variables,
    edf_bound,
    from_matrix,
    oracle_gap_bound,
    oracle_select,
    r_star,
    risk,
    shell_index,
    shell_indices,
    sure,
    sure_identity_residual,
    sure_select,
)


@pytest.fixture
def model():
    return GaussianSequenceModel(theta0=[1.0, 0.0], sigma=1.0)


@pytest.fixture
def zero_id_family():
    return SmootherFamily.of([
        from_matrix("a", np.zeros((2, 2))),
        from_matrix("b", np.eye(2)),
    ])


def test_risk_examples(model):
    assert risk(from_matrix("z", np.zeros((2, 2))), model) == 1.0
    assert risk(from_matrix("i", np.eye(2)), model) == 2.0
    assert risk(from_matrix("h", np.diag([0.5, 0.5])), model) == pytest.approx(0.75)


def test_risk_dimension_mismatch(model):
    with pytest.raises(ValueError):
        risk(from_matrix("h", np.eye(3)), model)


def test_sure_examples():
    y = np.array([1.5, -0.5])
    assert sure(from_matrix("i", np.eye(2)), y, 1.0) == 4.0
    assert sure(from_matrix("z", np.zeros((2, 2))), y, 1.0) == pytest.approx(2.5)
    assert sure(from_matrix("d", np.diag([1.0, 0.0])), y, 1.0) == pytest.approx(2.25)


def test_oracle_select(zero_id_family, model):
    report = oracle_select(zero_id_family, model)
    assert report.per_label_values == {"a": 1.0, "b": 2.0}
    assert report.selected == "a"

    zero_model = GaussianSequenceModel(theta0=[0.0, 0.0], sigma=1.0)
    assert oracle_select(zero_id_family, zero_model).selected == "a"


def test_oracle_select_tie_break():
    fam = SmootherFamily.of([
        from_matrix("first", np.eye(2)),
        from_matrix("second", np.eye(2)),
    ])
    model = GaussianSequenceModel(theta0=[1.0, 0.0], sigma=1.0)
    assert oracle_select(fam, model).selected == "first"


def test_sure_select(zero_id_family):
    rep = sure_select(zero_id_family, [1.5, -0.5], 1.0)
    assert rep.per_label_values == pytest.approx({"a": 2.5, "b": 4.0})
    assert rep.selected == "a"
    assert sure_select(zero_id_family, [2.5, 0.5], 1.0).selected == "b"

    singleton = SmootherFamily.of([from_matrix("only", np.eye(2))])
    assert sure_select(singleton, [9.0, 9.0], 1.0).selected == "only"


def test_centered_variables_examples(model):
    z = np.array([0.5, -0.5])
    cv = centered_variables(from_matrix("z", np.zeros((2, 2))), model, z)
    assert (cv.w, cv.zlin) == (0.0, -0.5)
    cv = centered_variables(from_matrix("i", np.eye(2)), model, z)
    assert cv.w == pytest.approx(-1.5)
    assert cv.zlin == 0.0
    # zero noise isolates the deterministic centering
    h = from_matrix("h", np.array([[0.3, 0.1], [0.0, 0.7]]))
    cv = centered_variables(h, model, np.zeros(2))
    assert cv.w == pytest.approx(h.frob_sq - 2.0 * h.df)
    assert cv.zlin == 0.0


def test_sure_identity_residual_hand_cases(model):
    z = np.array([0.5, -0.5])
    assert sure_identity_residual(from_matrix("z", np.zeros((2, 2))), model, z) == pytest.approx(0.0, abs=1e-12)
    assert sure_identity_residual(from_matrix("i", np.eye(2)), model, z) == pytest.approx(0.0, abs=1e-12)
    assert sure_identity_residual(from_matrix("z", np.zeros((2, 2))), model, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sure_identity_property(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    elems = st.floats(min_value=-5, max_value=5, allow_nan=False)
    h = np.array(data.draw(st.lists(elems, min_size=n * n, max_size=n * n))).reshape(n, n)
    theta0 = np.array(data.draw(st.lists(elems, min_size=n, max_size=n)))
    z = np.array(data.draw(st.lists(elems, min_size=n, max_size=n)))
    sigma = data.draw(st.floats(min_value=0.1, max_value=10, allow_nan=False))
    model = GaussianSequenceModel(theta0=theta0, sigma=sigma)
    smoother = from_matrix("h", h)
    resid = sure_identity_residual(smoother, model, z)
    scale = 1.0 + abs(sure(smoother, theta0 + z, sigma)) / sigma**2
    assert abs(resid) <= 1e-8 * scale


@settings(max_examples=30, deadline=None)
@given(
    c=st.floats(min_value=0.01, max_value=100),
    y0=st.floats(min_value=-5, max_value=5),
    y1=st.floats(min_value=-5, max_value=5),
)
def test_sure_selection_scale_equivariance(c, y0, y1):
    fam = SmootherFamily.of([
        from_matrix("a", np.zeros((2, 2))),
        from_matrix("b", np.eye(2)),
    ])
    y = np.array([y0, y1])
    base = sure_select(fam, y, 1.0)
    scaled = sure_select(fam, c * y, c)
    assert scaled.selected == base.selected


def test_r_star_examples(zero_id_family, model):
    assert r_star(zero_id_family, model) == 1.0
    zero_model = GaussianSequenceModel(theta0=[0.0, 0.0], sigma=1.0)
    assert r_star(zero_id_family, zero_model) == 0.0
    wide = GaussianSequenceModel(theta0=[1.0, 0.0], sigma=2.0)
    assert r_star(zero_id_family, wide) == pytest.approx(0.25)


def test_shell_index(zero_id_family, model):
    a = zero_id_family.member("a")
    b = zero_id_family.member("b")
    assert shell_index(a, zero_id_family, model, 1.0) == 0
    assert shell_index(b, zero_id_family, model, 1.0) == 1  # diff = 1 lands in [1, 3)
    with pytest.raises(DegenerateFamilyError):
        shell_index(a, zero_id_family, model, 0.0)


def test_shell_index_boundaries():
    # diffs 0, 2.5, 3.0 (exactly representable) against sigma^2 r_star = 1
    members = [
        from_matrix("s0", np.zeros((3, 3))),
        from_matrix("s1", np.diag([1.5, 0.5, 0.0])),  # frob_sq = 2.5
        from_matrix("s2", np.eye(3)),                 # frob_sq = 3.0
    ]
    fam = SmootherFamily.of(members)
    model = GaussianSequenceModel(theta0=[0.0, 0.0, 0.0], sigma=1.0)
    # r_star is 0 here, so inject r_star = 1 directly (sigma^2 r_star = 1)
    assert shell_index(fam.member("s1"), fam, model, 1.0) == 1
    assert shell_index(fam.member("s2"), fam, model, 1.0) == 2


def _shell_reference(diff, scale):
    """Scalar shell rule: the loop shell_indices vectorises."""
    ratio = diff / scale + 1.0
    level = int(math.floor(math.log2(ratio))) if ratio > 1.0 else 0
    while 2.0 ** (level + 1) <= ratio:
        level += 1
    while level > 0 and 2.0 ** level > ratio:
        level -= 1
    return level


def test_shell_indices_power_of_two_boundaries():
    # Ratios one ulp below, exactly at and one ulp above each power of two
    # 2^k; their gaps ratio - 1 are exact, so the ratio is rebuilt exactly.
    diffs, expected = [0.0], [0]
    for k in range(1, 53):
        edge = 2.0**k
        diffs += [np.nextafter(edge, 0.0) - 1.0, edge - 1.0, np.nextafter(edge, np.inf) - 1.0]
        expected += [k - 1, k, k]
    got = shell_indices(np.array(diffs), 1.0, 1.0)  # minimum risk 0
    assert got.tolist() == expected
    assert expected == [_shell_reference(d, 1.0) for d in diffs]
    # A shifted minimum and a non-unit scale follow the scalar rule.
    shifted = np.array(diffs) * 0.25 + 7.0
    assert shell_indices(shifted, 0.5, 0.5).tolist() == [
        _shell_reference(float(r - 7.0), 0.25) for r in shifted]
    with pytest.raises(DegenerateFamilyError):
        shell_indices(diffs, 1.0, 0.0)


def test_shell_indices_match_reference_on_random_ratios():
    rng = np.random.default_rng(8)
    diffs = rng.exponential(1.0, 20_000) * 10.0 ** rng.uniform(-12.0, 15.0, 20_000)
    diffs[0] = 0.0
    assert shell_indices(diffs, 1.0, 1.0).tolist() == [_shell_reference(d, 1.0) for d in diffs]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_shell_indices_reject_non_finite_ratios(zero_id_family):
    # theta0 = [1e-160, 0] puts r_star at 1e-320, so the identity's ratio overflows
    model = GaussianSequenceModel(theta0=[1e-160, 0.0], sigma=1.0)
    risks = [risk(m, model) for m in zero_id_family.members]
    with pytest.raises(ValueError, match="r_star"):
        shell_indices(risks, model.sigma_sq, r_star(zero_id_family, model))
    with pytest.raises(ValueError, match="r_star"):
        shell_indices([0.0, np.inf], 1.0, 1.0)


def test_shell_index_agrees_with_shell_indices():
    rng = np.random.default_rng(5)
    model = GaussianSequenceModel(theta0=rng.standard_normal(6), sigma=0.7)
    fam = SmootherFamily.of(
        [from_matrix(f"m{i}", rng.standard_normal((6, 6)) * 0.5) for i in range(9)])
    rs = r_star(fam, model)
    vector = shell_indices([risk(m, model) for m in fam.members], model.sigma_sq, rs)
    assert vector.tolist() == [shell_index(m, fam, model, rs) for m in fam.members]


def test_shell_membership_frobenius_bound():
    rng = np.random.default_rng(17)
    model = GaussianSequenceModel(theta0=rng.standard_normal(8), sigma=1.0)
    members = [from_matrix(f"m{i}", rng.standard_normal((8, 8)) * 0.4) for i in range(12)]
    fam = SmootherFamily.of(members)
    rs = r_star(fam, model)
    oracle = oracle_select(fam, model).selected
    for m in fam.members:
        level = shell_index(m, fam, model, rs)
        assert m.frob_sq <= 2.0 ** (level + 1) * rs + 1e-9
    assert fam.member(oracle).frob_sq <= rs + 1e-9


def test_edf_bound_examples():
    assert edf_bound(3.0, 1, 1.0) == 0.0
    log3 = math.log(3)  # log_+ arg log 3 > 1
    assert edf_bound(1.0, 3, 1.0) == pytest.approx(
        math.sqrt(log3) + log3 * (1.0 + math.log(log3)), rel=1e-12)
    expected = math.sqrt(4.0 * math.log(8)) + math.log(8)  # log_+ arg < 1
    assert edf_bound(4.0, 8, 1.0) == pytest.approx(expected, rel=1e-12)


def test_edf_bound_validation():
    with pytest.raises(ValueError):
        edf_bound(1.0, 0, 1.0)
    with pytest.raises(ValueError):
        edf_bound(-1.0, 2, 1.0)
    with pytest.raises(ValueError):
        edf_bound(1.0, 2, 0.5)


@settings(max_examples=40, deadline=None)
@given(
    rs=st.floats(min_value=0.01, max_value=100),
    size_a=st.integers(min_value=1, max_value=100),
    size_b=st.integers(min_value=1, max_value=100),
    hop_a=st.floats(min_value=1, max_value=50),
    hop_b=st.floats(min_value=1, max_value=50),
)
def test_edf_bound_monotone(rs, size_a, size_b, hop_a, hop_b):
    if size_a > size_b:
        size_a, size_b = size_b, size_a
    if hop_a > hop_b:
        hop_a, hop_b = hop_b, hop_a
    assert edf_bound(rs, size_a, hop_a) <= edf_bound(rs, size_b, hop_a) + 1e-12
    assert edf_bound(rs, size_a, hop_a) <= edf_bound(rs, size_a, hop_b) + 1e-12


def test_oracle_gap_bound_examples():
    assert oracle_gap_bound(1.0, 1.0, 1, 1.0, 1.0) == pytest.approx(2.0)
    assert oracle_gap_bound(2.0, 1.0, 8, 0.5, 1.0) == pytest.approx(3.0 + 2.0 * math.log(8))
    # (1 + c eta) * 0 + c * log(8) / eta with c = 2, eta = 1
    assert oracle_gap_bound(0.0, 1.0, 8, 1.0, 2.0) == pytest.approx(2.0 * math.log(8))
    with pytest.raises(ValueError):
        oracle_gap_bound(1.0, 1.0, 2, 0.0, 1.0)
