import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sure_lab import (
    GaussianSequenceModel,
    SmootherFamily,
    cli,
    criteria,
    family_from_doc,
    family_to_doc,
    from_matrix,
    knn_from_points,
    knn_opnorm_bound,
    krr_from_gram,
    load_family,
    operator_norm,
    projection_from_design,
    save_family,
    smoothers,
)
from sure_lab.smoothers import build_smoother


# -- operator norm: implementation is s * sqrt(lambda_max(G^T G)) with -------
# G = H / max|H| (LAPACK symmetric eigenvalues), oracle is the full SVD;
# constructors that know the norm in closed form skip it and are checked
# against the SVD below.

def test_operator_norm_identity_and_diag():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-10)
    assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, rel=1e-10)


def test_operator_norm_shift_matrix():
    assert operator_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0, rel=1e-10)


def test_operator_norm_zero_and_errors():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    with pytest.raises(ValueError):
        operator_norm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        operator_norm([[np.nan, 0.0], [0.0, 1.0]])


def test_operator_norm_against_svd_oracle():
    rng = np.random.default_rng(3)
    matrices = []
    for _ in range(50):
        n = int(rng.integers(1, 51))
        matrices.append(rng.standard_normal((n, n)))  # square, non-symmetric
        matrices.append(np.outer(rng.standard_normal(n), rng.standard_normal(n)))  # rank 1
    matrices.append(knn_from_points("knn", rng.standard_normal((40, 2)), 5).h)
    for a in matrices[:20]:
        for scale in (1e-318, 1e-300, 1e300):  # subnormal entries, and near both ends
            matrices.append(a * scale)
    for a in matrices:
        oracle = np.linalg.svd(a, compute_uv=False)[0]
        assert operator_norm(a) == pytest.approx(oracle, rel=1e-14, abs=0.0)


def _svd_norm(h):
    return np.linalg.svd(h, compute_uv=False)[0]


def _gaussian_gram(n, bandwidth, seed):
    x = (np.arange(n) + np.random.default_rng(seed).uniform(0.0, 1.0, n)) / n
    diff = x[:, None] - x[None, :]
    return np.exp(-diff * diff / (2.0 * bandwidth**2))


def test_closed_form_norms_match_svd():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((7, 7))
    members = [
        build_smoother({"label": "zero", "kind": "zero", "parameters": {}}, 5),
        build_smoother({"label": "id", "kind": "identity", "parameters": {}}, 5),
        projection_from_design("proj", rng.standard_normal((6, 4)), [0, 2, 3]),
        projection_from_design("proj0", np.zeros((6, 2)), [1]),
        krr_from_gram("krr0", a @ a.T, 0.0),
        krr_from_gram("krr_small", a @ a.T, 1e-3),
        krr_from_gram("krr_large", a @ a.T, 1e3),
        krr_from_gram("krr_singular", np.diag([2.0, 1.0, 0.0]), 0.5),
    ]
    for s in members:
        assert abs(s.opnorm - _svd_norm(s.h)) <= 1e-12 * _svd_norm(s.h), s.label
    assert [s.opnorm for s in members[:4]] == [0.0, 1.0, 1.0, 0.0]


@pytest.mark.parametrize("lam", [1e-3, 1e-6, 1e-10])
def test_krr_small_lambda_builds_with_exact_norm(lam):
    s = krr_from_gram("krr", _gaussian_gram(200, 0.1, [2, 1]), lam)
    assert s.opnorm == pytest.approx(_svd_norm(s.h), rel=1e-12)
    assert s.opnorm <= 1.0


def test_knn_layout_that_stalled_power_iteration_builds():
    rng = np.random.default_rng([107, 0])
    rng.uniform(size=2)
    points = (np.arange(200) + rng.uniform(0.0, 1.0, 200)) / 200
    s = knn_from_points("knn", points, 3)
    assert s.opnorm == pytest.approx(_svd_norm(s.h), rel=1e-12)


# -- from_matrix -------------------------------------------------------------

def test_from_matrix_identity():
    s = from_matrix("id", np.eye(2))
    assert (s.df, s.frob_sq, s.opnorm) == (2.0, 2.0, pytest.approx(1.0))


def test_from_matrix_zero():
    s = from_matrix("zero", np.zeros((2, 2)))
    assert (s.df, s.frob_sq, s.opnorm) == (0.0, 0.0, 0.0)


def test_from_matrix_nilpotent():
    s = from_matrix("a", [[0.0, 1.0], [0.0, 0.0]])
    assert s.df == 0.0
    assert s.frob_sq == 1.0
    assert s.opnorm == pytest.approx(1.0, rel=1e-10)


def test_from_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        from_matrix("bad", np.ones((2, 3)))
    with pytest.raises(ValueError):
        from_matrix("bad", [[1.0, np.inf], [0.0, 1.0]])


# -- projections -------------------------------------------------------------

def test_projection_single_orthonormal_column():
    s = projection_from_design("p", [[1.0], [0.0]], [0])
    np.testing.assert_allclose(s.h, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert s.df == pytest.approx(1.0, abs=1e-10)


def test_projection_ones_column():
    s = projection_from_design("p", [[1.0], [1.0]], [0])
    np.testing.assert_allclose(s.h, 0.5 * np.ones((2, 2)), atol=1e-12)
    assert s.df == pytest.approx(1.0, abs=1e-10)
    assert s.frob_sq == pytest.approx(1.0, abs=1e-10)


def test_projection_duplicated_column_uses_span():
    x = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    dup = projection_from_design("dup", x, [0, 1])
    single = projection_from_design("one", x, [0])
    np.testing.assert_allclose(dup.h, single.h, atol=1e-10)
    assert dup.df == pytest.approx(1.0, abs=1e-8)


def test_projection_validation():
    with pytest.raises(ValueError):
        projection_from_design("p", [[1.0], [0.0]], [])
    with pytest.raises(ValueError):
        projection_from_design("p", [[1.0], [0.0]], [3])


def test_projection_df_and_frobenius_are_the_rank():
    """Rank-deficient selections: tr H and ||H||_F^2 are the span dimension itself."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(3, 15))
        rank = int(rng.integers(1, n))
        design = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
        subset = list(range(int(rng.integers(rank, n + 1))))
        s = projection_from_design("p", design, subset)
        assert s.df == s.frob_sq == float(rank)
        assert (s.df, s.frob_sq) == pytest.approx((np.trace(s.h), np.sum(s.h * s.h)), rel=1e-10)


def test_projection_invariants_random_designs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        p = int(rng.integers(1, n + 1))
        design = rng.standard_normal((n, p))
        subset = sorted(rng.choice(p, size=rng.integers(1, p + 1), replace=False))
        s = projection_from_design("p", design, subset)
        h = s.h
        assert np.linalg.norm(h @ h - h) <= 1e-8 * (1.0 + np.linalg.norm(h))
        np.testing.assert_allclose(h, h.T, atol=1e-10)
        assert s.df == pytest.approx(s.frob_sq, abs=1e-8)
        assert s.opnorm == 0.0 or abs(s.opnorm - 1.0) <= 1e-8


# -- kernel ridge ------------------------------------------------------------

def test_krr_diagonal_gram():
    s = krr_from_gram("kr", np.diag([2.0, 1.0]), 1.0)
    np.testing.assert_allclose(s.h, np.diag([2.0 / 3.0, 0.5]), atol=1e-12)
    assert s.df == pytest.approx(7.0 / 6.0, rel=1e-12)


def test_krr_lambda_zero_identity():
    s = krr_from_gram("kr", np.diag([2.0, 1.0]), 0.0)
    np.testing.assert_allclose(s.h, np.eye(2))
    assert s.df == pytest.approx(2.0)


def test_krr_filter_at_lambda_zero_is_exactly_one():
    rng = np.random.default_rng(31)
    for n in (1, 2, 7, 40):
        a = rng.standard_normal((n, n))
        s = krr_from_gram("kr", a @ a.T + 1e-3 * np.eye(n), 0.0)
        assert s.spectrum.tolist() == [1.0] * n
        assert (s.df, s.frob_sq, s.opnorm) == (n, n, 1.0)


def test_krr_lambda_zero_singular_errors():
    with pytest.raises(np.linalg.LinAlgError):
        krr_from_gram("kr", np.diag([1.0, 0.0]), 0.0)


def test_krr_huge_lambda_df_bound():
    s = krr_from_gram("kr", np.diag([2.0, 1.0]), 1e9)
    assert s.df <= 3e-9  # df <= tr(G) / lambda


def test_krr_rejects_asymmetric_and_indefinite():
    with pytest.raises(ValueError):
        krr_from_gram("kr", [[1.0, 0.5], [0.0, 1.0]], 1.0)
    with pytest.raises(ValueError):
        krr_from_gram("kr", np.diag([1.0, -1.0]), 1.0)


@pytest.mark.parametrize("gram", [
    pytest.param([[np.inf, 0.0], [0.0, 1.0]], id="inf"),
    pytest.param([[np.nan, 0.0], [0.0, 1.0]], id="nan"),
])
def test_krr_rejects_non_finite_gram(gram):
    """Rejected before the eigensolver, naming the Gram (the suite turns any
    warning into an error)."""
    with pytest.raises(ValueError, match="^gram: entries must be finite$"):
        krr_from_gram("kr", gram, 1.0)


@pytest.mark.parametrize("gram", [
    pytest.param([[1e308, 0.0], [0.0, 1e308]], id="diagonal"),
    pytest.param([[1.0, 1e308], [1e308, 1.0]], id="off-diagonal"),
])
def test_krr_rejects_gram_whose_symmetrization_overflows(gram):
    with pytest.raises(ValueError, match="^gram: symmetrization .* overflows"):
        krr_from_gram("kr", gram, 1.0)


def test_krr_filter_whose_sum_overflows():
    """mu + lambda beyond the float range: the filter comes from the halved
    operands, and a member whose sum is finite keeps today's arithmetic."""
    s = krr_from_gram("kr", np.diag([8e307, 1.0]), 1e308)
    assert s.spectrum[0] == 1.0 / (1.0 + 1e308)
    assert s.spectrum[1] == pytest.approx(4.0 / 9.0, rel=1e-15)
    assert s.df == float(np.sum(s.spectrum)) and s.opnorm == s.spectrum[1]


def test_krr_invariants():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    gram = a @ a.T
    lams = [0.01, 0.1, 1.0, 10.0]
    dfs = []
    for lam in lams:
        s = krr_from_gram("kr", gram, lam)
        eigs = np.linalg.eigvalsh(s.h)
        assert eigs.min() >= -1e-10 and eigs.max() <= 1.0 + 1e-10
        assert s.opnorm <= 1.0 + 1e-10
        assert s.frob_sq <= s.df + 1e-12
        dfs.append(s.df)
    assert all(a > b for a, b in zip(dfs, dfs[1:]))  # df decreasing in lambda


# -- k-nearest neighbors -----------------------------------------------------

def test_knn_k1_is_identity():
    s = knn_from_points("k1", np.array([[0.0], [3.0], [1.0]]), 1)
    np.testing.assert_array_equal(s.h, np.eye(3))


def test_knn_collinear_frobenius():
    s = knn_from_points("k2", np.arange(6.0), 2)
    assert s.frob_sq == 3.0  # n/k with n=6, k=2


def test_knn_global_mean():
    s = knn_from_points("k3", np.array([[0.0], [1.0], [2.0]]), 3)
    np.testing.assert_allclose(s.h, np.full((3, 3), 1.0 / 3.0))
    assert s.df == pytest.approx(1.0)
    assert s.frob_sq == 1.0


def test_knn_row_stochastic_and_exact_frobenius():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 25))
        k = int(rng.integers(1, n + 1))
        s = knn_from_points("knn", rng.standard_normal((n, 2)), k)
        np.testing.assert_allclose(s.h.sum(axis=1), np.ones(n), atol=1e-12)
        counts = (s.h > 0).sum(axis=1)
        assert np.all(counts == k)
        # rational check: n*k entries of value 1/k give exactly n/k
        assert Fraction(int(counts.sum()), k * k) == Fraction(n, k)
        assert s.frob_sq == n / k


def test_knn_df_and_frobenius_are_n_over_k():
    """tr H = ||H||_F^2 = n/k exactly, for every k of a 200-point stratified layout
    (the benchmark's k-NN family, k = 1, 3, ..., 39); a summed trace is off by a
    rounding for most of them."""
    layout = (np.arange(200) + np.random.default_rng((9, 2)).uniform(0.0, 1.0, 200)) / 200
    points = [[float(p)] for p in layout]
    specs = [{"label": f"k{k}", "kind": "knn", "parameters": {"points": points, "k": k}}
             for k in range(1, 40, 2)]
    for m in smoothers.build_family(specs, 200, "family"):
        k = m.params["k"]
        assert m.df == m.frob_sq == 200 / k
        assert m.df == pytest.approx(float(np.trace(m.h)), rel=1e-14)


def test_knn_k_too_large():
    with pytest.raises(ValueError):
        knn_from_points("knn", np.arange(3.0), 4)


def test_knn_rejects_non_finite_points():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            knn_from_points("knn", [[0.0, 1.0], [bad, 0.0], [2.0, 2.0]], 2)


def _knn_reference(points, k):
    """Row i: i itself, then the k-1 closest other points, ties by index."""
    points = np.asarray(points, dtype=float).reshape(len(points), -1)
    n = len(points)
    diffs = points[:, None, :] - points[None, :, :]
    dist_sq = np.sum(diffs * diffs, axis=2)
    h = np.zeros((n, n))
    for i in range(n):
        order = sorted((j for j in range(n) if j != i), key=lambda j: (dist_sq[i, j], j))
        h[i, [i] + order[: k - 1]] = 1.0 / k
    return h


def test_knn_matches_sorted_reference_with_ties_and_duplicates():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        d = int(rng.integers(1, 3))
        # small integer grid: many equal distances and repeated points
        points = rng.integers(-2, 3, size=(n, d)).astype(float)
        for k in {1, n, int(rng.integers(1, n + 1))}:
            np.testing.assert_array_equal(knn_from_points("knn", points, k).h,
                                          _knn_reference(points, k))


def test_knn_gershgorin_bound():
    ident = knn_from_points("k1", np.arange(3.0), 1)
    assert knn_opnorm_bound(ident) == 1.0
    assert ident.opnorm == pytest.approx(1.0)

    mean = knn_from_points("k3", np.arange(3.0), 3)
    assert knn_opnorm_bound(mean) == 1.0
    assert mean.opnorm == pytest.approx(1.0)

    equi = knn_from_points("k2", np.arange(6.0), 2)
    bound = knn_opnorm_bound(equi)
    oracle = np.linalg.svd(equi.h, compute_uv=False)[0]
    assert bound == 0.5 * np.max(np.sum(equi.h > 0, axis=0))
    assert bound >= oracle - 1e-12

    # k is the member's own; a member of another kind has no k
    for other in (from_matrix("k1-matrix", ident.h), krr_from_gram("krr", np.eye(3), 1.0)):
        with pytest.raises(ValueError, match="not k-NN"):
            knn_opnorm_bound(other)


def test_knn_opnorm_bound_counts_the_matrix_columns():
    rng = np.random.default_rng(25)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        # small integer grid: many equal distances and repeated points
        points = rng.integers(-2, 3, size=(n, int(rng.integers(1, 3)))).astype(float)
        for k in {1, n, int(rng.integers(1, n + 1))}:
            m = knn_from_points("knn", points, k)
            assert knn_opnorm_bound(m) == np.max(np.sum(m.h > 0, axis=0)) / k


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_opnorm_frobenius_sandwich(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    flat = data.draw(st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=n * n, max_size=n * n))
    s = from_matrix("h", np.array(flat).reshape(n, n))
    frob = np.sqrt(s.frob_sq)
    assert s.opnorm <= frob + 1e-8 * (1.0 + frob)
    assert frob <= np.sqrt(n) * s.opnorm + 1e-8 * (1.0 + frob)


# -- families and serialization ----------------------------------------------

def test_family_validation():
    a = from_matrix("a", np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SmootherFamily.of([])
    with pytest.raises(ValueError):
        SmootherFamily.of([a, from_matrix("a", np.eye(2))])
    with pytest.raises(ValueError):
        SmootherFamily.of([a, from_matrix("b", np.eye(3))])


def test_family_h_op():
    fam = SmootherFamily.of([
        from_matrix("zero", np.zeros((2, 2))),
        from_matrix("double", 2.0 * np.eye(2)),
    ])
    assert fam.h_op == pytest.approx(2.0) and fam.h_op_effective == fam.h_op
    zero = SmootherFamily.of([from_matrix("zero", np.zeros((2, 2)))])
    assert zero.h_op == 0.0 and zero.h_op_effective == 1.0  # the bounds need h_op >= 1


def test_family_json_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    fam = SmootherFamily.of([
        projection_from_design("proj", rng.standard_normal((4, 3)), [0, 2]),
        krr_from_gram("krr", np.eye(4) * 2.0, 0.5),
        knn_from_points("knn", rng.standard_normal((4, 2)), 2),
        from_matrix("expl", rng.standard_normal((4, 4))),
    ])
    path = tmp_path / "family.json"
    save_family(fam, path)
    loaded = load_family(path)
    assert loaded.labels == fam.labels
    assert loaded.h_op == fam.h_op
    for orig, back in zip(fam.members, loaded.members):
        np.testing.assert_array_equal(orig.h, back.h)
        assert (orig.df, orig.frob_sq, orig.opnorm) == (back.df, back.frob_sq, back.opnorm)


def test_save_family_bytes_match_list_params(tmp_path):
    """Array parameters serialize exactly as the list form did."""
    rng = np.random.default_rng(4)
    design, gram = rng.standard_normal((3, 2)), np.diag([2.0, 1.0, 0.5])
    points2d, points1d = rng.standard_normal((3, 2)), rng.standard_normal(3)
    matrix = rng.standard_normal((3, 3))
    fam = SmootherFamily.of([
        build_smoother({"label": "zero", "kind": "zero", "parameters": {}}, 3),
        build_smoother({"label": "id", "kind": "identity", "parameters": {}}, 3),
        from_matrix("expl", matrix),
        projection_from_design("proj", design, [1]),
        krr_from_gram("krr", gram, 0.25),
        krr_from_gram("krr0", gram, 0.0),
        knn_from_points("knn2d", points2d, 2),
        knn_from_points("knn1d", points1d, 3),
        knn_from_points("knn2d_k3", points2d, 3),
    ])
    expected = [
        ("zero", "zero", {}),
        ("id", "identity", {}),
        ("expl", "explicit", {"matrix": matrix.reshape(-1).tolist()}),
        ("proj", "projection", {"design": design.reshape(-1).tolist(), "p": 2, "subset": [1]}),
        ("krr", "krr", {"gram": gram.reshape(-1).tolist(), "lambda": 0.25}),
        ("krr0", "krr", {"gram": gram.reshape(-1).tolist(), "lambda": 0.0}),
        ("knn2d", "knn", {"points": points2d.tolist(), "k": 2}),
        ("knn1d", "knn", {"points": points1d[:, None].tolist(), "k": 3}),
        ("knn2d_k3", "knn", {"points": points2d.tolist(), "k": 3}),
    ]
    doc = {"schema_version": 1, "n": 3, "smoothers": [
        {"label": label, "kind": kind, "parameters": params}
        for label, kind, params in expected]}
    path = tmp_path / "family.json"
    save_family(fam, path)
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    loaded = load_family(path)  # members on one gram or one point set share the array
    assert loaded.member("krr").params["gram"] is loaded.member("krr0").params["gram"]
    assert loaded.member("knn2d").params["points"] is loaded.member("knn2d_k3").params["points"]
    save_family(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _krr_doc(n, grams, lams):
    return {"schema_version": 1, "n": n, "smoothers": [
        {"label": f"k{i}", "kind": "krr",
         "parameters": {"gram": np.asarray(g).reshape(-1).tolist(), "lambda": lam}}
        for i, (g, lam) in enumerate(zip(grams, lams))]}


def test_krr_family_members_match_standalone():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 4))
    singular, full = a @ a.T, np.diag([3.0, 2.0, 1.0, 0.5, 0.25, 0.125])
    grams, lams = [singular, singular, full, full, singular], [0.5, 2.0, 0.0, 1e-3, 1e3]
    family = family_from_doc(_krr_doc(6, grams, lams))
    for m, gram, lam in zip(family.members, grams, lams):
        alone = krr_from_gram(m.label, gram, lam)
        assert m.h.tobytes() == alone.h.tobytes()
        assert (m.df, m.frob_sq, m.opnorm) == (alone.df, alone.frob_sq, alone.opnorm)
        assert m.spectrum.tobytes() == alone.spectrum.tobytes()
        assert m.basis.tobytes() == alone.basis.tobytes()
        # the spectral form is the matrix
        np.testing.assert_allclose((m.basis * m.spectrum) @ m.basis.T, m.h, atol=1e-12)


def test_saved_krr_family_reloads_bit_identical(tmp_path, monkeypatch):
    """save_family writes one Gram per member (indent 2); load_family decodes
    it once, and every member is the one saved."""
    rng = np.random.default_rng(15)
    a = rng.standard_normal((12, 12))
    gram = a @ a.T
    family = SmootherFamily.of([krr_from_gram(f"k{i}", gram, lam)
                                for i, lam in enumerate([0.0, 0.1, 1.0, 10.0])])
    path = tmp_path / "family.json"
    save_family(family, path)
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, **kw: decoded.append(s) or loads(s, **kw))
    loaded = load_family(path)
    assert len(decoded) == 2  # the Gram once, then the document around it
    for m, back in zip(family.members, loaded.members):
        assert back.h.tobytes() == m.h.tobytes()
        assert (back.df, back.frob_sq, back.opnorm) == (m.df, m.frob_sq, m.opnorm)
        assert back.spectrum.tobytes() == m.spectrum.tobytes()
        assert back.basis is loaded.members[0].basis


def test_saved_krr_grid_converts_its_gram_once(tmp_path, monkeypatch):
    """A saved 24-member grid on one Gram: the reader gives every member one
    list, which is converted once, and each member is the one krr_from_gram
    builds alone."""
    rng = np.random.default_rng(17)
    a = rng.standard_normal((10, 10))
    gram = a @ a.T
    lams = np.geomspace(1e-2, 1e2, 24).tolist()
    path = tmp_path / "family.json"
    save_family(SmootherFamily.of([krr_from_gram(f"k{i}", gram, lam)
                                   for i, lam in enumerate(lams)]), path)
    converted = []
    array = smoothers.validate.array
    monkeypatch.setattr(smoothers.validate, "array",
                        lambda value, *args: converted.append(args[0]) or array(value, *args))
    family = load_family(path)
    assert converted == ["gram"]
    first = family.members[0]
    for m, lam in zip(family.members, lams):
        assert m.params["gram"] is first.params["gram"] and m.basis is first.basis
        alone = krr_from_gram(m.label, gram, lam)
        assert m.h.tobytes() == alone.h.tobytes()
        assert (m.df, m.frob_sq, m.opnorm) == (alone.df, alone.frob_sq, alone.opnorm)
        assert m.spectrum.tobytes() == alone.spectrum.tobytes()


def test_krr_grams_one_digit_apart_stay_distinct(tmp_path):
    """Two Gram texts that differ in one digit are two arrays to the reader:
    two eigendecompositions, each member that of its own Gram."""
    rng = np.random.default_rng(16)
    a = rng.standard_normal((12, 12))
    gram = a @ a.T + np.eye(12)
    text = json.dumps(gram.reshape(-1).tolist())
    first = repr(float(gram[0, 0]))
    near = first[:-1] + str((int(first[-1]) + 1) % 10)
    near_text = text.replace(first, near, 1)
    assert sum(x != y for x, y in zip(text, near_text)) == 1
    near_gram = np.array(json.loads(near_text)).reshape(12, 12)
    members = [(text, gram, 0.5), (near_text, near_gram, 0.5), (text, gram, 2.0)]
    smoothers_json = ", ".join(
        f'{{"label": "k{i}", "kind": "krr", "parameters": {{"gram": {t}, "lambda": {lam}}}}}'
        for i, (t, _, lam) in enumerate(members))
    path = tmp_path / "config.json"
    path.write_text('{"schema_version": 1, "n_reps": 10, "master_seed": 1, '
                    '"model": {"n": 12, "sigma": 1.0, "theta0": {"kind": "sparse", "k": 1, '
                    f'"amplitude": 1.0}}}}, "family": {{"smoothers": [{smoothers_json}]}}}}')
    family = cli._parse_experiment_config(cli._load_json(path))["family"]
    k0, k1, k2 = family.members
    assert k2.basis is k0.basis and k1.basis is not k0.basis and family.basis is None
    assert k1.params["gram"][0] == float(near) != k0.params["gram"][0]
    for m, (_, g, lam) in zip(family.members, members):
        alone = krr_from_gram(m.label, g, lam)
        assert m.h.tobytes() == alone.h.tobytes()
        assert m.basis.tobytes() == alone.basis.tobytes()


def test_krr_members_share_one_gram_and_basis():
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((2, 5, 5))
    doc = _krr_doc(5, [a @ a.T, a @ a.T, b @ b.T, a @ a.T], [0.1, 1.0, 1.0, 10.0])
    for family in (family_from_doc(doc), cli._build_family({"smoothers": doc["smoothers"]}, 5)):
        k0, k1, other, k3 = family.members
        for m in (k1, k3):
            assert m.basis is k0.basis and m.params["gram"] is k0.params["gram"]
        assert other.basis is not k0.basis and other.params["gram"] is not k0.params["gram"]
        assert not k0.basis.flags.writeable and not k0.spectrum.flags.writeable
    assert [m.basis for m in (from_matrix("e", np.eye(5)),
                              knn_from_points("k", np.arange(5.0), 2))] == [None, None]


@pytest.mark.parametrize("singular", [True, False], ids=["singular", "lambda0"])
@pytest.mark.parametrize("n", [2, 7, 20])
def test_krr_spectral_form_matches_dense(n, singular):
    """On a rank n - 1 Gram with positive lambdas, and on a nonsingular Gram
    with lambda = 0 as well, the structured apply, risk and ||H||_F^2 agree with
    their dense formulas within 1e-12 relative, and the dense matrix formed on
    first access has the bytes of (basis * spectrum) @ basis.T."""
    rng = np.random.default_rng(300 + n)
    a = rng.standard_normal((n, n - 1 if singular else n))
    lams = [0.05, 1.0, 20.0] if singular else [0.0, 0.05, 1.0, 20.0]
    family = family_from_doc(_krr_doc(n, [a @ a.T] * len(lams), lams))
    model = GaussianSequenceModel(rng.normal(scale=2.0, size=n), 0.7)
    v, rows = rng.standard_normal(n), rng.standard_normal((5, n))
    for m in family.members:
        assert "h" not in vars(m)  # built without its dense matrix
        h = m.h
        assert h is m.h and not h.flags.writeable  # formed once, read-only
        assert h.tobytes() == ((m.basis * m.spectrum) @ m.basis.T).tobytes()
        assert h.tobytes() == krr_from_gram(m.label, a @ a.T, m.params["lambda"]).h.tobytes()
        for x, want in ((v, h @ v), (rows, rows @ h.T)):
            np.testing.assert_allclose(m.apply(x), want, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)))
        assert m.frob_sq == pytest.approx(float(np.sum(h * h)), rel=1e-12)
        bias = model.theta0 - h @ model.theta0
        dense_risk = float(bias @ bias) + model.sigma_sq * float(np.sum(h * h))
        assert criteria.risk(m, model) == pytest.approx(dense_risk, rel=1e-12)


def test_krr_grid_of_1000_members_holds_no_dense_matrix():
    """1000 members on one Gram list at n = 200: one eigendecomposition and
    1000 filters, no n x n matrix per member (1000 of them would be 320 MB)."""
    n = 200
    rng = np.random.default_rng(21)
    a = rng.standard_normal((n, n))
    gram = (a @ a.T).reshape(-1).tolist()
    specs = [{"label": f"k{i}", "kind": "krr", "parameters": {"gram": gram, "lambda": lam}}
             for i, lam in enumerate(np.geomspace(1e-2, 1e2, 1000).tolist())]
    tracemalloc.start()
    try:
        family = smoothers.build_family(specs, n, "family")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(family) == 1000 and family.basis is not None
    assert peak < 8 * 2**20, peak
    assert not any("h" in vars(m) for m in family)


def test_knn_grid_of_100_members_holds_no_dense_matrix():
    """100 members k = 1..100 on one point set at n = 200: one neighbour
    ordering and no n x n matrix per member (100 of them would be 32 MB)."""
    n = 200
    points = np.random.default_rng(25).standard_normal((n, 2)).tolist()
    specs = [{"label": f"k{k}", "kind": "knn", "parameters": {"points": points, "k": k}}
             for k in range(1, 101)]
    tracemalloc.start()
    try:
        family = smoothers.build_family(specs, n, "family")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(family) == 100 and family.neighbours is not None
    assert peak < 4 * 2**20, peak
    assert all(m.dense is None and "h" not in vars(m) for m in family)


def test_knn_members_hold_only_their_neighbour_ordering(tmp_path, monkeypatch, capsys):
    """k-NN members from knn_from_points, from a family document and from
    `family-info` keep no n x n matrix. The one formed on first access is
    read-only, has the reference's bytes and gives the member's opnorm exactly."""
    n, ks = 12, [1, 3, 7, 12]
    points = np.random.default_rng(24).integers(-2, 3, size=(n, 2)).astype(float)  # ties
    family = family_from_doc(_knn_doc(n, [points.tolist()] * len(ks), ks))
    path = tmp_path / "family.json"
    save_family(family, path)
    built, build_family = [], cli._build_family
    monkeypatch.setattr(cli, "_build_family", lambda *args: built.append(build_family(*args))
                        or built[-1])
    assert cli.main(["family-info", "--family", str(path)]) == 0
    assert capsys.readouterr().out.count("\n") == len(ks) + 2
    members = [*(knn_from_points(f"k{k}", points, k) for k in ks), *family, *built[0]]
    for m in members:  # all before any matrix is formed
        assert m.dense is None and "h" not in vars(m) and m.n == n
    for m in members:
        h = m.h
        assert h is m.h and not h.flags.writeable  # formed once, read-only
        assert h.tobytes() == _knn_reference(points, m.params["k"]).tobytes()
        assert m.opnorm == operator_norm(h)


def test_family_to_doc_converts_a_shared_gram_once():
    """200 members on one Gram at n = 100: the document holds one list of the
    Gram for every member (one list a member would be 64 MB)."""
    n = 100
    rng = np.random.default_rng(22)
    a = rng.standard_normal((n, n))
    gram = (a @ a.T).reshape(-1).tolist()
    family = smoothers.build_family(
        [{"label": f"k{i}", "kind": "krr", "parameters": {"gram": gram, "lambda": lam}}
         for i, lam in enumerate(np.geomspace(1e-2, 1e2, 200).tolist())], n, "family")
    tracemalloc.start()
    try:
        doc = family_to_doc(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lists = [entry["parameters"]["gram"] for entry in doc["smoothers"]]
    assert all(g is lists[0] for g in lists)
    assert lists[0] == family.members[0].params["gram"].tolist()
    assert peak < 2 * 2**20, peak


def _knn_doc(n, point_sets, ks):
    return {"schema_version": 1, "n": n, "smoothers": [
        {"label": f"k{i}", "kind": "knn", "parameters": {"points": points, "k": k}}
        for i, (points, k) in enumerate(zip(point_sets, ks))]}


def test_knn_family_members_match_standalone():
    rng = np.random.default_rng(13)
    ties = rng.integers(-1, 2, size=(9, 2)).astype(float)  # equal distances, repeats
    line = rng.standard_normal(9)
    point_sets = [ties.tolist(), ties.tolist(), line.tolist(), ties.tolist(), line.tolist()]
    ks = [1, 4, 3, 9, 9]
    family = family_from_doc(_knn_doc(9, point_sets, ks))
    for m, points, k in zip(family.members, point_sets, ks):
        alone = knn_from_points(m.label, points, k)
        assert m.h.tobytes() == alone.h.tobytes()
        assert (m.df, m.frob_sq, m.opnorm) == (alone.df, alone.frob_sq, alone.opnorm)
        assert m.params["points"].tobytes() == alone.params["points"].tobytes()
        assert m.params["k"] == alone.params["k"]


def test_knn_members_share_one_points_and_ordering(monkeypatch):
    rng = np.random.default_rng(14)
    a, b = rng.standard_normal((2, 6, 2)).tolist()
    doc = _knn_doc(6, [a, a, b, a], [1, 3, 3, 6])
    orderings, neighbour_order = [], smoothers._neighbour_order

    def recording_order(points):
        orderings.append(neighbour_order(points))
        return orderings[-1]

    monkeypatch.setattr(smoothers, "_neighbour_order", recording_order)
    for build in (lambda: family_from_doc(doc),
                  lambda: cli._build_family({"smoothers": doc["smoothers"]}, 6)):
        orderings.clear()
        k0, k1, other, k3 = build().members
        assert len(orderings) == 2  # one ordering per distinct point set
        for m in (k1, k3):
            assert m.params["points"] is k0.params["points"]
        assert other.params["points"] is not k0.params["points"]
        assert k0.params["points"] is orderings[0][0] and other.params["points"] is orderings[1][0]
        assert k0.neighbours is orderings[0][1] and other.neighbours is orderings[1][1]
        assert not any(array.flags.writeable for pair in orderings for array in pair)
    # the same floats as 12 one-dimensional points are 12 points, not n = 6
    with pytest.raises(ValueError, match="points: expected n = 6 points, got 12"):
        family_from_doc(_knn_doc(6, [a, np.reshape(a, (12, 1)).tolist()], [1, 1]))


def test_saved_knn_family_converts_its_points_once(tmp_path, monkeypatch):
    """A saved family of the knn_n200 bench's shape (20 members on 200 points
    of a line, written as rows [[x], ...]): the reader gives every member one
    points list, which is converted once, and each member is the one
    knn_from_points builds alone."""
    n = 200
    points = ((np.arange(n) + np.random.default_rng(25).uniform(size=n)) / n)[:, None]
    ks = range(1, 40, 2)
    path = tmp_path / "family.json"
    save_family(SmootherFamily.of([knn_from_points(f"k{k}", points, k) for k in ks]), path)
    doc = smoothers.validate.load_json(path)
    assert len({id(spec["parameters"]["points"]) for spec in doc["smoothers"]}) == 1
    converted = []
    array = smoothers.validate.array
    monkeypatch.setattr(smoothers.validate, "array", lambda value, *args: converted.append(
        type(value)) or array(value, *args))
    family = family_from_doc(doc)
    assert converted.count(list) == 1 and family.neighbours is not None
    for m, k in zip(family.members, ks):
        alone = knn_from_points(m.label, points, k)
        assert m.neighbours.tobytes() == alone.neighbours.tobytes()
        assert (m.df, m.frob_sq, m.opnorm) == (alone.df, alone.frob_sq, alone.opnorm)


def test_family_neighbours_is_the_one_shared_ordering():
    a = np.random.default_rng(15).standard_normal((6, 2))
    one_set = family_from_doc(_knn_doc(6, [a.tolist()] * 3, [2, 6, 1]))
    assert one_set.neighbours is one_set.members[0].neighbours is not None
    # built apart, the orderings are equal arrays but not one object
    apart = SmootherFamily.of([knn_from_points("x", a, 1), knn_from_points("y", a, 4)])
    assert apart.members[0].neighbours is not apart.members[1].neighbours
    assert apart.neighbours is apart.members[0].neighbours
    # two point sets, or another kind: see test_knn_path_needs_one_ordering
    assert [m.neighbours for m in (from_matrix("e", np.eye(5)),
                                   krr_from_gram("k", np.eye(5), 1.0))] == [None, None]


@pytest.mark.parametrize("make", [
    pytest.param(lambda: from_matrix("a", np.eye(2)), id="smoother"),
    pytest.param(lambda: SmootherFamily.of([krr_from_gram("a", np.eye(2), 1.0)]), id="family"),
    pytest.param(lambda: GaussianSequenceModel(np.ones(2), 1.0), id="model"),
])
def test_equality_and_hash_are_identity(make):
    a, b = make(), make()  # equal contents, two objects
    assert a == a and a != b
    assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)
    keys = {a: "a", b: "b"}
    assert keys[a] == "a" and keys[b] == "b" and len({a, b, a}) == 2


def test_from_matrix_keeps_one_copy():
    source = np.asfortranarray(np.arange(6.0).reshape(2, 3)[:, :2])
    s = from_matrix("m", source)
    assert np.shares_memory(s.h, s.params["matrix"])
    assert not np.shares_memory(s.h, source)
    np.testing.assert_array_equal(s.params["matrix"], [0.0, 1.0, 3.0, 4.0])  # row-major
    assert not s.h.flags.writeable and not s.params["matrix"].flags.writeable
    source[0, 0] = 99.0
    assert s.h[0, 0] == 0.0 and s.params["matrix"][0] == 0.0


def test_params_are_read_only_arrays():
    s = krr_from_gram("krr", np.eye(3), 1.0)
    assert isinstance(s.params["gram"], np.ndarray) and s.params["gram"].shape == (9,)
    with pytest.raises(ValueError):
        s.params["gram"][0] = 5.0


def test_family_doc_rejects_unknown_keys():
    doc = family_to_doc(SmootherFamily.of([from_matrix("a", np.eye(2))]))
    doc["extra"] = 1
    with pytest.raises(ValueError):
        family_from_doc(doc)
