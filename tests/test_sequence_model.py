import numpy as np
import pytest

from sure_lab import (
    GaussianSequenceModel,
    derive_stream,
    make_theta0,
    run_experiment,
    sample,
    standard_normal_rows,
)
from sure_lab.smoothers import SmootherFamily, from_matrix


def test_make_theta0_zero():
    assert np.array_equal(make_theta0("zero", 3), np.zeros(3))


def test_make_theta0_sparse():
    assert np.array_equal(make_theta0("sparse", 3, k=1, amplitude=2.0), [2.0, 0.0, 0.0])


def test_make_theta0_poly_decay():
    got = make_theta0("poly_decay", 3, alpha=1.0, scale=1.0)
    np.testing.assert_allclose(got, [1.0, 0.5, 1.0 / 3.0], rtol=1e-15)


def test_make_theta0_constant_and_explicit():
    assert np.array_equal(make_theta0("constant", 2, value=3.5), [3.5, 3.5])
    assert np.array_equal(make_theta0("explicit", 2, values=[1.0, -1.0]), [1.0, -1.0])


@pytest.mark.parametrize("kind,params", [
    ("sparse", {"k": 5, "amplitude": 1.0}),     # k > n
    ("poly_decay", {"alpha": -1.0, "scale": 1.0}),
    ("explicit", {"values": [1.0]}),            # wrong length
    ("no_such_kind", {}),
    ("sparse", {"k": 1, "amplitude": 1.0, "junk": 0}),
])
def test_make_theta0_invalid(kind, params):
    with pytest.raises(ValueError):
        make_theta0(kind, 3, **params)


def test_model_invariants():
    with pytest.raises(ValueError):
        GaussianSequenceModel(theta0=[1.0, 0.0], sigma=0.0)
    with pytest.raises(ValueError):
        GaussianSequenceModel(theta0=[1.0, np.inf], sigma=1.0)
    with pytest.raises(ValueError):
        GaussianSequenceModel(theta0=[], sigma=1.0)
    for sigma in (1e-160, 1e200, -1.0):  # sigma^2 subnormal, overflowing; sigma negative
        with pytest.raises(ValueError, match="sigma"):
            GaussianSequenceModel(theta0=[1.0, 0.0], sigma=sigma)


def test_sample_reconstruction_exact():
    model = GaussianSequenceModel(theta0=[1.0, 0.0], sigma=1.0)
    obs = sample(model, derive_stream(7, 0))
    # exact floating-point identity by construction
    assert np.max(np.abs(obs.y - model.theta0 - obs.z)) == 0.0


def test_sample_moments():
    model = GaussianSequenceModel(theta0=[0.5, -2.0, 3.0], sigma=1.5)
    stream = derive_stream(2024, 0)
    reps = 10**5
    zs = np.stack([sample(model, stream).z for _ in range(reps)])
    tol_mean = 4.0 * model.sigma / np.sqrt(reps)
    tol_var = 4.0 * model.sigma**2 * np.sqrt(2.0 / reps)
    assert np.all(np.abs(zs.mean(axis=0)) <= tol_mean)
    assert np.all(np.abs(zs.var(axis=0, ddof=1) - model.sigma**2) <= tol_var)


def test_derive_stream_deterministic_and_distinct():
    a = derive_stream(42, 0).standard_normal(8)
    b = derive_stream(42, 0).standard_normal(8)
    c = derive_stream(42, 1).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_stream_validation():
    with pytest.raises(ValueError):
        derive_stream(42, -1)
    with pytest.raises(ValueError):
        derive_stream(-1, 0)


def test_standard_normal_rows_match_derive_stream():
    block = 65  # block length of a 20-member family at n = 200
    rows = standard_normal_rows(42, 0, block + 1, 200)
    for i in (0, block - 1, block):
        assert np.array_equal(rows[i], derive_stream(42, i).standard_normal(200))
    far = standard_normal_rows(42, 2**40, 2**40 + 2, 7)
    for k in range(2):
        assert np.array_equal(far[k], derive_stream(42, 2**40 + k).standard_normal(7))
    with pytest.raises(ValueError):
        standard_normal_rows(-1, 0, 1, 3)


def test_records_independent_of_thread_count():
    model = GaussianSequenceModel(theta0=[1.0, 0.0, -0.5], sigma=1.0)
    family = SmootherFamily.of([
        from_matrix("zero", np.zeros((3, 3))),
        from_matrix("id", np.eye(3)),
    ])
    _, recs1 = run_experiment(family, model, 500, 42, n_threads=1, keep_records=True)
    _, recs8 = run_experiment(family, model, 500, 42, n_threads=8, keep_records=True)
    assert recs1 == recs8
