import math

import numpy as np
import pytest

from metrolab import (
    MixedState,
    PairAxis,
    Povm,
    build_basis,
    coherent_cutoff,
    coherent_truncated,
    displacement_bound,
    drop_reference,
    fidelity,
    fisher_information,
    general_probe,
    jn_variance_closed_form,
    jy_variance_closed_form,
    lossy_probe,
    noon,
    number_op,
    optimal_povm,
    projective_povm,
    qfi_mixed,
    qfi_pure,
    quadrature_p,
    rotated_fock,
    schwinger_j,
    two_mode_fixed_n,
    variance,
)

Z_AXIS = dict(beta=0.0, phi=0.0)


def random_profile(rng, length):
    c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return c / np.linalg.norm(c)


def random_axis(rng, i=0, j=1):
    return PairAxis(i, j, beta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi))


def random_projective_povm(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(raw)
    return projective_povm(q)


def noon_probe_with_environment(n_total):
    c = np.zeros((n_total + 1, n_total + 1), dtype=complex)
    c[n_total, 0] = c[0, n_total] = 1 / math.sqrt(2)
    return general_probe(c, n_total)


def bures_qfi(rho, generator, eps=2e-2):
    """Richardson-extrapolated fidelity susceptibility, 8(1 - sqrt(F))/eps^2."""
    w, v = np.linalg.eigh(generator.matrix)

    def at(step):
        u = (v * np.exp(1j * step * w)) @ v.conj().T
        shifted = MixedState(rho.basis, u @ rho.matrix @ u.conj().T, check_psd=False)
        f = fidelity(rho, shifted)
        return 8.0 * (1.0 - math.sqrt(f)) / step**2

    return (4.0 * at(eps / 2) - at(eps)) / 3.0


class TestVariance:
    def test_eigenstate_zero(self):
        basis = build_basis(2, 3)
        state = basis.basis_state((1, 2))
        assert variance(state, number_op(basis, 0)) == 0.0

    def test_noon_jz(self):
        state = noon(4)
        jz = schwinger_j(state.basis, PairAxis(0, 1, **Z_AXIS))
        assert np.isclose(variance(state, jz), 4.0, atol=1e-12)

    def test_coherent_number(self):
        state = coherent_truncated(2.0, 40)
        assert abs(variance(state, number_op(state.basis, 0)) - 4.0) < 1e-8

    def test_basis_mismatch(self):
        with pytest.raises(ValueError):
            variance(noon(2), number_op(build_basis(2, 3), 0))

    def test_mixed_state_variance(self):
        from metrolab import partial_trace

        rho = partial_trace(noon(3), keep={0})
        n = number_op(rho.basis, 0)
        # half at n=0, half at n=3: mean 1.5, var 2.25
        assert np.isclose(variance(rho, n), 2.25, atol=1e-12)


class TestQfiPure:
    @pytest.mark.parametrize("n_total", range(1, 11))
    def test_noon_heisenberg(self, n_total):
        state = noon(n_total)
        jz = schwinger_j(state.basis, PairAxis(0, 1, **Z_AXIS))
        assert abs(qfi_pure(state, jz).qfi - n_total**2) < 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_coherent_shot_noise(self, alpha):
        state = coherent_truncated(alpha, coherent_cutoff(alpha))
        report = qfi_pure(state, number_op(state.basis, 0))
        assert abs(report.qfi - 4 * alpha**2) < 1e-6

    def test_generator_eigenstate(self):
        basis = build_basis(2, 2)
        state = basis.basis_state((2, 0))
        assert qfi_pure(state, number_op(basis, 0)).qfi == 0.0

    def test_crb_attached(self):
        report = qfi_pure(noon(3), schwinger_j(build_basis(2, 3), PairAxis(0, 1, **Z_AXIS)), nu=4)
        assert report.crb.nu == 4
        assert np.isclose(report.crb.delta, 1 / math.sqrt(4 * 9), atol=1e-12)
        with pytest.raises(ValueError):
            qfi_pure(noon(2), schwinger_j(build_basis(2, 2), PairAxis(0, 1, **Z_AXIS)), nu=0)

    def test_rejects_mixed(self):
        from metrolab import partial_trace

        rho = partial_trace(noon(2), keep={0})
        with pytest.raises(TypeError):
            qfi_pure(rho, number_op(rho.basis, 0))


class TestQfiMixed:
    def test_rank_one_matches_pure(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            c = random_profile(rng, 5)
            state = two_mode_fixed_n(c, 4)
            gen = schwinger_j(state.basis, random_axis(rng))
            assert abs(qfi_mixed(state.to_mixed(), gen).qfi - qfi_pure(state, gen).qfi) < 1e-8

    def test_maximally_mixed_zero(self):
        basis = build_basis(2, 2)
        rho = MixedState(basis, np.eye(basis.dim) / basis.dim)
        gen = schwinger_j(basis, PairAxis(0, 1, beta=1.0, phi=0.5))
        assert qfi_mixed(rho, gen).qfi < 1e-12

    def test_lossy_noon_matches_bures_oracle(self):
        probe = noon_probe_with_environment(3)
        rho = lossy_probe(probe, 0, math.pi / 2)
        gen = schwinger_j(rho.basis, PairAxis(0, 2, **Z_AXIS))
        q = qfi_mixed(rho, gen).qfi
        assert abs(q - bures_qfi(rho, gen)) < 1e-6

    def test_rejects_non_psd(self):
        basis = build_basis(1, 1)
        mat = np.array([[1.0 + 1e-8, 0], [0, -1e-8]], dtype=complex)
        rho = MixedState(basis, mat, check_psd=False)
        gen = number_op(basis, 0)
        with pytest.raises(ValueError):
            qfi_mixed(rho, gen)
        with pytest.raises(ValueError):
            MixedState(basis, np.diag([1.5, -0.5]).astype(complex))


class TestClosedFormVariance:
    def test_beta_zero_reduces_to_number_variance(self):
        rng = np.random.default_rng(1)
        c = random_profile(rng, 8)
        probs = np.abs(c) ** 2
        n = np.arange(8)
        expected = float(probs @ n**2 - (probs @ n) ** 2)
        assert np.isclose(jn_variance_closed_form(c, 7, 0.0, 1.3), expected, atol=1e-12)

    def test_noon_any_axis_matches_matrix(self):
        rng = np.random.default_rng(2)
        n_total = 6
        c = np.zeros(n_total + 1, dtype=complex)
        c[0] = c[n_total] = 1 / math.sqrt(2)
        state = two_mode_fixed_n(c, n_total)
        for _ in range(10):
            beta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            matrix = variance(state, schwinger_j(state.basis, PairAxis(0, 1, beta=beta, phi=phi)))
            closed = jn_variance_closed_form(c, n_total, beta, phi)
            assert abs(matrix - closed) < 1e-10

    def test_random_suite_matches_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n_total = int(rng.integers(1, 31))
            c = random_profile(rng, n_total + 1)
            beta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            state = two_mode_fixed_n(c, n_total)
            matrix = variance(state, schwinger_j(state.basis, PairAxis(0, 1, beta=beta, phi=phi)))
            assert abs(matrix - jn_variance_closed_form(c, n_total, beta, phi)) < 1e-10

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            jn_variance_closed_form([1, 0], 3, 0.1, 0.2)
        with pytest.raises(ValueError):
            jy_variance_closed_form([1, 0], 3)


class TestJyVariance:
    def test_equals_general_form(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_total = int(rng.integers(1, 25))
            c = random_profile(rng, n_total + 1)
            general = jn_variance_closed_form(c, n_total, math.pi / 2, math.pi / 2)
            assert abs(jy_variance_closed_form(c, n_total) - general) < 1e-10

    def test_vacuum_profile(self):
        n_total = 12
        c = np.zeros(n_total + 1)
        c[0] = 1.0
        assert np.isclose(jy_variance_closed_form(c, n_total), n_total / 4.0, atol=1e-12)

    def test_converges_to_quadrature_variance(self):
        profile = coherent_truncated(0.8, coherent_cutoff(0.8))
        roomy = profile.expand_cutoff(profile.basis.n_total + 4)
        var_p = variance(roomy, quadrature_p(roomy.basis, 0))
        gaps = []
        for n_total in (20, 80, 320):
            c = np.zeros(n_total + 1, dtype=complex)
            c[: profile.basis.n_total + 1] = profile.amplitudes
            c /= np.linalg.norm(c)
            gaps.append(abs(jy_variance_closed_form(c, n_total) / n_total - var_p))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.05 * var_p


class TestDisplacementBound:
    def test_vacuum(self):
        basis = build_basis(1, 6)
        assert np.isclose(displacement_bound(basis.basis_state((0,)), nu=1), 1.0, atol=1e-12)

    def test_coherent_keeps_vacuum_noise(self):
        state = coherent_truncated(2.0, 40)
        assert abs(displacement_bound(state, nu=1) - 1.0) < 1e-8

    def test_repetition_scaling(self):
        state = coherent_truncated(1.0, 30)
        one = displacement_bound(state, nu=1)
        hundred = displacement_bound(state, nu=100)
        assert np.isclose(hundred, one / 10.0, atol=1e-12)

    def test_boundary_guard(self):
        basis = build_basis(1, 10)
        with pytest.raises(ValueError):
            displacement_bound(basis.basis_state((10,)), nu=1)

    def test_needs_single_mode(self):
        with pytest.raises(ValueError):
            displacement_bound(noon(2), nu=1)


class TestFisherInformation:
    def test_single_outcome_gives_zero(self):
        state = noon(2)
        gen = schwinger_j(state.basis, PairAxis(0, 1, **Z_AXIS))
        trivial = Povm([np.eye(state.basis.dim)])
        assert fisher_information(state, gen, trivial, kappa0=0.3) == 0.0

    def test_noon2_jx_basis_measurement_reaches_qfi(self):
        state = noon(2)
        gen = schwinger_j(state.basis, PairAxis(0, 1, **Z_AXIS))
        jx = schwinger_j(state.basis, PairAxis(0, 1, beta=math.pi / 2, phi=0.0))
        _, vecs = np.linalg.eigh(jx.matrix)
        povm = projective_povm(vecs)
        fi = fisher_information(state, gen, povm, kappa0=math.pi / 8)
        assert abs(fi - 4.0) < 1e-4

    def test_bounded_by_qfi(self):
        rng = np.random.default_rng(5)
        for case in range(100):
            n_total = int(rng.integers(1, 6))
            c = random_profile(rng, n_total + 1)
            state = two_mode_fixed_n(c, n_total)
            gen = schwinger_j(state.basis, random_axis(rng))
            if case % 2:  # alternate pure and genuinely mixed probes
                dim = state.basis.dim
                blend = 0.8 * state.density_matrix() + 0.2 * np.eye(dim) / dim
                probe = MixedState(state.basis, blend, check_psd=False)
                qfi = qfi_mixed(probe, gen).qfi
            else:
                probe = state
                qfi = qfi_pure(state, gen).qfi
            povm = random_projective_povm(rng, state.basis.dim)
            fi = fisher_information(probe, gen, povm, kappa0=rng.uniform(0, 1))
            assert fi <= qfi + 1e-6

    def test_derivative_methods_agree(self):
        state = noon(3)
        gen = schwinger_j(state.basis, PairAxis(0, 1, **Z_AXIS))
        jx = schwinger_j(state.basis, PairAxis(0, 1, beta=math.pi / 2, phi=0.0))
        _, vecs = np.linalg.eigh(jx.matrix)
        povm = projective_povm(vecs)
        values = [
            fisher_information(state, gen, povm, kappa0=0.2, method=method)
            for method in ("central", "richardson", "analytic")
        ]
        assert abs(values[0] - values[2]) < 1e-6
        assert abs(values[1] - values[2]) < 1e-9

    def test_rejects_bad_arguments(self):
        state = noon(2)
        gen = schwinger_j(state.basis, PairAxis(0, 1, **Z_AXIS))
        povm = Povm([np.eye(state.basis.dim)])
        with pytest.raises(ValueError):
            fisher_information(state, gen, povm, kappa0=0.0, dkappa=0.0)
        with pytest.raises(ValueError):
            fisher_information(state, gen, povm, kappa0=0.0, method="nope")

    def test_divergent_outcome_warns_and_returns_inf(self):
        # an outcome with ~1e-14 probability but a real first-order slope:
        # the 1/P weight blows up and the guard must flag it
        basis = build_basis(1, 3)
        amp = np.zeros(basis.dim, dtype=complex)
        amp[0] = 1.0
        amp[1] = 1e-7
        from metrolab import PureState

        state = PureState(basis, amp, normalize=True)
        gen = quadrature_p(basis, 0)
        povm = projective_povm(np.eye(basis.dim))
        with pytest.warns(RuntimeWarning):
            fi = fisher_information(state, gen, povm, kappa0=0.0)
        assert math.isinf(fi)

    def test_analytic_mixing_generator_matches_dense_reference(self):
        # quadrature_p couples neighbouring sectors, so it is exponentiated
        # as one block; the reference builds exp(i kappa p) from its own eigh
        rng = np.random.default_rng(11)
        basis = build_basis(2, 4)
        v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        v /= np.linalg.norm(v)
        blend = 0.7 * np.outer(v, v.conj()) + 0.3 * np.eye(basis.dim) / basis.dim
        rho = MixedState(basis, blend)
        gen = quadrature_p(basis, 0)
        povm = random_projective_povm(rng, basis.dim)
        kappa0 = 0.6

        w, vecs = np.linalg.eigh(gen.matrix)
        u = (vecs * np.exp(1j * kappa0 * w)) @ vecs.conj().T
        rho_k = u @ rho.matrix @ u.conj().T
        drho = 1j * (gen.matrix @ rho_k - rho_k @ gen.matrix)
        p = np.array([np.real(np.trace(e @ rho_k)) for e in povm.elements])
        dp = np.array([np.real(np.trace(e @ drho)) for e in povm.elements])
        assert p.min() > 1e-6
        expected = float(np.sum(dp**2 / p))

        fi = fisher_information(rho, gen, povm, kappa0=kappa0, method="analytic")
        assert abs(fi - expected) <= 1e-12 * max(1.0, expected)


class TestOptimalPovm:
    def test_pure_probe_reaches_qfi(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n_total = int(rng.integers(2, 6))
            c = random_profile(rng, n_total + 1)
            state = two_mode_fixed_n(c, n_total)
            gen = schwinger_j(state.basis, random_axis(rng))
            qfi = qfi_pure(state, gen).qfi
            kappa0 = rng.uniform(0, 1)
            povm = optimal_povm(state, gen, kappa0=kappa0)
            fi = fisher_information(state, gen, povm, kappa0=kappa0)
            assert abs(fi - qfi) <= 1e-4 * max(1.0, qfi)

    def test_generator_eigenstate_gives_valid_povm(self):
        basis = build_basis(2, 3)
        state = basis.basis_state((3, 0))
        gen = number_op(basis, 0)
        povm = optimal_povm(state, gen, kappa0=0.1)
        assert len(povm) == basis.dim  # complete projective set
        assert fisher_information(state, gen, povm, kappa0=0.1) < 1e-10

    def test_lossy_probe_ratio(self):
        probe = noon_probe_with_environment(3)
        rho = lossy_probe(probe, 0, math.pi / 4)
        gen = schwinger_j(rho.basis, PairAxis(0, 2, **Z_AXIS))
        qfi = qfi_mixed(rho, gen).qfi
        povm = optimal_povm(rho, gen, kappa0=0.37)
        fi = fisher_information(rho, gen, povm, kappa0=0.37)
        assert 0.999 <= fi / qfi <= 1.001


class TestPovmValidation:
    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            Povm([np.eye(3) * 0.5])

    def test_rejects_non_psd(self):
        e1 = np.diag([1.5, 1.0, 1.0])
        e2 = np.diag([-0.5, 0.0, 0.0])
        with pytest.raises(ValueError):
            Povm([e1, e2])

    def test_rejects_non_hermitian(self):
        e = np.zeros((2, 2), dtype=complex)
        e[0, 1] = 1.0
        with pytest.raises(ValueError):
            Povm([e, np.eye(2) - e])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Povm([np.full((2, 2), bad)])
        with pytest.raises(ValueError):
            Povm([np.diag([bad, 0.0]), np.diag([0.0, 1.0])])

    def test_accepts_projective(self):
        povm = projective_povm(np.eye(4))
        assert len(povm) == 4


class TestPrecisionChain:
    def test_jz_variance_equals_number_variance(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n_total = int(rng.integers(1, 12))
            c = random_profile(rng, n_total + 1)
            state = two_mode_fixed_n(c, n_total)
            jz = schwinger_j(state.basis, PairAxis(0, 1, **Z_AXIS))
            n0 = number_op(state.basis, 0)
            assert abs(variance(state, jz) - variance(state, n0)) < 1e-12

    def test_rotation_bound_reproduces_displacement_bound(self):
        # delta(theta/2) from 4 Var(Jy), scaled by sqrt(N), against the
        # quadrature route on the payload-mode profile
        nu, alpha, n_total = 3, 0.6, 200
        theta = 2 * math.asin(alpha / math.sqrt(n_total))
        probe = rotated_fock(n_total, theta, 0.0)
        profile = drop_reference(probe)
        assert profile.basis.n_total / 2 > 100 * alpha**2  # deep in the CV regime

        var_jy = jy_variance_closed_form(profile.amplitudes, n_total)
        delta_half_theta = 1.0 / math.sqrt(4 * nu * var_jy)
        delta_alpha_from_jy = math.sqrt(n_total) * delta_half_theta

        delta_alpha = displacement_bound(profile, nu=nu)
        assert abs(delta_alpha_from_jy - delta_alpha) < 0.05 * delta_alpha
