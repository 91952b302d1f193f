import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metrolab import (
    HermitianOp,
    MixedState,
    PairAxis,
    Povm,
    build_basis,
    coherent_cutoff,
    coherent_truncated,
    drop_reference,
    expectation,
    fisher_information,
    general_probe,
    jn_variance_closed_form,
    jy_variance_closed_form,
    lossy_probe,
    noon,
    number_op,
    optimal_povm,
    qfi_mixed,
    qfi_pure,
    quadrature_p,
    rotated_fock,
    schwinger_j,
    two_mode_fixed_n,
    variance,
)
from metrolab import metrology
from metrolab.fock import _from_columns
from metrolab.metrology import _outcome_probs
from reference import basis_state, density_matrix, to_mixed, uhlmann_fidelity

Z_AXIS = dict(beta=0.0, phi=0.0)


def random_profile(rng, length):
    c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return c / np.linalg.norm(c)


def random_axis(rng, i=0, j=1):
    return PairAxis(i, j, beta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi))


def random_projective_povm(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(raw)
    return Povm(q)


def noon_probe_with_environment(n_total):
    c = np.zeros((n_total + 1, n_total + 1), dtype=complex)
    c[n_total, 0] = c[0, n_total] = 1 / math.sqrt(2)
    return general_probe(c, n_total)


def dense_evolved(rho, generator, kappa):
    """U rho U† with U = exp(i kappa H) from one eigh of the whole matrix."""
    w, v = np.linalg.eigh(generator.matrix)
    u = (v * np.exp(1j * kappa * w)) @ v.conj().T
    return u @ rho @ u.conj().T


def element_traces(povm, rho):
    return np.array([np.real(np.trace(np.outer(v, v.conj()) @ rho)) for v in povm.vectors.T])


def dense_analytic_fisher(rho, generator, povm, kappa0):
    """(P_i, sum_i P_i'^2 / P_i) from full-matrix products and per-element traces."""
    rho_k = dense_evolved(rho, generator, kappa0)
    drho = 1j * (generator.matrix @ rho_k - rho_k @ generator.matrix)
    p, dp = element_traces(povm, rho_k), element_traces(povm, drho)
    return p, float(np.sum(dp**2 / p))


def bures_qfi(rho, generator, eps=2e-2):
    """Richardson-extrapolated fidelity susceptibility, 8(1 - sqrt(F))/eps^2."""
    w, v = np.linalg.eigh(generator.matrix)

    def at(step):
        u = (v * np.exp(1j * step * w)) @ v.conj().T
        shifted = MixedState(rho.basis, u @ rho.matrix @ u.conj().T)
        f = uhlmann_fidelity(rho, shifted)
        return 8.0 * (1.0 - math.sqrt(f)) / step**2

    return (4.0 * at(eps / 2) - at(eps)) / 3.0


class TestVariance:
    def test_eigenstate_zero(self):
        basis = build_basis(2, 3)
        state = basis_state(basis, (1, 2))
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

    @pytest.mark.parametrize("axis", [Z_AXIS, dict(beta=1.1, phi=0.4)], ids=["diagonal", "dense"])
    def test_pure_state_applies_the_operator_once(self, axis):
        state = two_mode_fixed_n(np.array([0.6, 0.0, 0.8j, 0.0]), 3)
        op = schwinger_j(state.basis, PairAxis(0, 1, **axis))
        assert (op.weights is None) == (axis is not Z_AXIS)
        with mock.patch.object(
            HermitianOp, "_apply", autospec=True, side_effect=HermitianOp._apply
        ) as applied:
            var = variance(state, op)
        assert applied.call_count == 1
        assert abs(var - jn_variance_closed_form(state.amplitudes[-4:], 3, **axis)) <= 1e-12

    def test_mixed_state_variance(self):
        from metrolab import partial_trace

        rho = partial_trace(noon(3), keep={0})
        n = number_op(rho.basis, 0)
        # half at n=0, half at n=3: mean 1.5, var 2.25
        assert np.isclose(variance(rho, n), 2.25, atol=1e-12)


    @given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_mixed_dense_matches_trace_formulas(self, num_modes, n_total, seed):
        """Re vdot forms against tr(rho H), tr(rho D D) and tr(rho rho), D = H - <H>."""
        rng = np.random.default_rng(seed)
        basis = build_basis(num_modes, n_total)
        dim = basis.dim
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = MixedState(basis, g @ g.conj().T / np.trace(g @ g.conj().T).real)
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = HermitianOp(basis, (h + h.conj().T) / 2)
        mean = float(np.real(np.trace(rho.matrix @ op.matrix)))
        dev = op.matrix - mean * np.eye(dim)
        var = float(np.real(np.trace(rho.matrix @ dev @ dev)))
        assert abs(expectation(rho, op) - mean) <= 1e-12
        assert abs(variance(rho, op) - max(var, 0.0)) <= 1e-12


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
        state = basis_state(basis, (2, 0))
        assert qfi_pure(state, number_op(basis, 0)).qfi == 0.0

    def test_crb_attached(self):
        report = qfi_pure(noon(3), schwinger_j(build_basis(2, 3), PairAxis(0, 1, **Z_AXIS)), nu=4)
        assert report.crb.nu == 4
        assert np.isclose(report.crb.delta, 1 / math.sqrt(4 * 9), atol=1e-12)
        with pytest.raises(ValueError):
            qfi_pure(noon(2), schwinger_j(build_basis(2, 2), PairAxis(0, 1, **Z_AXIS)), nu=0)

    def test_rejects_bad_nu_before_computing(self):
        state = noon(2)
        gen = schwinger_j(state.basis, PairAxis(0, 1, beta=1.0, phi=0.5))
        with mock.patch.object(metrology, "variance", wraps=variance) as var:
            with pytest.raises(ValueError, match="nu"):
                qfi_pure(state, gen, nu=0)
        assert var.call_count == 0

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
            dense = qfi_mixed(to_mixed(state), gen).qfi
            assert abs(dense - qfi_pure(state, gen).qfi) < 1e-8
            # a pure state is read as its one-column factor
            occupied = np.flatnonzero(state.amplitudes)
            column = _from_columns(state.basis, [(occupied, state.amplitudes[occupied])])
            assert qfi_mixed(state, gen).qfi == qfi_mixed(column, gen).qfi
            assert abs(qfi_mixed(state, gen).qfi - dense) <= 1e-12 * max(1.0, dense)

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

    @pytest.mark.parametrize("nu", [0, 2.5, math.nan])
    def test_rejects_bad_nu_before_computing(self, nu):
        rho = lossy_probe(noon_probe_with_environment(2), 0, 0.4)
        gen = schwinger_j(rho.basis, PairAxis(0, 2, beta=1.0, phi=0.5))
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            with pytest.raises(ValueError, match="nu"):
                qfi_mixed(rho, gen, nu=nu)
        assert eigh.call_count == 0

    def test_rejects_non_psd(self):
        basis = build_basis(1, 1)
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


class TestFisherInformation:
    def test_phase_blind_povm_gives_zero(self):
        state = noon(2)
        gen = schwinger_j(state.basis, PairAxis(0, 1, **Z_AXIS))
        counting = Povm(np.eye(state.basis.dim))  # photon counting cannot see a Jz phase
        assert fisher_information(state, gen, counting, kappa0=0.3) == 0.0

    def test_noon2_jx_basis_measurement_reaches_qfi(self):
        state = noon(2)
        gen = schwinger_j(state.basis, PairAxis(0, 1, **Z_AXIS))
        jx = schwinger_j(state.basis, PairAxis(0, 1, beta=math.pi / 2, phi=0.0))
        _, vecs = np.linalg.eigh(jx.matrix)
        povm = Povm(vecs)
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
                blend = 0.8 * density_matrix(state) + 0.2 * np.eye(dim) / dim
                probe = MixedState(state.basis, blend)
                qfi = qfi_mixed(probe, gen).qfi
            else:
                probe = state
                qfi = qfi_pure(state, gen).qfi
            povm = random_projective_povm(rng, state.basis.dim)
            fi = fisher_information(probe, gen, povm, kappa0=rng.uniform(0, 1))
            assert fi <= qfi + 1e-6

    @given(
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.booleans(),
        st.floats(0.0, 1.0),
    )
    def test_bounded_by_qfi_for_random_projective_povms(
        self, n_total, seed, purity, z_axis, kappa0
    ):
        """Braunstein-Caves: F_C <= F_Q for every POVM (PRL 72, 3439, 1994)."""
        rng = np.random.default_rng(seed)
        state = two_mode_fixed_n(random_profile(rng, n_total + 1), n_total)
        axis = PairAxis(0, 1, **Z_AXIS) if z_axis else random_axis(rng)
        gen = schwinger_j(state.basis, axis)
        dim = state.basis.dim
        blend = purity * density_matrix(state) + (1.0 - purity) * np.eye(dim) / dim
        probe = MixedState(state.basis, blend)
        povm = random_projective_povm(rng, dim)
        mixed_fi = fisher_information(probe, gen, povm, kappa0=kappa0)
        assert mixed_fi <= qfi_mixed(probe, gen).qfi + 1e-6
        pure_fi = fisher_information(state, gen, povm, kappa0=kappa0)
        assert pure_fi <= qfi_pure(state, gen).qfi + 1e-6

    def test_derivative_methods_agree(self):
        state = noon(3)
        gen = schwinger_j(state.basis, PairAxis(0, 1, **Z_AXIS))
        jx = schwinger_j(state.basis, PairAxis(0, 1, beta=math.pi / 2, phi=0.0))
        _, vecs = np.linalg.eigh(jx.matrix)
        povm = Povm(vecs)
        values = [
            fisher_information(state, gen, povm, kappa0=0.2, method=method)
            for method in ("central", "analytic")
        ]
        assert abs(values[0] - values[1]) < 1e-6

    @pytest.mark.parametrize("method", ["central", "analytic"])
    def test_decomposes_the_generator_once(self, method):
        rng = np.random.default_rng(11)
        state = two_mode_fixed_n(random_profile(rng, 5), 4).expand_cutoff(5)
        gen = schwinger_j(state.basis, random_axis(rng))
        povm = random_projective_povm(rng, state.basis.dim)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            fisher_information(state, gen, povm, kappa0=0.3, method=method)
        assert [c.args[0].shape[0] for c in eigh.call_args_list] == [
            block.stop - block.start for block in state.basis.sectors()
        ]

    def test_rejects_bad_arguments(self):
        state = noon(2)
        gen = schwinger_j(state.basis, PairAxis(0, 1, **Z_AXIS))
        povm = Povm(np.eye(state.basis.dim))
        with pytest.raises(ValueError):
            fisher_information(state, gen, povm, kappa0=0.0, dkappa=0.0)
        with pytest.raises(ValueError, match="POVM dimension"):
            fisher_information(state, gen, Povm(np.eye(state.basis.dim + 1)), kappa0=0.0)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            for method in ("nope", "richardson"):
                with pytest.raises(ValueError, match="unknown derivative method"):
                    fisher_information(state, gen, povm, kappa0=0.0, method=method)
        assert eigh.call_count == 0  # the method is checked before any decomposition

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
        povm = Povm(np.eye(basis.dim))
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

        p, expected = dense_analytic_fisher(rho.matrix, gen, povm, kappa0)
        assert p.min() > 1e-6

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
        state = basis_state(basis, (3, 0))
        gen = number_op(basis, 0)
        povm = optimal_povm(state, gen, kappa0=0.1)
        assert povm.vectors.shape[1] == basis.dim  # complete projective set
        assert fisher_information(state, gen, povm, kappa0=0.1) < 1e-10

    def test_lossy_probe_ratio(self):
        probe = noon_probe_with_environment(3)
        rho = lossy_probe(probe, 0, math.pi / 4)
        gen = schwinger_j(rho.basis, PairAxis(0, 2, **Z_AXIS))
        qfi = qfi_mixed(rho, gen).qfi
        povm = optimal_povm(rho, gen, kappa0=0.37)
        fi = fisher_information(rho, gen, povm, kappa0=0.37)
        assert 0.999 <= fi / qfi <= 1.001


@st.composite
def cfi_cases(draw):
    """(state, generator, block diagonal?) for the CFI layer.

    Block diagonal: a random lossy four-mode probe, N <= 6, reduced to
    modes 0-2, under an off-axis J_n on (0, 2).  Sector mixing: a
    blended coherent probe under n, or a blended fixed-N probe under p.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lossy", "coherent", "quadrature"]))
    if kind == "lossy":
        n_total = draw(st.integers(1, 6))
        n1, n2 = np.meshgrid(np.arange(n_total + 1), np.arange(n_total + 1), indexing="ij")
        shape = (n_total + 1, n_total + 1)
        c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (n1 + n2 <= n_total)
        probe = general_probe(c / np.linalg.norm(c), n_total)
        rho = lossy_probe(probe, draw(st.integers(0, 2)), draw(st.floats(0.2, 1.3)))
        return rho, schwinger_j(rho.basis, random_axis(rng, 0, 2)), True
    if kind == "coherent":
        alpha = draw(st.floats(0.3, 1.5)) * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        pure = coherent_truncated(alpha, coherent_cutoff(alpha))
        gen = number_op(pure.basis, 0)
    else:
        n_total = draw(st.integers(1, 5))
        pure = two_mode_fixed_n(random_profile(rng, n_total + 1), n_total)
        gen = quadrature_p(pure.basis, draw(st.integers(0, 1)))
    dim = pure.basis.dim
    purity = draw(st.floats(0.5, 1.0))
    blend = purity * density_matrix(pure) + (1.0 - purity) * np.eye(dim) / dim
    return MixedState(pure.basis, blend), gen, False


def block_of(matrix, basis):
    """Whether `matrix` has no nonzero outside the sector blocks of `basis`."""
    return np.count_nonzero(matrix) == sum(np.count_nonzero(matrix[b, b]) for b in basis.sectors())


class TestSectorBlocks:
    """The CFI layer by total-number sector, against full-matrix references."""

    @settings(deadline=None)
    @given(cfi_cases(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_basis_probabilities_match_element_traces(self, case, seed, kappa0):
        rho, gen, blocky = case
        basis = rho.basis
        rho_k = dense_evolved(rho.matrix, gen, kappa0)
        sectors = basis.sectors()
        for povm in (optimal_povm(rho, gen, kappa0), random_projective_povm(
                np.random.default_rng(seed), basis.dim)):
            expected = element_traces(povm, rho_k)
            whole = _outcome_probs(povm, [slice(None)], [rho_k])
            assert np.max(np.abs(whole - expected)) <= 1e-14
            if blocky:
                by_sector = _outcome_probs(povm, sectors, [rho_k[b, b] for b in sectors])
                assert np.max(np.abs(by_sector - expected)) <= 1e-14

    @settings(deadline=None)
    @given(cfi_cases(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_analytic_fisher_matches_dense_reference(self, case, seed, kappa0):
        rho, gen, _ = case
        povm = random_projective_povm(np.random.default_rng(seed), rho.basis.dim)
        p, expected = dense_analytic_fisher(rho.matrix, gen, povm, kappa0)
        assume(p.min() > 1e-6)
        fi = fisher_information(rho, gen, povm, kappa0=kappa0, method="analytic")
        assert abs(fi - expected) <= 1e-12 * max(1.0, expected)

    @settings(deadline=None)
    @given(cfi_cases(), st.floats(0.0, 1.0))
    def test_optimal_povm_is_block_diagonal_and_sector_sized(self, case, kappa0):
        rho, gen, blocky = case
        basis = rho.basis
        assert blocky == (block_of(rho.matrix, basis) and block_of(gen.matrix, basis))
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            povm = optimal_povm(rho, gen, kappa0=kappa0)
        sizes = sorted(c.args[0].shape[0] for c in eigh.call_args_list)
        blocks = [block.stop - block.start for block in basis.sectors()] if blocky else [basis.dim]
        if rho._factor is None:  # one eigh of H, of rho and of the SLD on each block
            assert sizes == sorted(3 * blocks)
        else:  # one eigh of H and of the SLD on each block, and of V†V on each occupied one
            assert sizes == sorted(2 * blocks + [v.shape[1] for _, _, v in rho._factor if v.size])
        if blocky:
            assert block_of(povm.vectors, basis)
        Povm(povm.vectors)  # orthonormal within 1e-10


def whole_matrix_qfi(rho, generator, floor=1e-12):
    """The support formula from one eigh of the whole density matrix: qfi_mixed before it ran
    by sector, summed as 2 sum (p_k - p_l)^2 / (p_k + p_l) |H_kl|^2 + 4 sum p_k ||P H|k>||^2."""
    p, vecs = np.linalg.eigh(rho.matrix)
    support = p > floor
    p, vecs = p[support], vecs[:, support]
    h = generator.weights
    h_vecs = generator.matrix @ vecs if h is None else h[:, None] * vecs
    hk = vecs.conj().T @ h_vecs
    off = h_vecs - vecs @ hk
    sums, diffs = p[:, None] + p[None, :], p[:, None] - p[None, :]
    total = 2.0 * float(np.sum(diffs**2 / sums * np.abs(hk) ** 2))
    return total + 4.0 * float(p @ np.real(np.einsum("ij,ij->j", off.conj(), off)))


class TestQfiBySector:
    @given(cfi_cases(), st.booleans())
    def test_matches_the_whole_matrix_expression(self, case, diagonal):
        rho, gen, blocky = case
        if blocky and diagonal:
            gen = schwinger_j(rho.basis, PairAxis(0, 2, **Z_AXIS))
        qfi = qfi_mixed(rho, gen).qfi
        expected = whole_matrix_qfi(rho, gen)
        if blocky:
            assert abs(qfi - expected) <= 1e-12 * max(1.0, expected)
        else:  # a sector-mixing input is one whole block: the same expression, bit for bit
            assert qfi == expected

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_one_eigh_per_sector(self, diagonal):
        rho = lossy_probe(noon_probe_with_environment(4), 1, 0.8)
        axis = PairAxis(0, 2, **Z_AXIS) if diagonal else PairAxis(0, 2, beta=1.0, phi=0.3)
        gen = schwinger_j(rho.basis, axis)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            qfi_mixed(rho, gen)
        sizes = [c.args[0].shape[0] for c in eigh.call_args_list]
        # rho is a factor on the sectors: one Gram eigh per occupied sector, sized by its columns
        assert [block for block, _, _ in rho._factor] == list(rho.basis.sectors())
        assert sizes == [v.shape[1] for _, _, v in rho._factor if v.size] == [1] * 5


class TestPovmValidation:
    @pytest.mark.parametrize(
        "vectors",
        [
            np.eye(3)[:, :2],
            np.eye(3)[0],
            np.zeros((0, 0)),
            2.0 * np.eye(2),
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            np.full((2, 2), np.nan),
            np.diag([np.inf, 1.0]),
            np.diag([-np.inf, 1.0]),
        ],
        ids=["non-square", "one-dimensional", "empty", "scaled", "skewed", "nan", "inf", "-inf"],
    )
    def test_rejects_bad_vectors(self, vectors):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="not an orthonormal basis"):
                Povm(vectors)

    def test_accepts_projective(self):
        povm = Povm(np.eye(4))
        assert povm.vectors.shape[1] == 4

    def test_copies_its_input(self):
        vectors = np.eye(3, dtype=complex)
        povm = Povm(vectors)
        assert vectors.flags.writeable and povm.vectors is not vectors
        assert not povm.vectors.flags.writeable


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

        delta_alpha = 1.0 / math.sqrt(4 * nu * variance(profile, quadrature_p(profile.basis, 0)))
        assert abs(delta_alpha_from_jy - delta_alpha) < 0.05 * delta_alpha
