"""Every scalar argument of the library is checked where it enters.

Each case calls one entry point with one argument replaced.  NaN, +inf,
-inf and an out-of-range value must raise a ValueError that names the
argument, with no RuntimeWarning on the way; boundary values must pass.
"""

import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import metrolab
from metrolab import (
    FockBasis,
    PairAxis,
    annihilation,
    build_basis,
    coherent_cutoff,
    coherent_truncated,
    correlated_three_mode,
    cv_cat,
    drop_reference,
    fisher_information,
    general_probe,
    jn_variance_closed_form,
    jy_variance_closed_form,
    loss_channel,
    lossy_probe,
    noon,
    number_covariance,
    number_op,
    optimal_povm,
    optimal_weights,
    partial_trace,
    qfi_mixed,
    qfi_pure,
    quadrature_p,
    rotated_fock,
    rotation_unitary,
    schwinger_j,
    spin_squeeze_unitary,
    sweep_qfi_vs_zeta,
    two_mode_fixed_n,
    weighted_number,
    with_reference,
)
from reference import to_mixed

BASIS = build_basis(2, 3)
NOON = noon(2)
NOON_JZ = schwinger_j(NOON.basis, PairAxis(0, 1))
PROBE_COEFFS = np.zeros((3, 3))
PROBE_COEFFS[2, 0] = PROBE_COEFFS[0, 2] = 1 / math.sqrt(2)
PROBE = general_probe(PROBE_COEFFS, 2)
RHO = lossy_probe(PROBE, 0, 0.4)
GEN = schwinger_j(RHO.basis, PairAxis(0, 2))
POVM = optimal_povm(RHO, GEN)
THREE_MODE = correlated_three_mode([0.6, 0.8], 2)
COHERENT = coherent_truncated(0.5, 30)
AXIS = PairAxis(0, 1, beta=1.0, phi=0.3)

# (entry point and argument, name the message must contain, call with the
# argument replaced, an out-of-range value or None for an unbounded float)
CASES = [
    ("FockBasis-num_modes", "num_modes", lambda v: FockBasis(v, 2), 0),
    ("FockBasis-n_total", "n_total", lambda v: FockBasis(2, v), -1),
    ("build_basis-num_modes", "num_modes", lambda v: build_basis(v, 2), 0),
    ("build_basis-n_total", "n_total", lambda v: build_basis(2, v), -1),
    ("sector_slice-s", "sector", lambda v: BASIS.sector_slice(v), 4),
    ("rank-occupation", "occupation", lambda v: BASIS.rank((0, v)), None),
    ("expand_cutoff-n_total", "n_total", lambda v: NOON.expand_cutoff(v), 1),
    ("partial_trace-keep", "keep mode", lambda v: partial_trace(NOON, [v]), 2),
    ("PairAxis-i", "mode i", lambda v: PairAxis(v, 1), -1),
    ("PairAxis-j", "mode j", lambda v: PairAxis(0, v), -1),
    ("PairAxis-beta", "beta", lambda v: PairAxis(0, 1, beta=v), None),
    ("PairAxis-phi", "phi", lambda v: PairAxis(0, 1, phi=v), None),
    ("number_op-mode", "mode", lambda v: number_op(BASIS, v), 2),
    ("annihilation-mode", "mode", lambda v: annihilation(BASIS, v), 2),
    ("quadrature_p-mode", "mode", lambda v: quadrature_p(COHERENT.basis, v), 1),
    ("rotation_unitary-angle", "angle", lambda v: rotation_unitary(BASIS, AXIS, v), None),
    ("spin_squeeze_unitary-gamma", "gamma", lambda v: spin_squeeze_unitary(BASIS, AXIS, v), None),
    ("weighted_number-zeta", "zeta", lambda v: weighted_number(BASIS, v), None),
    ("noon-n_total", "n_total", noon, 0),
    ("rotated_fock-n_total", "n_total", lambda v: rotated_fock(v, 0.3), -1),
    ("rotated_fock-theta", "theta", lambda v: rotated_fock(3, v), None),
    ("rotated_fock-phi", "phi", lambda v: rotated_fock(3, 0.3, v), None),
    ("coherent_cutoff-alpha", "alpha", coherent_cutoff, None),
    ("coherent_truncated-alpha", "alpha", lambda v: coherent_truncated(v, 30), None),
    ("coherent_truncated-cutoff", "cutoff", lambda v: coherent_truncated(0.5, v), -1),
    ("cv_cat-alpha", "alpha", lambda v: cv_cat(v, 30), None),
    ("cv_cat-cutoff", "cutoff", lambda v: cv_cat(0.5, v), -1),
    ("with_reference-n_total", "n_total", lambda v: with_reference(COHERENT, v), -1),
    ("two_mode_fixed_n-n_total", "n_total", lambda v: two_mode_fixed_n([1, 0, 0], v), -1),
    ("correlated_three_mode-n_total", "n_total",
     lambda v: correlated_three_mode([1, 0], v), -1),
    ("general_probe-n_total", "n_total", lambda v: general_probe(PROBE_COEFFS, v), -1),
    ("drop_reference-support_atol", "support_atol", lambda v: drop_reference(NOON, v), -1e-3),
    ("qfi_pure-nu", "nu", lambda v: qfi_pure(NOON, NOON_JZ, nu=v), 0),
    ("qfi_mixed-nu", "nu", lambda v: qfi_mixed(RHO, GEN, nu=v), 0),
    ("qfi_mixed-eigenvalue_floor", "eigenvalue_floor",
     lambda v: qfi_mixed(RHO, GEN, eigenvalue_floor=v), -1e-12),
    ("fisher_information-kappa0", "kappa0",
     lambda v: fisher_information(RHO, GEN, POVM, kappa0=v), None),
    ("fisher_information-dkappa", "dkappa",
     lambda v: fisher_information(RHO, GEN, POVM, 0.0, dkappa=v), 0.0),
    ("optimal_povm-kappa0", "kappa0", lambda v: optimal_povm(RHO, GEN, kappa0=v), None),
    ("optimal_povm-eigenvalue_floor", "eigenvalue_floor",
     lambda v: optimal_povm(RHO, GEN, eigenvalue_floor=v), -1.0),
    ("jn_variance_closed_form-n_total", "n_total",
     lambda v: jn_variance_closed_form([0.6, 0.8], v, 0.5, 0.0), -1),
    ("jn_variance_closed_form-beta", "beta",
     lambda v: jn_variance_closed_form([0.6, 0.8], 1, v, 0.0), None),
    ("jn_variance_closed_form-phi", "phi",
     lambda v: jn_variance_closed_form([0.6, 0.8], 1, 0.5, v), None),
    # out of range: a profile whose norm is not 1
    ("jn_variance_closed_form-coeffs", "coefficient",
     lambda v: jn_variance_closed_form([v, 0.8], 1, 0.5, 0.0), 0.7),
    ("jy_variance_closed_form-n_total", "n_total",
     lambda v: jy_variance_closed_form([0.6, 0.8], v), -1),
    ("jy_variance_closed_form-coeffs", "coefficient",
     lambda v: jy_variance_closed_form([v, v], 1), 2.0),
    ("number_covariance-modes", "mode", lambda v: number_covariance(NOON, [0, v]), 2),
    ("optimal_weights-modes", "mode", lambda v: optimal_weights(NOON, [0, v]), 2),
    ("sweep_qfi_vs_zeta-zetas", "zeta", lambda v: sweep_qfi_vs_zeta(NOON, [0.0, v]), None),
    ("lossy_probe-probe_mode", "probe_mode", lambda v: lossy_probe(PROBE, v, 0.3), 3),
    ("lossy_probe-kappa", "kappa", lambda v: lossy_probe(PROBE, 0, v), None),
    ("loss_channel-mode", "mode", lambda v: loss_channel(THREE_MODE, v, 0.3), 3),
    ("loss_channel-kappa", "kappa", lambda v: loss_channel(THREE_MODE, 0, v), None),
]

BAD = [
    pytest.param(call, name, bad, id=f"{case}-{label}")
    for case, name, call, out_of_range in CASES
    for label, bad in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
                       ("out_of_range", out_of_range))
    if bad is not None
]


@pytest.mark.parametrize("call,name,bad", BAD)
def test_rejects_with_a_message_naming_the_argument(call, name, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(name)):
            call(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: qfi_pure(NOON, NOON_JZ, nu=1),
        lambda: qfi_mixed(RHO, GEN, eigenvalue_floor=0),
        lambda: optimal_povm(RHO, GEN, eigenvalue_floor=0),
        lambda: coherent_truncated(0.0, 0),
        lambda: lossy_probe(PROBE, 2, 0.3),
        lambda: loss_channel(THREE_MODE, 2, 0.3),
        lambda: PairAxis(np.int64(0), np.int64(1)),
        lambda: build_basis(2, 3).sector_slice(np.int64(3)),
        lambda: annihilation(BASIS, 1),
        lambda: quadrature_p(COHERENT.basis, 0),
        lambda: cv_cat(0.0, 0),
        # a cutoff below the state's truncates the profile, as documented
        lambda: with_reference(COHERENT, 0),
    ],
    ids=["nu=1", "qfi_mixed-floor=0", "optimal_povm-floor=0",
         "cutoff=0", "probe_mode=2", "loss_channel-mode=2", "numpy-int-modes",
         "numpy-int-sector", "annihilation-mode=1", "quadrature_p-mode=0",
         "cv_cat-cutoff=0", "with_reference-n_total=0"],
)
def test_accepts_boundary_values(call):
    call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: qfi_pure(NOON, NOON_JZ, nu=2.5),
        lambda: FockBasis(2, 3.5),
    ],
    ids=["qfi_pure", "FockBasis"],
)
def test_rejects_a_non_integral_count(call):
    with pytest.raises(ValueError, match="integral"):
        call()


def test_loss_channel_takes_a_pure_state_only():
    with pytest.raises(TypeError, match="PureState"):
        loss_channel(to_mixed(THREE_MODE), 0, 0.3)


def test_an_integer_too_large_for_a_float_is_out_of_range():
    with pytest.raises(ValueError, match=r"nu must be finite.*got 1000"):
        qfi_pure(NOON, NOON_JZ, nu=10**400)
    with pytest.raises(ValueError, match="dkappa"):
        fisher_information(RHO, GEN, POVM, 0.0, dkappa=10**400)


def test_coherent_cutoff_rejects_a_tail_it_cannot_reach():
    """A tail of 0 or below never ends a search for P(n > cutoff) < tail.

    The calls run in a child process with a timeout, so an endless
    search fails this test instead of stalling the suite.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(metrolab.__file__)))
    code = (
        "import math\n"
        "from metrolab import coherent_cutoff\n"
        "for tail in (0.0, -1.0, -math.inf, math.inf, math.nan):\n"
        "    try:\n"
        "        coherent_cutoff(1.0, tail=tail)\n"
        "    except ValueError as exc:\n"
        "        assert 'tail' in str(exc), exc\n"
        "    else:\n"
        "        raise SystemExit(f'tail={tail} was accepted')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
