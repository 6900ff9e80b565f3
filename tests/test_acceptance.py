"""Acceptance gate: every release criterion, one test and one PASS/FAIL line
each.  The checks live in slipstab.verification so `slipstab verify` and this
module can never disagree; each check enforces its own tolerance, and the
one harness that times every check (`verification._gate`) enforces its
wall-clock budget where it has one.  Run with -s to see the lines as they
print.
"""

from __future__ import annotations

from slipstab import verification


def _gate(check):
    result = check()
    print(result.line())
    assert result.ok, result.line()


def test_identical_isotropic_reduction():
    """50 log-spaced q in [1e-3, 1e3]: closed dynamic solution to 1e-10, <1s."""
    _gate(verification.check_identical_reduction)


def test_subsonic_identities_on_every_sweep_row():
    """k_hat = F(0)/F(c) and |k|c = sqrt((b-a)/a)*v_o/L to 1e-12, 4 presets, <1s."""
    _gate(verification.check_subsonic_identity)


def test_quasistatic_limits():
    """q = 1e-6 matches the dissimilar-solids closed form to 1e-4; the
    orthotropic-on-isotropic closed form holds to 1e-10."""
    _gate(verification.check_quasistatic_limits)


def test_root_counts_certify_the_critical_wavenumber():
    """4 presets x q in {0.1, 1, 10}: zero unstable roots 5% above k_cr, one
    conjugate pair 5% below, <30s."""
    _gate(verification.check_crossing_certification)


def test_intersonic_mode_structure():
    """Mild speed contrast: no intersonic modes below the q window, exactly
    two inside it with c strictly between the shear speeds and wavenumbers
    below the subsonic branch; the critical mode stays subsonic."""
    _gate(verification.check_intersonic_structure)


def test_velocity_strengthening_always_stable():
    """b = 0.8a: zero unstable roots across a 10-point log grid of k and the
    verdict is always-stable."""
    _gate(verification.check_velocity_strengthening)


def test_nonlinear_block_confirms_linear_thresholds():
    """Critical stiffness from the nonlinear integration within 0.5% of the
    closed form (with and without inertia), frequency within 0.1%, both
    evolution laws agreeing to 0.1%, <5s."""
    _gate(verification.check_ode_oracle)


def test_transfer_branches_are_consistent():
    """The intersonic branch equals the on-axis limit of the Laplace-domain
    transfer function to 1e-10 at 100 interior points per preset."""
    _gate(verification.check_branch_consistency)


def test_figure_data_files():
    """Eight CSVs over q in [1e-2, 10]: subsonic k_hat nondecreasing and >= 1,
    subsonic c/c1 increasing toward a limit below 1."""
    _gate(verification.check_figures)
