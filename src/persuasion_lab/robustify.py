"""Mixing a direct scheme with per-state optimal recommendations.

``robustify(instance, scheme, alpha)`` replaces each recommendation, with
probability ``alpha``, by the receiver's uniquely optimal action for the
realized state.  This buys a strictly positive obedience margin at a sender
utility cost of at most ``alpha``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .classic import solve_classic
from .errors import (
    AssumptionViolatedError,
    HypothesisViolatedError,
    ValidationError,
)
from .model import (
    DEFAULT_EPS,
    InstanceProfile,
    PersuasionInstance,
    SignalingScheme,
    advantage,
    check_direct,
    check_gamma,
    direct_scheme,
    expected_utility,
    obedient_strategy,
    profile_instance,
    signal_marginals,
)


@dataclass(frozen=True)
class RobustificationReport:
    """Audit quantities for one robustification.

    * ``marginal_identity_residual``: worst deviation from the mixture
      identity  pi'(s) = (1-alpha) pi(s) + alpha mu(region of s).
    * ``advantage_bound_slack``: minimum over signals of the realized
      obedience margin minus its guaranteed lower bound; negative slack
      (beyond float noise) means the guarantee failed.
    * ``tv_distance``: total variation between the two joint distributions.
    * ``utility_gap``: |U(pi') - U(pi)| under the obedient strategy.
    """

    alpha: float
    marginal_identity_residual: float
    advantage_bound_slack: float
    tv_distance: float
    utility_gap: float

    def ok(self) -> bool:
        return (
            self.marginal_identity_residual <= 1e-12
            and self.advantage_bound_slack >= -1e-10
            and self.tv_distance <= self.alpha + 1e-12
            and self.utility_gap <= self.alpha + 1e-12
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok()}


def _require_unique_optima(instance: PersuasionInstance, eps_num: float) -> InstanceProfile:
    prof = profile_instance(instance, eps_num)
    missing = [instance.states[w] for w in np.flatnonzero(prof.optimal < 0)]
    if missing:
        raise AssumptionViolatedError(
            f"no unique receiver-optimal action at states {missing}",
            states=missing,
        )
    return prof


def robustify(
    instance: PersuasionInstance,
    scheme: SignalingScheme,
    alpha: float,
    eps_num: float = DEFAULT_EPS,
) -> SignalingScheme:
    """Blend ``scheme`` with the always-recommend-the-optimum scheme."""
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")
    check_direct(instance, scheme)
    prof = _require_unique_optima(instance, eps_num)

    reveal = np.zeros((instance.n_states, instance.n_actions))
    reveal[np.arange(instance.n_states), prof.optimal] = 1.0

    mixed = (1.0 - alpha) * scheme.conditional + alpha * reveal
    return direct_scheme(instance, mixed)


def robustified_optimum(
    instance: PersuasionInstance,
    constant: float,
    eps_num: float = DEFAULT_EPS,
) -> tuple[SignalingScheme, float, float]:
    """The classic optimum robustified to forfeit at most ``constant``.

    Theorem 4.1's sender: the optimal scheme mixed with weight
    ``alpha = min(constant / 2, 1)``.  Returns ``(scheme, alpha, opt)``.
    """
    alpha = min(constant / 2.0, 1.0)
    opt_scheme, opt = solve_classic(instance)
    return robustify(instance, opt_scheme, alpha, eps_num), alpha, opt


def margin_lift(profile: InstanceProfile, alpha: float, marginals: np.ndarray) -> np.ndarray:
    """alpha * mu(R_s) * gap / pi'(s) for each direct signal s.

    Mixing with weight ``alpha`` raises the obedience margin of a sent
    signal s by at least this; ``marginals`` are the robustified scheme's
    pi'.  Entries for unsent signals (pi'(s) = 0) are 0.
    """
    sent = marginals > 0.0
    lift = np.zeros(marginals.size)
    lift[sent] = alpha * profile.region_masses[sent] * profile.gap / marginals[sent]
    return lift


def verify_robustification(
    instance: PersuasionInstance,
    scheme: SignalingScheme,
    alpha: float,
    eps_num: float = DEFAULT_EPS,
) -> RobustificationReport:
    """Check the mixture guarantees of ``robustify(instance, scheme, alpha)``.

    Marginals and margins are read from ``scheme_stats`` of both schemes,
    through ``signal_marginals`` and ``advantage``, so they test the mixture
    identity and the margin bound, not the statistics themselves.  The
    distances come straight from the joint distributions prior x conditional.
    """
    prof = _require_unique_optima(instance, eps_num)
    robust = robustify(instance, scheme, alpha, eps_num)

    marg_before = signal_marginals(instance, scheme)
    marg_after = signal_marginals(instance, robust)

    mixed = alpha * prof.region_masses
    residual = float(np.max(np.abs(marg_after - ((1.0 - alpha) * marg_before + mixed))))

    slack = math.inf
    if instance.n_actions > 1:
        lift = margin_lift(prof, alpha, marg_after)
        for s in range(instance.n_actions):
            if marg_after[s] <= 0.0:
                continue
            adv_after = advantage(instance, robust, s)
            bound = lift[s]
            if marg_before[s] > 0.0:
                adv_before = advantage(instance, scheme, s)
                bound += (1.0 - alpha) * (marg_before[s] / marg_after[s]) * adv_before
            slack = min(slack, adv_after - bound)

    joint_before = instance.prior[:, None] * scheme.conditional
    joint_after = instance.prior[:, None] * robust.conditional
    tv = 0.5 * float(np.abs(joint_after - joint_before).sum())

    obedient = obedient_strategy(instance)
    gap_u = abs(
        expected_utility(instance, robust, obedient)
        - expected_utility(instance, scheme, obedient)
    )

    return RobustificationReport(
        alpha=float(alpha),
        marginal_identity_residual=residual,
        advantage_bound_slack=float(slack),
        tv_distance=tv,
        utility_gap=float(gap_u),
    )


def require_assumption(prof: InstanceProfile) -> InstanceProfile:
    """``prof``, unless it fails the uniqueness assumption."""
    if not prof.assumption_satisfied:
        raise AssumptionViolatedError(
            f"instance fails the uniqueness assumption: {prof.reasons}",
            reasons=prof.reasons,
        )
    return prof


def choose_alpha_lower(
    instance: PersuasionInstance,
    gamma: float,
    eps_num: float = DEFAULT_EPS,
) -> float:
    """Smallest mixing weight that pushes every obedience margin beyond gamma.

    An extra 1e-6 turns the margin inequality strict, so after robustifying
    the classic optimum the obedient action is the only gamma-best response
    at every sent signal.
    """
    return min(choose_alpha_upper(instance, gamma, eps_num) + 1e-6, 1.0)


def choose_alpha_upper(
    instance: PersuasionInstance,
    gamma: float,
    eps_num: float = DEFAULT_EPS,
) -> float:
    """Mixing weight that restores plain obedience (margin >= 0) exactly."""
    check_gamma(gamma)
    prof = require_assumption(profile_instance(instance, eps_num))
    denom = prof.mu_min * prof.gap
    ratio = 0.0 if gamma == 0.0 else gamma / denom
    if ratio >= 1.0:
        raise HypothesisViolatedError(
            f"gamma/(mu_min*gap) = {ratio:g} >= 1; no mixing weight can absorb it",
            ratio=ratio,
        )
    return ratio
