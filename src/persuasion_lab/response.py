"""Receiver response sets and sender objectives over them.

Given a fixed scheme, the set of gamma-best responses at each signal is a
finite action set, so the worst and best sender values over all strategies
that keep mass 1-delta inside those sets have closed forms; both come with
an explicit witness strategy.  Also here: softmax (quantal) and perturbed
posterior receiver models with their response-set certificates, conversion
of deterministic responses to direct-revelation schemes, and the two-sided
value bound around the classic optimum.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .classic import solve_classic
from .errors import StrategyNotDeterministicError, ValidationError
from .model import (
    DEFAULT_EPS,
    RESPONSE_SLACK,
    PersuasionInstance,
    ReceiverStrategy,
    SignalingScheme,
    _conditional_stats,
    best_response_mask,
    check_eps_num,
    check_gamma,
    check_integer,
    check_scheme,
    check_sent,
    check_strategy,
    direct_scheme,
    index_of,
    scheme_stats,
)
from .robustify import response_window
from .sampling import random_conditional


@dataclass(frozen=True, eq=False)
class ApproxResponseSet:
    """Per-signal gamma-best action sets for one (instance, scheme) pair.

    Signals that are never sent have an all-False mask row; quantifiers
    over signals skip them.
    """

    gamma: float
    signals: tuple[str, ...]
    actions: tuple[str, ...]
    member_mask: np.ndarray  # (S, n) bool
    marginals: np.ndarray  # (S,)

    def actions_for(self, signal: str | int) -> tuple[str, ...]:
        s = index_of("signal", self.signals, signal)
        check_sent(self.signals, self.marginals, s)
        return tuple(a for a, keep in zip(self.actions, self.member_mask[s]) if keep)


def approx_set(
    instance: PersuasionInstance, scheme: SignalingScheme, gamma: float
) -> ApproxResponseSet:
    stats = scheme_stats(instance, scheme)
    mask = best_response_mask(stats.receiver_values, gamma)
    mask[stats.marginals <= 0.0] = False
    return ApproxResponseSet(
        gamma=float(gamma),
        signals=scheme.signals,
        actions=instance.actions,
        member_mask=mask,
        marginals=stats.marginals,
    )


@dataclass(frozen=True, eq=False)
class ObjectiveEstimate:
    """Extremal sender value over near-best-responding strategies.

    ``witness_strategy`` attains ``value`` exactly and satisfies the
    membership constraint it was optimized under.  ``knife_edge_signals``
    lists signals where some action sits within 10 ``RESPONSE_SLACK`` of the
    response-set boundary, i.e. where set membership is numerically fragile.
    """

    value: float
    mode: str
    gamma: float
    delta: float
    witness_strategy: ReceiverStrategy
    knife_edge_signals: tuple[str, ...]


def _stack_stats(
    instance: PersuasionInstance, conditionals: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``scheme_stats`` of several checked conditionals along a leading batch axis.

    Returns ``(marginals, receiver_values, sender_values)`` of shapes
    ``(B, S)``, ``(B, S, n)`` and ``(B, S, n)``.  A scheme with fewer signals
    than the widest one is padded with signals of zero marginal, which every
    quantifier over signals skips.
    """
    # one kernel call per signal count: a stack of equal widths keeps each
    # scheme's matmul to its own S rows, so every row has the bits of the
    # scheme alone, while a padded or flattened product would not
    by_width: dict[int, list[int]] = {}
    for k, cond in enumerate(conditionals):
        by_width.setdefault(cond.shape[1], []).append(k)
    width = max(by_width, default=1)
    marginals = np.zeros((len(conditionals), width))
    receiver_values = np.zeros((len(conditionals), width, instance.n_actions))
    sender_values = np.zeros_like(receiver_values)
    for S, rows in by_width.items():
        st = _conditional_stats(instance, np.stack([conditionals[k] for k in rows]))
        marginals[rows, :S] = st.marginals
        receiver_values[rows, :S] = st.receiver_values
        sender_values[rows, :S] = st.sender_values
    return marginals, receiver_values, sender_values


def _check_objective_args(gamma: float, delta: float, mode: str) -> None:
    if mode not in ("worst", "best"):
        raise ValidationError(f"mode must be 'worst' or 'best', got {mode!r}")
    if not 0.0 <= delta < 1.0:
        raise ValidationError("delta must lie in [0, 1)")
    check_gamma(gamma)


def _knife_edges(marginals: np.ndarray, receiver_values: np.ndarray, gamma: float) -> np.ndarray:
    """Flags of the sent signals where some margin lies within 10 RESPONSE_SLACK of gamma.

    Near-cutoff margins make set membership arithmetic-sensitive; the
    canonical argmax has margin 0 by construction and is never at risk.
    """
    margins = receiver_values.max(axis=-1, keepdims=True) - receiver_values
    np.put_along_axis(margins, margins.argmin(axis=-1)[..., None], np.inf, axis=-1)
    near = np.any(np.abs(margins - gamma) <= 10.0 * RESPONSE_SLACK, axis=-1)
    return near & (marginals > 0.0)


def _objective_core(
    marginals: np.ndarray,
    sender_values: np.ndarray,
    mask: np.ndarray,
    delta: float,
    mode: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extremal values of a batch of schemes under the response sets ``mask``.

    Per signal, ``inner`` is the extremal action inside the set and
    ``outer`` the extremal action overall; ``in_set`` marks the signals
    whose ``outer`` lies inside the set and so takes all the mass.  Returns
    ``(values, inner, outer, in_set)``.  Values are summed signal by signal
    in signal order, so each row is bit-identical to a batch of one.
    """
    su = sender_values
    signed = su if mode == "worst" else -su
    inner = np.argmin(np.where(mask, signed, np.inf), axis=-1)
    outer = np.argmin(signed, axis=-1)
    su_inner = np.take_along_axis(su, inner[..., None], axis=-1)[..., 0]
    su_outer = np.take_along_axis(su, outer[..., None], axis=-1)[..., 0]
    in_set = np.take_along_axis(mask, outer[..., None], axis=-1)[..., 0]
    sig_values = np.where(in_set, su_outer, (1.0 - delta) * su_inner + delta * su_outer)
    weighted = np.where(marginals > 0.0, marginals * sig_values, 0.0)
    values = np.zeros(weighted.shape[0])
    for s in range(weighted.shape[1]):
        values += weighted[:, s]
    return values, inner, outer, in_set


def evaluate_objective(
    instance: PersuasionInstance,
    scheme: SignalingScheme,
    gamma: float,
    delta: float,
    mode: str,
) -> ObjectiveEstimate:
    """Closed-form inner optimum over (gamma, delta)-responding strategies.

    mode="worst": each signal contributes (1-delta) times the lowest sender
    value inside the response set plus delta times the global minimum.
    mode="best" is symmetric; when the global maximizer already lies in the
    response set the whole mass goes there.
    """
    _check_objective_args(gamma, delta, mode)
    check_scheme(instance, scheme)
    marginals, receiver_values, sender_values = _stack_stats(instance, [scheme.conditional])
    mask = best_response_mask(receiver_values, gamma)
    values, inner, outer, in_set = _objective_core(marginals, sender_values, mask, delta, mode)

    n = instance.n_actions
    rho = np.full((scheme.n_signals, n), 1.0 / n)
    sent = np.flatnonzero(marginals[0] > 0.0)
    keep = in_set[0, sent]
    rho[sent] = 0.0
    rho[sent, inner[0, sent]] = np.where(keep, 0.0, 1.0 - delta)
    rho[sent, outer[0, sent]] += np.where(keep, 1.0, delta)
    knife = _knife_edges(marginals, receiver_values, gamma)[0]

    return ObjectiveEstimate(
        value=float(values[0]),
        mode=mode,
        gamma=float(gamma),
        delta=float(delta),
        witness_strategy=ReceiverStrategy(rho),
        knife_edge_signals=tuple(scheme.signals[s] for s in np.flatnonzero(knife)),
    )


# ---------------------------------------------------------------------------
# membership audits


def approx_membership_mass(
    instance: PersuasionInstance,
    scheme: SignalingScheme,
    strategy: ReceiverStrategy,
    gamma: float,
) -> float:
    """Minimum over sent signals of the strategy mass on the gamma-best set."""
    check_strategy(instance, scheme, strategy)
    members = approx_set(instance, scheme, gamma)
    masses = np.where(members.member_mask, strategy.action_distribution, 0.0).sum(axis=1)
    return float(masses[members.marginals > 0.0].min())


def is_approx_best_responding(
    instance: PersuasionInstance,
    scheme: SignalingScheme,
    strategy: ReceiverStrategy,
    gamma: float,
    delta: float = 0.0,
) -> bool:
    mass = approx_membership_mass(instance, scheme, strategy, gamma)
    return mass >= 1.0 - delta - RESPONSE_SLACK


# ---------------------------------------------------------------------------
# behavioral receiver models


def row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, column by column: numpy pays per row
    to reduce a short last axis, and a maximum is exact in any order."""
    top = x[..., :1].copy()
    for k in range(1, x.shape[-1]):
        np.maximum(top, x[..., k : k + 1], out=top)
    return top


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, in place: ``logits`` is overwritten and returned.

    The denominator has the bits of numpy's row sum in either layout, C-ordered
    or the transposed view of an action-major array: below 8 entries numpy's
    pairwise sum is sequential, so the columns are added in order; from 8 on
    it adds 8 interleaved partial sums, which neither a column sum nor a sum
    over strided rows makes, so it is numpy's sum of a C-ordered copy."""
    logits -= row_max(logits)
    np.exp(logits, out=logits)
    if logits.shape[-1] < 8:
        total = logits[..., :1].copy()
        for k in range(1, logits.shape[-1]):
            total += logits[..., k : k + 1]
    else:
        total = np.ascontiguousarray(logits).sum(axis=-1, keepdims=True)
    logits /= total
    return logits


def quantal_strategy(
    instance: PersuasionInstance, scheme: SignalingScheme, lam: float
) -> ReceiverStrategy:
    """Softmax response: P(a|s) proportional to exp(lam * v(a, posterior_s)).

    Rows for unsent signals are uniform.  ``lam=0`` is uniformly random play;
    large ``lam`` approaches exact best response.
    """
    if not lam >= 0:  # NaN fails too
        raise ValidationError("lam must be nonnegative")
    stats = scheme_stats(instance, scheme)
    rho = softmax(lam * stats.receiver_values)
    rho[stats.marginals <= 0.0] = 1.0 / instance.n_actions
    return ReceiverStrategy(rho)


def quantal_certificate(instance: PersuasionInstance, lam: float) -> tuple[float, float]:
    """(gamma, delta) such that the softmax receiver is always a member.

    Meaningful once ``lam > 1/n_actions``; below that delta is vacuous.
    """
    if not 0 < lam < math.inf:  # NaN fails too; the strategy at inf has NaN rows
        raise ValidationError("certificate requires a finite lam > 0")
    return softmax_certificate(instance.n_actions, lam)


def softmax_certificate(n_actions: int, lam: float) -> tuple[float, float]:
    """(max(0, log(n lam)/lam), 1/lam): the (gamma, delta) of a softmax
    receiver with temperature ``lam > 0`` over ``n_actions`` actions."""
    return max(0.0, math.log(n_actions * lam) / lam), 1.0 / lam


def _tv_step(mu: np.ndarray, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """A point of the simplex within total-variation epsilon of ``mu``.

    Draws a zero-sum direction, scales it to a full TV step of epsilon, then
    shrinks the step to the simplex boundary if it would leave the simplex.
    """
    d = rng.standard_normal(mu.size)
    d -= d.mean()
    l1 = float(np.abs(d).sum())
    if l1 < 1e-15 or epsilon == 0.0:
        return mu.copy()
    step = d * (2.0 * epsilon / l1)
    if not np.isfinite(step).all():
        raise ValidationError(f"epsilon = {epsilon!r} overflows the perturbation step")
    neg = step < 0
    theta = 1.0
    if neg.any():
        theta = min(1.0, float(np.min(mu[neg] / -step[neg])))
    out = mu + theta * step
    out = np.clip(out, 0.0, None)
    return out / out.sum()


def _check_epsilon(epsilon: float) -> None:
    if not epsilon >= 0:  # NaN fails too
        raise ValidationError("epsilon must be nonnegative")
    if not math.isfinite(2.0 * epsilon):  # the certificate's gamma and the step's L1 size
        raise ValidationError(f"epsilon = {epsilon!r} overflows the perturbation step")


def perturbed_posterior_strategy(
    instance: PersuasionInstance,
    scheme: SignalingScheme,
    epsilon: float,
    rng: np.random.Generator,
) -> ReceiverStrategy:
    """Best response to a randomly perturbed posterior at each signal.

    The perturbed belief stays within total-variation ``epsilon`` of the true
    posterior, so the resulting deterministic strategy is a (2 epsilon, 0)
    member.  Unsent signals best-respond to the prior.
    """
    _check_epsilon(epsilon)
    stats = scheme_stats(instance, scheme)
    v = instance.receiver_utility
    rho = np.zeros((scheme.n_signals, instance.n_actions))
    prior_best = int(np.argmax(v @ instance.prior))
    for s in range(scheme.n_signals):
        if stats.marginals[s] <= 0.0:
            rho[s, prior_best] = 1.0
            continue
        belief = _tv_step(stats.posteriors[s], epsilon, rng)
        rho[s, int(np.argmax(v @ belief))] = 1.0
    return ReceiverStrategy(rho)


def perturbed_posterior_certificate(epsilon: float) -> tuple[float, float]:
    _check_epsilon(epsilon)
    return 2.0 * epsilon, 0.0


# ---------------------------------------------------------------------------
# deterministic responses as direct schemes


def to_direct_revelation(
    instance: PersuasionInstance,
    scheme: SignalingScheme,
    strategy: ReceiverStrategy,
) -> SignalingScheme:
    """Collapse (scheme, deterministic strategy) into a recommendation scheme.

    Signals mapping to the same action have their conditionals summed.  The
    sender value is preserved exactly, and if the strategy was a gamma-best
    response the obedient strategy is one for the new scheme.
    """
    check_strategy(instance, scheme, strategy)
    rho = strategy.action_distribution
    top = rho.max(axis=1)
    if np.any(top < 1.0 - RESPONSE_SLACK):
        bad = scheme.signals[int(np.argmin(top))]
        raise StrategyNotDeterministicError(
            f"strategy row for signal {bad!r} is not a point mass"
        )
    chosen = rho.argmax(axis=1)
    cond = np.zeros((instance.n_states, instance.n_actions))
    for s in range(scheme.n_signals):
        cond[:, chosen[s]] += scheme.conditional[:, s]
    return direct_scheme(instance, cond)


# ---------------------------------------------------------------------------
# two-sided value bounds around the classic optimum

# Float slack allowed on either side of the sandwich.
BOUNDS_TOLERANCE = 1e-8
# Random candidate schemes scored for the upper side.
DEFAULT_N_SCHEMES = 50


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """Everything entering the sandwich around the classic optimum OPT.

    ``lower_certificate`` is the worst-mode value of the robustified optimal
    scheme; the sandwich promises it stays above ``opt - slack``.  Each
    entry of ``upper_values`` is the best-mode value of one candidate scheme,
    promised to stay below ``opt + slack``.
    """

    opt: float
    gamma: float
    delta: float
    ratio: float
    slack: float
    alpha: float
    tolerance: float
    lower_certificate: float
    lower_ok: bool
    upper_values: tuple[float, ...]
    upper_ok: bool
    n_upper_violations: int
    knife_edge_schemes: int

    @property
    def lower_bound(self) -> float:
        return self.opt - self.slack

    @property
    def upper_bound(self) -> float:
        return self.opt + self.slack

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok

    def to_dict(self) -> dict:
        """The fields with the candidate values summarized by count and maximum."""
        out = asdict(self)
        upper = out.pop("upper_values")
        return {
            **out,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "n_upper_schemes": len(upper),
            "max_upper_value": max(upper) if upper else None,
            "ok": self.ok,
        }


def bounds_report(
    instance: PersuasionInstance,
    gamma: float,
    delta: float,
    *,
    n_schemes: int = DEFAULT_N_SCHEMES,
    seed: int = 0,
    eps_num: float = DEFAULT_EPS,
) -> BoundsReport:
    """Certify ``opt - slack <= worst <= best <= opt + slack`` numerically.

    The lower side is witnessed by robustifying the classic optimum with the
    smallest sufficient mixing weight and evaluating its worst mode.  The
    upper side is checked on ``n_schemes`` sampled schemes in best mode.
    Both sides allow ``BOUNDS_TOLERANCE``.
    """
    return bounds_grid(
        instance, (gamma,), (delta,), n_schemes=n_schemes, seed=seed, eps_num=eps_num
    )[0]


def bounds_grid(
    instance: PersuasionInstance,
    gammas: tuple[float, ...],
    deltas: tuple[float, ...],
    *,
    n_schemes: int = DEFAULT_N_SCHEMES,
    seed: int = 0,
    eps_num: float = DEFAULT_EPS,
) -> list[BoundsReport]:
    """``bounds_report`` for every (gamma, delta) cell, in gamma-major order.

    The cells share the work that does not depend on them: the classic LP
    and the candidate schemes with their statistics (every cell scores the
    same candidates).  The candidates are bare conditionals drawn by
    ``random_conditional``; they are never built as schemes.  Each gamma's
    ``response_window`` profiles the instance once at ``eps_num`` and gives
    the ratio gamma/(mu_min*gap), the mixing weight and the robustified
    certificate.
    """
    check_eps_num(eps_num)
    check_integer("n_schemes", n_schemes, 0)
    check_integer("seed", seed, 0)  # None would draw a seed no run can repeat
    windows = [response_window(instance, gamma, eps_num) for gamma in gammas]
    for gamma in gammas:
        for delta in deltas:
            _check_objective_args(gamma, delta, "worst")
    opt_scheme, opt = solve_classic(instance)
    rng = np.random.default_rng(seed)
    conditionals = [random_conditional(rng, instance) for _ in range(n_schemes)]
    cand_marginals, cand_rv, cand_sv = _stack_stats(instance, conditionals)

    reports = []
    for gamma, window in zip(gammas, windows):
        certificate = window.robustify(opt_scheme)
        cert_marginals, cert_rv, cert_sv = _stack_stats(instance, [certificate.conditional])
        cert_mask = best_response_mask(cert_rv, gamma)
        cand_mask = best_response_mask(cand_rv, gamma)
        knife = int(_knife_edges(cert_marginals, cert_rv, gamma).any()) + int(
            np.count_nonzero(_knife_edges(cand_marginals, cand_rv, gamma).any(axis=1))
        )
        for delta in deltas:
            slack = window.ratio + delta
            lower = float(_objective_core(cert_marginals, cert_sv, cert_mask, delta, "worst")[0][0])
            upper = _objective_core(cand_marginals, cand_sv, cand_mask, delta, "best")[0]
            violations = int(np.count_nonzero(upper > opt + slack + BOUNDS_TOLERANCE))
            reports.append(
                BoundsReport(
                    opt=float(opt),
                    gamma=float(gamma),
                    delta=float(delta),
                    ratio=float(window.ratio),
                    slack=float(slack),
                    alpha=float(window.alpha),
                    tolerance=BOUNDS_TOLERANCE,
                    lower_certificate=lower,
                    lower_ok=lower >= opt - slack - BOUNDS_TOLERANCE,
                    upper_values=tuple(upper.tolist()),
                    upper_ok=violations == 0,
                    n_upper_violations=violations,
                    knife_edge_schemes=knife,
                )
            )
    return reports
