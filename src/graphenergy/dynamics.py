"""Continuous-time feature flows discretized with explicit Euler.

Three right-hand sides:

* diffusion: ``dX/dt = Delta X``; the Dirichlet energy decays like
  ``exp(-2 lambda_2 t)`` asymptotically on a connected graph;
* gated diffusion: ``dX/dt = m(t) Delta X`` with the scalar gate
  ``m = ∫ |Delta X|^2 dmu``; the gate starves the flow as features
  homogenize, turning exponential decay into an algebraic ``C / t`` tail;
* normalized aggregation: ``dX/dt = P(Norm X)`` where ``Norm`` projects
  every row to the sphere of radius ``r = sqrt(n / ∫ 1 dmu)``; the
  Dirichlet energy can grow, but only quadratically in time.

For the gated flow, ``FlowSpec.dt`` is the *effective* step: each Euler
update is ``X += dt * Delta X`` while real time advances by ``dt / m``.
That keeps the stability constraint (effective step times spectral radius)
satisfied uniformly and reaches long horizons in logarithmically many
steps. The other flows treat ``dt`` as the plain step size.

Each state takes one edge pass: the edge differences ``BX`` give both
``Delta X`` and the order-1 energy. ``Delta X`` drives the heat and gated
Euler steps, and a recorded state's gate ``∫ |Delta X|^2 dmu`` and order-2
energy ``gate / n`` reuse it. The normalized flow projects each state to
the sphere once and takes one edge pass per record.

A flow is a stream of records, measured as each one is produced, as in
:func:`graphenergy.network.forward_trajectory`: ``observe(t, X)`` sees
every recorded state, and the trajectory holds only the records' times and
scalar series, never a state, so a flow's memory does not grow with the
number of records.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from graphenergy.graph import (
    WeightedGraph,
    _as_features,
    _laplacian_and_dirichlet,
    _squared_row_norms,
    aggregate_apply,
    integrate,
    laplacian_apply,  # noqa: F401  (perfbench/tracing.py looks it up here)
)

FLOW_HEAT = "heat"
FLOW_GATED = "nonlocal"
FLOW_NORMALIZED = "preln"
FLOW_KINDS = (FLOW_HEAT, FLOW_GATED, FLOW_NORMALIZED)
SAFETY = 0.9  # steps may not exceed SAFETY / lambda_max
# Cap on implicitly restarted Lanczos iterations. The flows benchmark's
# 1,995-node block model converges in 24; a ring's clustered top spectrum
# needs ~230 at 1,000 nodes and grows roughly quadratically with n.
LANCZOS_MAXITER = 100


class FlowInstabilityError(RuntimeError):
    """Step size too large for the spectral radius, or energy increased."""


@dataclass(frozen=True)
class FlowSpec:
    """Integration controls of a flow; the ``simulate_*`` function called
    picks the flow itself.

    ``dt=None`` picks ``0.5 * SAFETY / lambda_max``. Every recorded state
    keeps its time stamp; recording happens every ``record_stride`` steps
    plus the initial and final states.
    """

    horizon: float
    dt: float | None = None
    record_stride: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.dt is not None and not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """Recorded times and scalar series of one flow run.

    ``dirichlet`` and ``laplacian`` are the order-1 and order-2 energies
    on the flow's own graph; ``gate`` is ``∫ |Delta X|^2 dmu``;
    ``norm_mass`` is ``∫ |Norm X|^2 dmu`` and stays None outside the
    normalized flow.
    """

    times: np.ndarray
    dirichlet: np.ndarray
    laplacian: np.ndarray
    gate: np.ndarray
    norm_mass: np.ndarray | None
    lambda_max: float


def estimate_lambda_max(G: WeightedGraph) -> float:
    """Largest eigenvalue of ``-Delta``, 0 on an edgeless graph.

    Sparse Lanczos on the similar symmetric operator
    ``M^{-1/2} (D - A) M^{-1/2}``, from a fixed start vector so repeated
    calls agree bitwise. A run that has not converged after
    ``LANCZOS_MAXITER`` iterations returns the Gershgorin bound
    ``2 max_i (sum_j w_ij) / mu_i`` instead, which no eigenvalue exceeds,
    and says so on stderr. Where that bound is loose, the default step
    shrinks with it and a set ``dt`` below the true limit can be refused.
    """
    if G.indices.size == 0:
        return 0.0
    inv_sqrt = scipy.sparse.diags(1.0 / np.sqrt(G.measure))
    drift = scipy.sparse.diags(G.weight_row_sums / G.measure)
    sym = drift - inv_sqrt @ G.adjacency @ inv_sqrt
    v0 = np.random.default_rng(0).uniform(size=G.n)
    try:
        lam = scipy.sparse.linalg.eigsh(
            sym, k=1, which="LA", v0=v0, maxiter=LANCZOS_MAXITER,
            return_eigenvectors=False,
        )
    except scipy.sparse.linalg.ArpackNoConvergence:
        bound = _gershgorin_bound(G)
        print(
            f"lambda_max: Lanczos did not converge in {LANCZOS_MAXITER} "
            f"iterations on {G.n} nodes; using the Gershgorin bound {bound:.17g}",
            file=sys.stderr,
        )
        return bound
    return float(lam[0])


def _gershgorin_bound(G: WeightedGraph) -> float:
    """``2 max_i (sum_j w_ij) / mu_i``, which no eigenvalue of ``-Delta``
    exceeds. Exact on a regular bipartite graph; on other graphs it can sit
    well above ``lambda_max`` (8/5 against 5/4 on a path with
    second-neighbour edges)."""
    return 2.0 * float(np.max(G.weight_row_sums / G.measure))


def simulate_heat(
    G: WeightedGraph,
    X0: np.ndarray,
    spec: FlowSpec,
    *,
    observe: Callable[[float, np.ndarray], None] | None = None,
) -> FlowTrajectory:
    """Explicit Euler for the diffusion flow.

    Requires ``dt <= SAFETY / lambda_max``. The recorded Dirichlet series
    is checked to be non-increasing; an increase beyond roundoff raises
    :class:`FlowInstabilityError` advising a smaller step. ``observe``
    works as the module docstring describes.
    """
    X, _ = _as_features(G, X0)
    lam_max, dt = _resolve_step(G, spec)

    steps = int(np.ceil(spec.horizon / dt))
    records = _Records(G, observe)
    LX, dirichlet, gate = _measure(G, X)
    records.add(0.0, X, dirichlet, gate)
    t = 0.0
    for k in range(1, steps + 1):
        LX *= dt
        X = X + LX
        t += dt
        LX, dirichlet, gate = _measure(G, X)
        if k % spec.record_stride == 0 or k == steps:
            records.add(t, X, dirichlet, gate)
    traj = records.trajectory(lam_max)
    _check_monotone_decay(traj)
    return traj


def simulate_nonlocal(
    G: WeightedGraph,
    X0: np.ndarray,
    spec: FlowSpec,
    *,
    observe: Callable[[float, np.ndarray], None] | None = None,
) -> FlowTrajectory:
    """Explicit Euler for the gated diffusion flow.

    ``spec.dt`` is the effective step (gate folded in); real time advances
    by ``dt / gate``, so step sizes stretch as the gate starves. A gate at
    zero means the state is stationary; the run then jumps straight to the
    horizon. ``observe`` works as the module docstring describes.
    """
    X, _ = _as_features(G, X0)
    lam_max, dt_eff = _resolve_step(G, spec)

    records = _Records(G, observe)
    LX, dirichlet, gate = _measure(G, X)
    records.add(0.0, X, dirichlet, gate)
    t, k = 0.0, 0
    while t < spec.horizon:
        if gate <= 1e-280:  # stationary: record it again at the horizon
            t = spec.horizon
        else:
            LX *= dt_eff
            X = X + LX
            t += dt_eff / gate
            k += 1
            LX, dirichlet, gate = _measure(G, X)
        if k % spec.record_stride == 0 or t >= spec.horizon:
            records.add(t, X, dirichlet, gate)
    traj = records.trajectory(lam_max)
    _check_monotone_decay(traj)
    return traj


def simulate_preln_flow(
    G: WeightedGraph,
    X0: np.ndarray,
    spec: FlowSpec,
    *,
    observe: Callable[[float, np.ndarray], None] | None = None,
) -> FlowTrajectory:
    """Explicit Euler for the normalized aggregation flow.

    Needs an aggregation-admissible graph (spectrum inside [0, 2], which
    is asserted) and rows that never vanish, since every row is projected
    to the sphere of radius ``sqrt(n / ∫ 1 dmu)`` before aggregating.
    ``observe`` works as the module docstring describes.
    """
    if not G.aggregation_admissible:
        raise ValueError(
            "normalized aggregation flow needs sum of incident weights < "
            "vertex measure at every vertex"
        )
    X, _ = _as_features(G, X0)
    if X.shape[1] < 1:
        raise ValueError("need at least one feature column")
    lam_max, dt = _resolve_step(G, spec)
    if lam_max > 2.0 + 1e-9:
        raise AssertionError(
            "admissible graph produced an eigenvalue above 2; construction bug"
        )

    radius = np.sqrt(G.n / float(G.measure.sum()))
    steps = int(np.ceil(spec.horizon / dt))
    records = _Records(G, observe)
    records.add(0.0, X, *_measure(G, X)[1:])
    projected = _sphere_project(X, radius)
    masses = [_norm_mass(G, projected)]
    t = 0.0
    for k in range(1, steps + 1):
        X = X + dt * aggregate_apply(G, projected)
        projected = _sphere_project(X, radius)
        t += dt
        if k % spec.record_stride == 0 or k == steps:
            records.add(t, X, *_measure(G, X)[1:])
            masses.append(_norm_mass(G, projected))
    return records.trajectory(lam_max, np.asarray(masses))


def _sphere_project(X: np.ndarray, radius: float) -> np.ndarray:
    norms = np.sqrt(_squared_row_norms(X))[:, None]  # np.linalg.norm(X, axis=1)
    if norms.min() <= 1e-300:
        raise FlowInstabilityError(
            "a feature row collapsed to zero; the sphere projection is undefined"
        )
    return radius * X / norms


def _norm_mass(G: WeightedGraph, projected: np.ndarray) -> float:
    return float(integrate(G, _squared_row_norms(projected)))


def _measure(G: WeightedGraph, X: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``Delta X``, the order-1 energy and the gate of one state, from one
    edge pass."""
    LX, dirichlet = _laplacian_and_dirichlet(G, X)
    return LX, dirichlet, _gate(G, LX)


def _gate(G: WeightedGraph, LX: np.ndarray) -> float:
    """``∫ |Delta X|^2 dmu`` from ``LX = Delta X``. A non-finite value is
    refused, since the gated clock ``t += dt / gate`` would stall on it."""
    gate = float(G.measure @ _squared_row_norms(LX))
    if not np.isfinite(gate):
        raise ValueError("∫ |Delta X|^2 dmu is not finite: the state overflowed")
    return gate


def _resolve_step(G: WeightedGraph, spec: FlowSpec) -> tuple[float, float]:
    lam_max = estimate_lambda_max(G)
    if lam_max <= 0.0:
        # edgeless graph: any step works, nothing moves
        return 0.0, spec.dt if spec.dt is not None else spec.horizon
    limit = SAFETY / lam_max
    dt = spec.dt if spec.dt is not None else 0.5 * limit
    if dt > limit * (1 + 1e-12):
        note = ""
        if lam_max == _gershgorin_bound(G):
            note = (
                f"; lambda_max = {lam_max:g} is the Gershgorin upper bound, "
                "which stands in when Lanczos does not converge, so the "
                "true limit may be larger"
            )
        raise FlowInstabilityError(
            f"step {dt:g} exceeds the stability limit SAFETY/lambda_max = "
            f"{limit:g}{note}"
        )
    return lam_max, dt


class _Records:
    """One flow's records: each record's time, order-1 energy and gate are
    stored, and its state is only shown to ``observe``."""

    def __init__(self, G, observe):
        self.G, self.observe, self.rows = G, observe, []

    def add(self, t: float, X: np.ndarray, dirichlet: float, gate: float) -> None:
        if self.observe is not None:
            self.observe(t, X)
        self.rows.append((t, dirichlet, gate))

    def trajectory(self, lam_max, masses=None) -> FlowTrajectory:
        times, dirichlet, gates = zip(*self.rows)
        gate = np.array(gates)
        return FlowTrajectory(
            times=np.array(times),
            dirichlet=np.array(dirichlet),
            laplacian=gate / self.G.n,  # order-2 energy = ∫|ΔX|² dμ / n
            gate=gate,
            norm_mass=masses,
            lambda_max=lam_max,
        )


def _check_monotone_decay(traj: FlowTrajectory) -> None:
    E = traj.dirichlet
    if E.size < 2:
        return
    scale = max(E[0], 1.0)
    rises = np.diff(E) > 1e-9 * scale
    if rises.any():
        k = int(rises.argmax())
        raise FlowInstabilityError(
            f"Dirichlet energy increased between records {k} and {k + 1}; "
            "reduce dt"
        )
