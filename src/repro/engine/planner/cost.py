"""The cost model: measured statistics → plan choice.

The engine's three in-process plans (``basic``, ``blocktree``, ``compiled``)
all return byte-identical answers — the plan choice is purely a performance
strategy, which is exactly what makes it safe to hand to a cost model: a
wrong estimate can only cost time, never change a result (the differential
suite pins this).

The model is deliberately conservative.  It deviates from the session default
(``compiled``) only when there is measured evidence on *both* sides: the
default itself must have been observed for this query, and a challenger must
beat its EWMA latency by :data:`COST_MARGIN`.  A cold query — no statistics
at all — therefore behaves exactly as before this module existed, which is
what keeps the golden suites byte-stable and the "never slower than the fixed
heuristic" benchmark gate honest.  Statistics arrive passively from serving
traffic (every cache-missing execution is measured) or actively through
:meth:`repro.engine.dataspace.Dataspace.calibrate`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.engine.planner.statistics import QueryStatistics

__all__ = ["COST_MARGIN", "CostModel", "PlanDecision", "PlanEstimate"]

#: A challenger plan must beat the measured default by this factor before the
#: model deviates from it — measurement noise must not flip plans.
COST_MARGIN = 1.15

#: The fixed session default every cold query runs on.
_DEFAULT_PLAN = "compiled"

#: In-process plan names the model considers (registration order).
_INPROCESS_PLANS = ("basic", "blocktree", "compiled")


@dataclass(frozen=True)
class PlanEstimate:
    """One candidate strategy's estimated cost, as the model saw it."""

    plan: str
    cost_ms: float
    observations: int
    source: str = "measured"

    def to_dict(self) -> dict:
        """JSON-serialisable view (rendered by ``explain()``)."""
        return {
            "plan": self.plan,
            "cost_ms": round(self.cost_ms, 3),
            "observations": self.observations,
            "source": self.source,
        }


@dataclass(frozen=True)
class PlanDecision:
    """The cost model's answer for one (query, state, k) question.

    ``plan_name`` names a registered in-process
    :class:`~repro.engine.plans.QueryPlan`.  ``candidates`` records every
    estimate the model compared and ``statistics`` the statistics snapshot it
    used — both surface through ``explain()`` so a plan choice is always
    explainable.
    """

    plan_name: str
    reason: str
    candidates: tuple[PlanEstimate, ...] = ()
    statistics: Optional[dict] = None
    cached: bool = False

    def as_cached(self) -> "PlanDecision":
        """This decision, marked as served from the decision cache."""
        return replace(self, cached=True)


class CostModel:
    """Choose an execution strategy from measured statistics (see module docs)."""

    def __init__(self, margin: float = COST_MARGIN) -> None:
        if margin < 1.0:
            raise ValueError(f"cost margin must be >= 1.0, got {margin}")
        self.margin = margin

    def _default(self, reason: str, candidates: tuple[PlanEstimate, ...] = (),
                 statistics: Optional[dict] = None) -> PlanDecision:
        return PlanDecision(
            plan_name=_DEFAULT_PLAN,
            reason=reason,
            candidates=candidates,
            statistics=statistics,
        )

    def decide(
        self,
        stats: Optional[QueryStatistics],
        *,
        k: Optional[int] = None,
        collect_statistics: bool = True,
    ) -> PlanDecision:
        """Pick a plan for one query given its accumulated statistics.

        ``k`` is currently informational — latencies are aggregated across
        top-k settings.  ``collect_statistics=False`` skips
        attaching the serialized statistics snapshot — the execute hot path
        asks for that, since the snapshot only serves ``explain()`` output
        and building it costs more than the decision itself.
        """
        if stats is None:
            return self._default("compiled bitset core (no statistics yet)")
        snapshot = stats.to_payload() if collect_statistics else None
        baseline = stats.plans.get(_DEFAULT_PLAN)
        candidates = []
        for name in _INPROCESS_PLANS:
            latency = stats.plans.get(name)
            if latency is not None and latency.count > 0:
                candidates.append(
                    PlanEstimate(
                        plan=name,
                        cost_ms=latency.ewma_ms,
                        observations=latency.count,
                    )
                )
        ranked = tuple(
            sorted(candidates, key=lambda est: (est.cost_ms, est.plan != _DEFAULT_PLAN, est.plan))
        )
        if baseline is None or baseline.count == 0:
            # Never deviate without evidence on both sides: until the default
            # itself has been measured, a challenger's number has nothing to
            # beat and the model stays on the safe fixed choice.
            return self._default(
                "compiled bitset core (default not yet measured)", ranked, snapshot
            )
        winner = ranked[0]
        if winner.plan == _DEFAULT_PLAN:
            return self._default(
                f"cost model: compiled measured fastest "
                f"({winner.cost_ms:.2f} ms over {winner.observations} runs)",
                ranked,
                snapshot,
            )
        if winner.cost_ms * self.margin > baseline.ewma_ms:
            return self._default(
                f"cost model: {winner.plan} ({winner.cost_ms:.2f} ms) within "
                f"{self.margin:.2f}x margin of compiled ({baseline.ewma_ms:.2f} ms)",
                ranked,
                snapshot,
            )
        return PlanDecision(
            plan_name=winner.plan,
            reason=(
                f"cost model: {winner.plan} measured {winner.cost_ms:.2f} ms vs "
                f"compiled {baseline.ewma_ms:.2f} ms "
                f"({baseline.ewma_ms / max(winner.cost_ms, 1e-9):.1f}x, "
                f"{winner.observations} runs)"
            ),
            candidates=ranked,
            statistics=snapshot,
        )
