"""Deterministic chaos harness for sweep execution.

A :class:`FaultPlan` makes chosen runs of a sweep misbehave on purpose —
raise, sleep past the run timeout, or hard-crash the worker process —
so every failure mode the fault-tolerant runner handles is reproducible
in tests and CI. Plans are pure data: which runs fire is a deterministic
function of the plan spec and each run's identity, never of wall-clock
time or worker scheduling, so a chaos sweep is as replayable as a clean
one.

Plan grammar (CLI ``--fault-plan`` or the :data:`FAULT_PLAN_ENV` env
var)::

    PLAN     := CLAUSE ( '+' CLAUSE )*
    CLAUSE   := SELECTOR '=' ACTION
    SELECTOR := '*'                  every run
              | <int>                the N-th request of the batch (0-based,
                                     cache hits included)
              | sample:P:SEED        each run fires with probability P,
                                     hashed from (SEED, run id) — seeded,
                                     so the same runs fire every time
              | <text>               any run whose run id contains <text>
    ACTION   := raise                raise InjectedFault inside the run
              | hang[:SECONDS]       sleep before running (default 3600 s)
              | crash[:CODE]         os._exit(CODE) the worker (default 1)
    ACTION   may carry a '/N' suffix: fire on the first N attempts only,
    so a retried run succeeds afterwards (e.g. ``3=hang:30/1``).

The first matching clause wins. Example: ``2=raise+5=crash+8=hang:60``
injects one raising run, one worker crash and one hang into a batch.
Under the default ``fail`` policy a single ``N=raise`` clause aborts a
whole sweep at request N, once every request before it has completed
and been checkpointed — the deterministic way to interrupt a sweep and
test its resume.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.experiments.specs import ParameterValueError

#: Environment variable carrying a fault-plan spec; the CLI's
#: ``--fault-plan`` takes precedence when both are given.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Default sleep for a bare ``hang`` action: effectively forever, so an
#: unparameterised hang always trips any sane ``--run-timeout``.
DEFAULT_HANG_S = 3600.0

#: Default exit code for a bare ``crash`` action.
DEFAULT_CRASH_CODE = 1


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault action injects into a run."""


@dataclass(frozen=True)
class FaultAction:
    """What a matched run does: ``raise``, ``hang`` or ``crash``.

    ``param`` is the hang duration (seconds) or the crash exit code;
    ``times`` caps the action to the first N attempts (None = every
    attempt), which lets retry tests inject a fault that goes away.
    """

    kind: str
    param: float = 0.0
    times: Optional[int] = None

    @classmethod
    def parse(cls, text: str) -> "FaultAction":
        body, slash, times_text = text.partition("/")
        times: Optional[int] = None
        if slash:
            try:
                times = int(times_text)
            except ValueError:
                times = 0
            if times < 1:
                raise ParameterValueError(
                    f"fault action {text!r}: '/N' needs a positive attempt count"
                )
        kind, colon, param_text = body.partition(":")
        kind = kind.strip()
        if kind == "raise":
            if colon:
                raise ParameterValueError(
                    f"fault action {text!r}: 'raise' takes no parameter"
                )
            return cls("raise", 0.0, times)
        if kind == "hang":
            try:
                param = float(param_text) if colon else DEFAULT_HANG_S
            except ValueError:
                raise ParameterValueError(
                    f"fault action {text!r}: hang seconds must be a number"
                ) from None
            if param < 0:
                raise ParameterValueError(
                    f"fault action {text!r}: hang seconds must be >= 0"
                )
            return cls("hang", param, times)
        if kind == "crash":
            try:
                param = int(param_text) if colon else DEFAULT_CRASH_CODE
            except ValueError:
                raise ParameterValueError(
                    f"fault action {text!r}: crash exit code must be an integer"
                ) from None
            return cls("crash", float(param), times)
        raise ParameterValueError(
            f"fault action {text!r}: expected raise, hang[:SECONDS] or "
            f"crash[:CODE]"
        )

    def trigger(self, run_id: str, attempt: int) -> None:
        """Fire the fault (or not, if this attempt is past ``times``).

        Called inside the run attempt — in the worker process for pooled
        execution — so ``crash`` takes the worker down exactly the way a
        segfault or OOM kill would.
        """
        if self.times is not None and attempt > self.times:
            return
        if self.kind == "raise":
            # No attempt number in the message: the recorded failure must
            # be byte-identical at any --jobs count and retry budget.
            raise InjectedFault(f"injected fault: run {run_id!r} raised")
        if self.kind == "hang":
            time.sleep(self.param)
        elif self.kind == "crash":
            os._exit(int(self.param))


@dataclass(frozen=True)
class FaultClause:
    """One ``SELECTOR=ACTION`` pair of a plan."""

    selector: str
    action: FaultAction

    def matches(self, run_id: str, index: int) -> bool:
        """Whether this clause selects the run at batch position ``index``."""
        if self.selector == "*":
            return True
        if self.selector.isdigit():
            return index == int(self.selector)
        if self.selector.startswith("sample:"):
            _, p_text, seed = self.selector.split(":", 2)
            return random.Random(f"{seed}:{run_id}").random() < float(p_text)
        return self.selector in run_id


@dataclass(frozen=True)
class FaultPlan:
    """A parsed chaos plan: ordered clauses, first match wins."""

    clauses: Tuple[FaultClause, ...]
    spec: str = ""

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        text = (spec or "").strip()
        if not text:
            raise ParameterValueError("fault plan: empty spec")
        clauses = []
        for chunk in text.split("+"):
            chunk = chunk.strip()
            selector, sep, action_text = chunk.rpartition("=")
            if not sep or not selector.strip() or not action_text.strip():
                raise ParameterValueError(
                    f"fault clause {chunk!r}: expected SELECTOR=ACTION"
                )
            selector = selector.strip()
            if selector.startswith("sample:"):
                parts = selector.split(":")
                try:
                    ok = len(parts) == 3 and 0.0 <= float(parts[1]) <= 1.0
                except ValueError:
                    ok = False
                if not ok:
                    raise ParameterValueError(
                        f"fault selector {selector!r}: expected sample:P:SEED "
                        f"with P in [0, 1]"
                    )
            clauses.append(
                FaultClause(selector, FaultAction.parse(action_text.strip()))
            )
        return cls(tuple(clauses), text)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan from :data:`FAULT_PLAN_ENV`, or None when unset."""
        spec = os.environ.get(FAULT_PLAN_ENV, "").strip()
        return cls.parse(spec) if spec else None

    def action_for(self, run_id: str, index: int) -> Optional[FaultAction]:
        """The action for one run (first matching clause), or None."""
        for clause in self.clauses:
            if clause.matches(run_id, index):
                return clause.action
        return None
