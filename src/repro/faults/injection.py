"""Deterministic fault injection at named sites.

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec` triggers.
While a plan is installed, instrumented call sites *fire* their site
name and the plan decides — deterministically, as a pure function of
the seed and the per-site hit counter — whether to inject an exception,
a delay, a NaN payload or a partial (torn) artifact write.

The enable mechanism mirrors :mod:`repro.obs.hooks`: installation is
reference-counted under a lock, and call sites guard on the module-level
:data:`ACTIVE` flag, so with no plan installed the instrumented paths
cost a single attribute read (or nothing at all where the guard folds
into an existing branch).  ``REPRO_FAULTS`` unset means every site is a
no-op — the production default.

Sites shipped with the repo (arbitrary names are allowed):

========================  ====================================================
``checkpoint.write``      :func:`repro.utils.artifacts.atomic_write_npz` for
                          model/trainer checkpoints
``data.write_shard``      trajectory shard writes (:func:`repro.data.save_samples`)
``serve.worker.infer``    the serve worker pool, once per dequeued batch
``rollout.step``          every FNO application in roll-out/hybrid drivers
``parallel.worker.task``  :class:`repro.parallel.ProcessPool` children, once
                          per executed task (kill here = worker death mid-shard)
========================  ====================================================
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ACTIVE",
    "KNOWN_SITES",
    "KINDS",
    "InjectedFault",
    "InjectedIOError",
    "FaultSpec",
    "FaultPlan",
    "install",
    "uninstall",
    "active",
    "current_plan",
    "fire",
    "fire_value",
    "configure_from_env",
]

KNOWN_SITES = (
    "checkpoint.write",
    "data.write_shard",
    "serve.worker.infer",
    "rollout.step",
    "parallel.worker.task",
)

# error      — raise InjectedFault at the site
# io_error   — raise InjectedIOError (an OSError; the retryable flavour)
# delay      — time.sleep(spec.delay) at the site (slow worker / slow disk)
# nan        — poison the site's array payload with a NaN (fire_value)
# noise      — add seeded Gaussian noise (spec.scale × payload rms) to the
#              site's array payload (fire_value): finite, roughly
#              energy-preserving, but physics-violating (non-solenoidal) —
#              the fault NaN checks cannot see and trust diagnostics can
# partial_write — truncate the artifact mid-write (atomic_write_npz)
# kill       — SIGKILL the current process at the site: no exception, no
#              cleanup, no atexit — a power cut with a deterministic
#              location.  For supervised-child chaos scenarios.
KINDS = ("error", "io_error", "delay", "nan", "noise", "partial_write", "kill")


class InjectedFault(RuntimeError):
    """An exception injected by the active :class:`FaultPlan`."""

    def __init__(self, site: str, message: str = ""):
        super().__init__(message or f"injected fault at {site!r}")
        self.site = site


class InjectedIOError(InjectedFault, OSError):
    """An injected fault that presents as an I/O error.

    Retry policies scoped to ``retry_on=(OSError,)`` treat this as a
    transient disk/network hiccup while a plain :class:`InjectedFault`
    (a crash) still propagates.
    """


# Read by instrumented call sites; written only under _lock below.
ACTIVE = False

_lock = threading.Lock()
_depth = 0
_plan: "FaultPlan | None" = None


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: *where* (site), *what* (kind) and *when* it fires.

    ``at`` fires on exactly the Nth hit of the site (1-based); ``every``
    fires on every Nth hit; ``prob`` fires with that probability drawn
    from the spec's seeded stream; ``times`` caps the total number of
    firings (alone it means "the first ``times`` hits").  Left entirely
    unconstrained, the spec fires on every hit.
    """

    site: str
    kind: str = "error"
    at: int | None = None
    every: int | None = None
    times: int | None = None
    prob: float | None = None
    delay: float = 0.0
    scale: float = 0.0
    message: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (choose from {KINDS})")
        if self.at is not None and self.at < 1:
            raise ValueError("at is a 1-based hit index")
        if self.every is not None and self.every < 1:
            raise ValueError("every must be >= 1")
        if self.prob is not None and not (0.0 <= self.prob <= 1.0):
            raise ValueError("prob must be in [0, 1]")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.scale < 0:
            raise ValueError("scale must be >= 0")

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v not in (None, 0.0, "")
                or k in ("site", "kind")}


class FaultPlan:
    """A seeded, thread-safe set of fault triggers with hit accounting.

    Two plans built from the same specs and seed make identical
    decisions given the same per-site hit sequence — the property the
    chaos harness's "same seed → same verdict" guarantee rests on.
    """

    def __init__(self, specs=(), seed: int = 0):
        self.specs = tuple(specs)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fired = [0] * len(self.specs)
        children = np.random.SeedSequence(self.seed).spawn(max(len(self.specs), 1))
        self._rngs = [np.random.default_rng(s) for s in children]

    # ------------------------------------------------------------------
    def poll(self, site: str) -> list[FaultSpec]:
        """Count a hit on ``site`` and return the specs that fire on it."""
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            fired: list[FaultSpec] = []
            for i, spec in enumerate(self.specs):
                if spec.site != site:
                    continue
                if spec.times is not None and self._fired[i] >= spec.times:
                    continue
                if spec.at is not None and hit != spec.at:
                    continue
                if spec.every is not None and hit % spec.every != 0:
                    continue
                if spec.prob is not None and not self._rngs[i].random() < spec.prob:
                    continue
                self._fired[i] += 1
                fired.append(spec)
            return fired

    def reset(self) -> None:
        """Forget all hit/fire accounting (the RNG streams restart too)."""
        with self._lock:
            self._hits.clear()
            self._fired = [0] * len(self.specs)
            children = np.random.SeedSequence(self.seed).spawn(max(len(self.specs), 1))
            self._rngs = [np.random.default_rng(s) for s in children]

    def stats(self) -> dict:
        """Deterministic summary: hits per site, firings per (site, kind)."""
        with self._lock:
            fired: dict[str, int] = {}
            for i, spec in enumerate(self.specs):
                key = f"{spec.site}:{spec.kind}"
                fired[key] = fired.get(key, 0) + self._fired[i]
            return {
                "hits": dict(sorted(self._hits.items())),
                "fired": dict(sorted(fired.items())),
            }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        specs = [FaultSpec(**spec) for spec in payload.get("faults", [])]
        return cls(specs, seed=int(payload.get("seed", 0)))

    @classmethod
    def from_json(cls, text_or_path) -> "FaultPlan":
        text = str(text_or_path)
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text(encoding="utf-8")
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# installation (refcounted, mirrors obs.hooks)
# ---------------------------------------------------------------------------


def install(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide (refcounted; pair with :func:`uninstall`)."""
    global ACTIVE, _depth, _plan
    with _lock:
        if _plan is not None and _plan is not plan:
            raise RuntimeError("a different fault plan is already installed")
        _plan = plan
        _depth += 1
        ACTIVE = True


def uninstall() -> None:
    global ACTIVE, _depth, _plan
    with _lock:
        if _depth == 0:
            raise RuntimeError("no fault plan is installed")
        _depth -= 1
        if _depth == 0:
            _plan = None
            ACTIVE = False


@contextmanager
def active(plan: FaultPlan):
    """Run a block with ``plan`` installed."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def current_plan() -> FaultPlan | None:
    return _plan


# ---------------------------------------------------------------------------
# the site API
# ---------------------------------------------------------------------------


def _count(site: str, kind: str) -> None:
    from .. import obs

    obs.metrics_registry().counter(
        "faults_injected_total", labels={"site": site, "kind": kind}
    ).inc()


def fire(site: str, **ctx) -> tuple[FaultSpec, ...]:
    """Hit ``site``: maybe sleep, maybe raise, return payload specs.

    Call sites guard on :data:`ACTIVE` before calling, so this only runs
    while a plan is installed.  ``error``/``io_error`` specs raise here;
    ``delay`` specs sleep here; ``nan``/``partial_write`` specs are
    returned for the site to apply to its own payload (or via
    :func:`fire_value`).  ``ctx`` is carried into the fault message.
    """
    plan = _plan
    if plan is None:
        return ()
    payloads: list[FaultSpec] = []
    for spec in plan.poll(site):
        _count(site, spec.kind)
        if spec.kind == "delay":
            time.sleep(spec.delay)
        elif spec.kind == "io_error":
            raise InjectedIOError(site, spec.message)
        elif spec.kind == "error":
            raise InjectedFault(site, spec.message)
        elif spec.kind == "kill":
            import os
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        else:
            payloads.append(spec)
    return tuple(payloads)


def fire_value(site: str, value, **ctx):
    """:func:`fire`, then apply any ``nan``/``noise`` payload to an array.

    Noise is drawn from a generator seeded by the plan seed, so the
    corruption is a pure function of the plan — the same plan poisons
    the same bits on every run (the chaos harness's determinism
    contract), in the payload's native dtype.
    """
    plan = _plan
    for spec in fire(site, **ctx):
        if spec.kind == "nan":
            value = np.array(value, dtype=np.asarray(value).dtype, copy=True)
            value.reshape(-1)[0] = np.nan
        elif spec.kind == "noise":
            arr = np.array(value, dtype=np.asarray(value).dtype, copy=True)
            rng = np.random.default_rng(plan.seed if plan is not None else 0)
            amplitude = arr.dtype.type(
                spec.scale * float(np.sqrt(np.mean(np.square(arr))))
            )
            noise = rng.standard_normal(arr.shape)
            value = arr + amplitude * noise.astype(arr.dtype, copy=False)
    return value


# ---------------------------------------------------------------------------


def configure_from_env(environ=None) -> FaultPlan | None:
    """Honour ``REPRO_FAULTS`` (used by the CLI entry point).

    Unset/empty/``"0"`` leaves injection off.  Otherwise the value is an
    inline JSON plan (``{"seed": .., "faults": [..]}``) or a path to a
    JSON file with that shape; the plan is installed for the process
    lifetime.
    """
    if environ is None:
        import os

        environ = os.environ
    value = environ.get("REPRO_FAULTS", "").strip()
    if not value or value == "0":
        return None
    plan = FaultPlan.from_json(value)
    install(plan)
    return plan
