"""Buffer arenas for compiled execution plans.

A plan preallocates every dense intermediate once instead of allocating
per call.  The arena is described by a list of :class:`BufferSpec`
entries; a concrete buffer set is *materialised* lazily per thread (serve
workers execute the same plan concurrently, and an ``out=`` kernel
writing a buffer another thread is reading would corrupt both requests).

Buffers come in two flavours:

* **Reusable scratch** — plain uninitialised storage whose entire extent
  is rewritten by its producing kernel every call.  The plan builder
  recycles these across steps once the last reader has run (liveness
  analysis in :mod:`repro.compile.plan`).
* **Pinned** (``reusable=False``) — buffers holding a constant region
  written once at materialisation time by ``init`` and *not* refreshed
  per call: the zeroed non-retained modes of a spectral convolution, the
  grid channels of the input concatenation, the padding margins of a
  time-padded FNO.  Handing these to another step, or handing another
  step's dirty scratch to them, would corrupt the constant region, so
  they are excluded from reuse in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["BufferSpec", "Arena"]


@dataclass
class BufferSpec:
    """Shape/dtype/initialisation of one preallocated buffer."""

    shape: tuple[int, ...]
    dtype: np.dtype
    init: Callable[[np.ndarray], None] | None = None
    reusable: bool = True

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))

    def materialize(self) -> np.ndarray:
        buf = np.empty(self.shape, dtype=self.dtype)
        if self.init is not None:
            self.init(buf)
        return buf


@dataclass
class Arena:
    """An ordered collection of buffer specs with simple reuse accounting."""

    specs: list[BufferSpec] = field(default_factory=list)
    reuse_count: int = 0

    def add(self, shape, dtype, init=None, reusable: bool = True) -> int:
        """Register a new buffer; returns its index."""
        self.specs.append(BufferSpec(tuple(shape), np.dtype(dtype), init, reusable))
        return len(self.specs) - 1

    @property
    def nbytes(self) -> int:
        return sum(spec.nbytes for spec in self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def materialize(self) -> list[np.ndarray]:
        """Build a fresh, fully initialised buffer set (one per spec)."""
        return [spec.materialize() for spec in self.specs]
