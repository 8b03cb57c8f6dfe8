"""Reverse-mode automatic differentiation on NumPy arrays.

This module provides the :class:`Tensor` class — a thin wrapper around a
real-valued :class:`numpy.ndarray` that keeps the graph of operations so
that gradients can be computed by reverse-mode accumulation.

Design notes
------------
* Data is always a real ``float32``/``float64`` ndarray.  Complex values
  only appear *inside* fused spectral operations (see
  :mod:`repro.tensor.fft_ops`), whose adjoints are derived analytically.
* The graph is implicit: each Tensor produced by an operation keeps its
  parents, the op's vector-Jacobian product from the op table
  (:data:`repro.tensor.recording.PRIMITIVES`) and the arguments and
  residuals that VJP reads.  :meth:`Tensor.backward` visits the graph in
  :func:`topological_order` and hands every VJP's cotangents to the
  parents, one generic call per node; compiled training plans replay the
  same order with the same VJPs.
* Broadcasting follows NumPy semantics; cotangents are summed back to the
  parent shapes with :func:`unbroadcast`.
* Grad mode (:class:`no_grad`) is per thread, and every op output passes
  through :meth:`Tensor.from_op`, which calls the registered observers
  (:func:`add_observer`) — one tuple read per op when there are none.

The engine is deliberately small — a few dozen primitives — but complete
enough to train Fourier neural operators end to end.  Gradients of every
primitive are validated against central finite differences in the test
suite (``tests/test_tensor_ops_gradcheck.py``).
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "unbroadcast", "asarray",
    "topological_order", "add_observer", "remove_observer",
]


class _GradMode(threading.local):
    enabled = True


_GRAD = _GradMode()


class no_grad:
    """Context manager that disables graph recording on this thread.

    Inside a ``with no_grad():`` block, operations on tensors produce
    result tensors with ``requires_grad=False`` and no parents, exactly
    like the PyTorch context manager of the same name.  Use it for
    inference rollouts and metric computation.  The mode is per thread,
    so serve workers entering and leaving it concurrently never see each
    other's setting.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD.enabled
        _GRAD.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return True when operations on this thread are recorded in the graph."""
    return _GRAD.enabled


# Callbacks ``observer(out, parents)`` run for every op output, keyed by
# callback with a registration count, so nested and interleaved
# registrations from different modules compose.  ``from_op`` reads the
# tuple once per call; it is rebuilt under the lock on every change.
_OBSERVERS: tuple = ()
_OBSERVER_COUNTS: dict = {}
_OBSERVER_LOCK = threading.Lock()


def add_observer(observer: Callable) -> None:
    """Call ``observer(out, parents)`` for every op output until removed.

    Registrations are counted: a callback added twice stays until it is
    removed twice.
    """
    global _OBSERVERS
    with _OBSERVER_LOCK:
        _OBSERVER_COUNTS[observer] = _OBSERVER_COUNTS.get(observer, 0) + 1
        _OBSERVERS = tuple(_OBSERVER_COUNTS)


def remove_observer(observer: Callable) -> None:
    """Undo one :func:`add_observer` of ``observer``."""
    global _OBSERVERS
    with _OBSERVER_LOCK:
        count = _OBSERVER_COUNTS[observer] - 1
        if count:
            _OBSERVER_COUNTS[observer] = count
        else:
            del _OBSERVER_COUNTS[observer]
        _OBSERVERS = tuple(_OBSERVER_COUNTS)


def asarray(value, dtype=None) -> np.ndarray:
    """Coerce ``value`` (scalar, list, ndarray or Tensor) to an ndarray."""
    if isinstance(value, Tensor):
        value = value.data
    arr = np.asarray(value)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        # Non-float input (int/bool lists, scalars) lands on the float64
        # default; float32 arrays pass through untouched above.
        arr = arr.astype(np.float64)  # repro: ignore[RPR001] -- coercion of non-float input only
    return arr


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Axes that were prepended by broadcasting are summed away; axes that
    were stretched from length 1 are summed with ``keepdims=True``.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched axes.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A real-valued array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Anything convertible to a ``float32``/``float64`` ndarray.
    requires_grad:
        When True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_vjp", "_args", "_res", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data: np.ndarray = asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD.enabled
        self._vjp: Callable[..., tuple] | None = None
        self._args: tuple = ()
        self._res: tuple = ()
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        vjp: Callable[..., tuple],
        args: tuple = (),
        res: tuple = (),
    ) -> "Tensor":
        """Build a Tensor resulting from an operation on ``parents``.

        ``vjp(g, *args, res=res, needs=needs)`` is the op's
        vector-Jacobian product: it returns one cotangent per parent
        (None where ``needs``, one flag per parent, is false).  When grad
        mode is off or no parent requires gradients, the graph edge is
        dropped and neither ``args`` nor the residuals ``res`` are kept.
        """
        requires = _GRAD.enabled and any(p.requires_grad for p in parents)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = requires
        out.name = None
        if requires:
            out._vjp, out._args, out._res, out._parents = vjp, args, res, tuple(parents)
        else:
            out._vjp, out._args, out._res, out._parents = None, (), (), ()
        observers = _OBSERVERS
        if observers:
            for observer in observers:
                observer(out, parents)
        return out

    @staticmethod
    def zeros(shape, dtype=np.float64, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, dtype=np.float64, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numel(self) -> int:
        """Number of scalar elements (PyTorch-compatible spelling)."""
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new Tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        src = self.data.dtype
        return Tensor.from_op(self.data.astype(np.dtype(dtype)), (self,),
                              lambda g, res, needs: (g.astype(src),))

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        """Accumulate a cotangent into ``self.grad`` (dtype-preserving)."""
        if not self.requires_grad:
            return
        g = np.asarray(g, dtype=self.data.dtype)
        if self.grad is None:
            # Always copy on first store: the incoming cotangent may alias
            # an array another VJP also hands out (e.g. ``x + x``), and we
            # accumulate in place afterwards.
            self.grad = g.copy()
        else:
            self.grad += g

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        Parameters
        ----------
        grad:
            Cotangent seed.  Defaults to 1 for scalar outputs; required
            for non-scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"grad shape {grad.shape} != tensor shape {self.data.shape}")

        order = topological_order(self)
        self._accumulate(grad)
        for node in reversed(order):
            if node._vjp is not None and node.grad is not None:
                parents = node._parents
                grads = node._vjp(node.grad, *node._args, res=node._res,
                                  needs=tuple(p.requires_grad for p in parents))
                for parent, g in zip(parents, grads):
                    if g is not None:
                        parent._accumulate(g)
                # Free intermediate cotangents and graph edges: leaves keep
                # their grads (they have no VJP); interior nodes do not
                # need theirs after propagation.
                node.grad = None
                node._vjp = None
                node._args = node._res = node._parents = ()

    # ------------------------------------------------------------------
    # operator plumbing (implementations live in repro.tensor.ops)
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    def __len__(self) -> int:
        return len(self.data)

    # Arithmetic dunders are attached by repro.tensor.ops at import time to
    # avoid a circular definition; see ``ops._install_operators``.


def topological_order(root: Tensor) -> list[Tensor]:
    """The graph behind ``root`` in depth-first post-order (``root`` last).

    Only tensors that require gradients are visited.  :meth:`Tensor.backward`
    runs the VJPs in the reverse of this order, and a compiled training
    plan (:func:`repro.compile.train.build_train_plan`) lays out its
    reverse steps from the same order, so both sum every multi-consumer
    cotangent in the same sequence.
    """
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return topo
