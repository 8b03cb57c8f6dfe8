"""Module/Parameter system for building neural networks.

Mirrors the PyTorch ``nn.Module`` conventions closely enough that the FNO
architectures read like their reference implementations: parameters and
submodules registered by attribute assignment, ``state_dict`` /
``load_state_dict`` for checkpointing, ``train()``/``eval()`` modes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A Tensor that is a trainable leaf of a :class:`Module`."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network modules.

    Subclasses define parameters/submodules in ``__init__`` by plain
    attribute assignment and implement :meth:`forward`.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, p in self.named_parameters():
            yield p

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters.

        Complex spectral weights are stored as separate real and imaginary
        arrays, so a complex mode weight counts as two scalars here (one
        per real degree of freedom).
        """
        return sum(p.numel() for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for m in self._modules.values():
            m.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameter arrays keyed by dotted names."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Install copies of the parameter arrays in ``state``."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, value in state.items():
            if name not in own:
                continue
            param = own[name]
            value = np.asarray(value, dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(f"parameter {name!r}: shape {value.shape} != {param.data.shape}")
            param.data = value.copy()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(self._modules) or ", ".join(self._parameters)
        return f"{type(self).__name__}({inner})"


class Sequential(Module):
    """Chain modules, feeding each output into the next module."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._items = []
        for i, m in enumerate(modules):
            setattr(self, f"m{i}", m)
            self._items.append(m)

    def forward(self, x):
        for m in self._items:
            x = m(x)
        return x

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> Module:
        return self._items[i]


# repro: ignore[RPR004] -- pure container: iterated by owners, never called
class ModuleList(Module):
    """List-like container whose entries are registered submodules."""

    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> "ModuleList":
        setattr(self, f"m{len(self._items)}", module)
        self._items.append(module)
        return self

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> Module:
        return self._items[i]
