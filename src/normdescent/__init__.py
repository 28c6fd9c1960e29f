"""Steepest descent under non-Euclidean norms, with the matching
smoothness-geometry analysis and benchmark experiments.

The public names are those of the layers' ``__all__``.  Each is looked up
on first use (PEP 562), importing the layers in order up to the one that
owns it, so ``import normdescent`` alone loads no numpy and ``cli`` can pin
the BLAS threads before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# in import order: a layer imports only layers before it
_LAYERS = ("matrices", "norms", "analysis", "problems", "optimizers", "experiments")


def __getattr__(name: str):
    if name in _LAYERS:  # a layer is an attribute even before anything has imported it
        return import_module(f".{name}", __name__)
    layers = (import_module(f".{layer}", __name__) for layer in _LAYERS)
    if name == "__all__":
        return [public for mod in layers for public in mod.__all__]
    for mod in layers:
        if name in mod.__all__:
            return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
