import numpy as np

from normdescent import SymMatrix


def random_sym(rng: np.random.Generator, d: int, scale: float = 1.0) -> SymMatrix:
    a = rng.standard_normal((d, d)) * scale
    return SymMatrix(a + a.T)


def random_psd(rng: np.random.Generator, d: int, scale: float = 1.0) -> SymMatrix:
    a = rng.standard_normal((d, d)) * scale
    return SymMatrix(a @ a.T / d)


def random_pd_2x2(rng: np.random.Generator) -> SymMatrix:
    # positive definite iff a, d > 0 and b^2 < a*d
    a = rng.uniform(0.1, 5.0)
    d = rng.uniform(0.1, 5.0)
    b = rng.uniform(-1.0, 1.0) * 0.99 * np.sqrt(a * d)
    return SymMatrix([[a, b], [b, d]])
