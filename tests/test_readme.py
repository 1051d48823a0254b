"""README's library example is the package's contract, so it must run as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python code block of README's "Library use" section."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_on_small_synthetic_data():
    rng = np.random.default_rng(0)

    def task(n, shift):
        X = rng.uniform(-1.0, 1.0, size=(n, 1))
        return X, (X[:, 0] + shift) ** 3 + 0.01 * rng.standard_normal(n)

    namespace = {}
    for name, (X, y) in (("src", task(40, 0.0)), ("tgt", task(8, 0.1)), ("new", task(25, 0.1))):
        namespace[f"X_{name}"], namespace[f"y_{name}"] = X, y
    exec(library_example(), namespace)
    assert 0.0 <= namespace["result"].beta_star <= 1.0
    assert np.isfinite(namespace["score"]) and np.isfinite(namespace["error"])
    target, again = namespace["target"], namespace["target_again"]
    assert (again.mean.tobytes(), again.cov.tobytes()) == (target.mean.tobytes(),
                                                          target.cov.tobytes())
    assert namespace["report"]["n_samples"] == 8
