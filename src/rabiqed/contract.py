"""What the command line knows before it picks a command, with NumPy unloaded.

The names here are those a command-line run may need before its command
imports the numeric layers: the ``--model`` and ``--observable`` choices,
every exception that ``cli.main`` maps to an exit code, and the CSV
writer and reader (all that ``plot`` needs besides svgplot).  Each is
defined once, here, and re-exported by the module it belongs to
(``model.RABI``, ``shifts.ResonantDivergence``, ``sweeps.format_table``
and so on are these same objects), so this module imports nothing but
the standard library.
"""

from __future__ import annotations

RABI = "rabi"
JC = "jc"
MODELS = (RABI, JC)

RESONATOR_PULL = "resonator_pull"
QUBIT_SHIFT = "qubit_shift"
OBSERVABLES = (RESONATOR_PULL, QUBIT_SHIFT)


# model

class NonPositiveSplitting(ValueError):
    """A qubit transition frequency came out <= 0."""


class LadderOverflow(ValueError):
    """Finite ladder parameters gave a level energy, coupling or Hamiltonian
    entry beyond float64."""


class ConfigError(ValueError):
    """A configuration file could not be interpreted."""


class InvalidSpec(ValueError):
    """A spec constructor found hard errors in its fields; carries them all."""

    def __init__(self, errors: str | tuple[str, ...]):
        self.errors = (errors,) if isinstance(errors, str) else tuple(errors)
        super().__init__("; ".join(self.errors))

    def __reduce__(self):
        return type(self), (self.errors,)


# shifts

class ResonantDivergence(ArithmeticError):
    """A shift denominator fell inside the resonance tolerance."""

    def __init__(self, k: int, which: str, value: float):
        self.k = k
        self.which = which
        self.value = value
        super().__init__(f"transition {k}: |{which}| = {abs(value):.3e} GHz is "
                         f"inside the resonance tolerance")

    def __reduce__(self):
        return type(self), (self.k, self.which, self.value)


# rates

class RateOverflow(OverflowError):
    """A prefactor or rate came out infinite or NaN from finite parameters:
    the couplings, frequencies or noise powers are too large for float64."""


class NegativePhotonNumber(ValueError):
    """Driven-frame photon number must be >= 0."""


# exact

class DimensionOverflow(ValueError):
    """Requested product space exceeds the dense-solver cap."""


class ConvergenceFailure(RuntimeError):
    """The eigensolver failed to converge."""


class AmbiguousLabeling(RuntimeError):
    """No eigenvector overlaps the requested bare state by more than 1/2."""

    def __init__(self, pair: tuple[int, int], overlap: float):
        self.pair = pair
        self.overlap = overlap
        super().__init__(f"bare state {pair} has best overlap "
                         f"{overlap:.4f} <= 0.5; dressed labeling breaks down here")

    def __reduce__(self):
        return type(self), (self.pair, self.overlap)


class PrecisionLoss(ArithmeticError):
    """An exact shift is nonzero but smaller than the eigensolver's error
    bound on it, so it is rounding noise rather than a shift."""

    def __init__(self, observable: str, value: float, bound: float):
        self.observable = observable
        self.value = value
        self.bound = bound
        super().__init__(f"exact {observable} {value:.3e} GHz is within the eigensolver's "
                         f"error bound {bound:.3e} GHz")

    def __reduce__(self):
        return type(self), (self.observable, self.value, self.bound)


class NoPhysicalCoupling(RuntimeError):
    """The least-squares g0^2 is not positive and finite, or its residual sum
    or standard error is not finite: no physical coupling fits."""


# lindblad

class PropagationFailure(RuntimeError):
    """The generator or a propagated state is not finite, the generator is too
    fast to propagate over the requested time, or the propagation (the
    NumPy propagator or SciPy's expm_multiply) failed."""


class DegenerateNullSpace(RuntimeError):
    """The generator has more than one steady state."""


class TruncationTooSmall(ValueError):
    """Fock truncation cannot hold the requested coherent amplitude."""


class MemoryBudgetExceeded(ValueError):
    """A dynamics run would allocate more than MEMORY_BUDGET_BYTES at once."""


# sweeps

class SweepError(ValueError):
    """A sweep request could not be interpreted."""


def format_table(names: list[str], rows) -> str:
    """Serialize mappings deterministically: 17 significant digits, one header.

    Each row maps every name to a string (written as is) or a number.
    """
    lines = [",".join(names)]
    for row in rows:
        cells = (row[name] for name in names)
        lines.append(",".join(v if isinstance(v, str) else format(float(v), ".17g")
                              for v in cells))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> tuple[list[str], list[dict[str, float | str]]]:
    """Read a CSV produced by format_table back into dict rows."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty CSV")
    names = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"row has {len(cells)} cells, header has {len(names)}")
        row: dict[str, float | str] = {}
        for name, cell in zip(names, cells):
            if name == "error":
                row[name] = cell
            else:
                try:
                    row[name] = float(cell)
                except ValueError:
                    row[name] = cell
        rows.append(row)
    return names, rows
