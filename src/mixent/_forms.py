"""The counting vocabulary that every entropy is built on.

The Stirling forms of ln n!, the counting models, the entropy result and
the three formulas on them that mixing needs (``_log_multinomial``,
``_entropy_result`` and ``_ideal_gas_S``).  They live here, apart from
the rest of ``combinatorics`` and ``statmech``, so that ``mixing``,
``scenario_io`` and the CLI's parser load them without loading those two
modules.  Those modules re-export them, and each class names its public
home as its ``__module__``, so pickles and ``help()`` read as before.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from . import _check
from ._check import _INF
from .errors import DomainError

_TWO_PI = 2.0 * math.pi
# EXACT adds it to (1/2) ln x, where 2 pi x would overflow above 2.9e307
_HALF_LN_2PI = 0.5 * math.log(_TWO_PI)
# Loader's stirlerr series above 15: ln x! - (x + 1/2) ln x + x - (1/2) ln 2 pi
# = (S0 - S1/x^2 + S2/x^4 - S3/x^6 + S4/x^8) / x, with a next term below 3e-16
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


class StirlingForm(Enum):
    """Which approximation of ln N! an entropy formula is built on.

    A form is its remainder r(x) = ln x! - (x ln x - x): 0 for TWO_TERM,
    (1/2) ln(2 pi x) for THREE_TERM, and the exact remainder for EXACT.
    TWO_TERM is the thermodynamic workhorse: it makes the corrected-count
    entropy exactly extensive, so "no entropy change" statements come out
    as an exact zero instead of a small residual.  EXACT uses the
    log-gamma function and exposes the finite-size residuals the two-term
    form suppresses.  Entropy changes are built on the remainders, so no
    change subtracts two entropies of order N ln N.
    """

    TWO_TERM = "two-term"
    THREE_TERM = "three-term"
    EXACT = "exact"

    def log_factorial(self, n: float) -> float:
        """ln n! under this form, for real n >= 0.

        Occupation numbers in entropy formulas are generally not integers,
        so this accepts any nonnegative real.  n == 0 returns 0 (the
        factorial limit) under every form; the Stirling expressions are
        poor for small nonzero n, which is the form's own failure mode
        rather than this function's.  An n or an ln n! beyond the float
        range is a DomainError.  The value is ``_log_factorials`` at n.
        """
        x = _check.finite("n", n)
        if x < 0.0:
            raise DomainError(f"log_factorial needs n >= 0, got {n!r}")
        (value,) = self._log_factorials((x,))
        if value == _INF:
            raise DomainError(f"ln n! overflows a float at n = {x:.6g}")
        return value

    def _log_factorials(self, xs: Sequence[float]) -> list[float]:
        """ln x! under this form for a column of finite reals x >= 0.

        The one definition of ln n! in the package: one comprehension per
        form, 0 at x == 0 under every form, and inf where ln x! leaves the
        float range.  Callers check the column; nothing here does.
        """
        log = math.log
        if self is StirlingForm.TWO_TERM:
            return [x * log(x) - x if x else 0.0 for x in xs]
        if self is StirlingForm.THREE_TERM:
            return [
                (x * log(x) - x) + 0.5 * log(_TWO_PI * x) if x else 0.0 for x in xs
            ]
        lgamma = math.lgamma  # EXACT: lgamma(1.0) is 0.0
        try:
            return [lgamma(x + 1.0) for x in xs]
        except OverflowError:  # lgamma raises where the Stirling forms give inf
            if len(xs) == 1:
                return [_INF]
            return [self._log_factorials((x,))[0] for x in xs]

    def _remainders(self, xs: Sequence[float]) -> list[float]:
        """r(x) = ln x! - (x ln x - x) under this form, for a column of
        finite floats x >= 0; 0 at x == 0 under every form.

        EXACT takes lgamma's remainder up to x = 15 and Loader's stirlerr
        series plus (1/2) ln(2 pi x) above (C. Loader, "Fast and Accurate
        Computation of Binomial Probabilities", 2000), so no term of order
        x ln x is formed.  Callers check the column; nothing here does.
        """
        if self is StirlingForm.TWO_TERM:
            return [0.0] * len(xs)
        log = math.log
        if self is StirlingForm.THREE_TERM:  # as in _log_factorials
            return [0.5 * log(_TWO_PI * x) if x else 0.0 for x in xs]
        lgamma = math.lgamma
        return [
            (_S0 - (u := 1.0 / (x * x)) * (_S1 - u * (_S2 - u * (_S3 - u * _S4)))) / x
            + (_HALF_LN_2PI + 0.5 * log(x))
            if x > 15.0
            else (lgamma(x + 1.0) - (x * log(x) - x) if x else 0.0)
            for x in xs
        ]


def _log_multinomial(ns: Sequence[int], form: StirlingForm) -> float:
    """ln(N! / prod n_i!) under ``form`` for integers n_i >= 0, 0 < N = sum(ns)
    within the float range.

    sum n_i ln(N / n_i) + r(N) - sum r(n_i), with r the form's remainder,
    so no two terms of order N ln N are subtracted.  A count above N/2
    takes its term as -n_i log1p(-(N - n_i) / N), with N - n_i exact in
    integers.  One fsum: the order of ns changes no bit.
    """
    N = sum(ns)
    log, log1p = math.log, math.log1p
    r_N, *rs = form._remainders([float(n) for n in (N, *ns)])
    terms = [-n * log1p((n - N) / N) if n + n > N else n * log(N / n) for n in ns if n]
    return _check.fsum(terms + [r_N] + [-r for r in rs], _INF)


class CountingModel(Enum):
    """How microstates are counted when turning occupations into entropy."""

    DISTINGUISHABLE = "distinguishable"
    GIBBS_CORRECTED = "gibbs-corrected"
    BOSE_APPROXIMATE = "bose-approximate"


@dataclass(frozen=True)
class EntropyResult:
    """Entropy in units of k_B, tagged with how it was counted."""

    S: float
    per_particle: float
    model: CountingModel
    stirling_form: StirlingForm


def _entropy_result(
    S: float, N: int, model: CountingModel, stirling_form: StirlingForm
) -> EntropyResult:
    """The one way an EntropyResult is made: S must be a finite float."""
    if not math.isfinite(S):
        raise DomainError(f"entropy overflows a float at N = {N:.6g} particles")
    return EntropyResult(
        S=S, per_particle=S / N, model=model, stirling_form=stirling_form
    )


def _ideal_gas_S(
    n: float,
    V: float,
    T: float,
    model: CountingModel,
    stirling_form: StirlingForm,
    constant: float,
) -> float:
    """Ideal-gas entropy S = n ln V + (3/2) n ln T + C of n particles in V,
    minus ln n! under the chosen form for the corrected models.

    Where ln n! leaves the float range, S is -inf or NaN, which the
    callers' result checks reject.
    """
    S = n * math.log(V) + 1.5 * n * math.log(T) + constant
    if model is CountingModel.DISTINGUISHABLE:
        return S
    return S - stirling_form._log_factorials((n,))[0]


# Each class's public home, set only now: while it decorates a class,
# dataclasses reads sys.modules[cls.__module__], and the home may not be
# loaded yet (an AttributeError on 3.11)
StirlingForm.__module__ = f"{__package__}.combinatorics"
CountingModel.__module__ = EntropyResult.__module__ = f"{__package__}.statmech"
# 3.13's __firstlineno__ counts lines of this file, but inspect.getsource
# reads them in the public home's; without it getsource raises OSError
for _cls in (StirlingForm, CountingModel, EntropyResult):
    if "__firstlineno__" in _cls.__dict__:
        delattr(_cls, "__firstlineno__")
del _cls
