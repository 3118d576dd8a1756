"""EntropyResult, the record that statmech's and mixing's entropies return.

It lives apart from both, so that ``mixing`` loads it without ``statmech``,
and apart from ``_forms``, so that the CLI's scenario path, which reports
plain numbers, loads no ``dataclasses``.  It names ``statmech``, its
public home, as its ``__module__``.  Every entropy it carries has passed
``_forms._entropy``.
"""

from dataclasses import dataclass

from ._forms import CountingModel, StirlingForm, _publish


@dataclass(frozen=True)
class EntropyResult:
    """Entropy in units of k_B, tagged with how it was counted."""

    S: float
    per_particle: float
    model: CountingModel
    stirling_form: StirlingForm


_publish(CountingModel.__module__, EntropyResult)  # the statmech name string
