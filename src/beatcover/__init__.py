"""Coverage-based evaluation of beat trackers.

Classic beat-tracking scores either demand the annotated metric level
(continuity metrics) or allow one alternative level for a whole piece.
This package measures, beat by beat, which of ten metric-level
conditions an estimate satisfies, aggregates that into coverage ratios
and a level-switch ratio, and ships the surrounding tooling: baseline
metrics, two post-processing trackers, a scenario synthesizer, JSON
batch reports, and SVG rendering.

The package exports exactly the public names of its modules: each
module's ``__all__`` is the one place that declares them.
"""

from . import core, fileio, matching, metrics, report, synth, trackers, variants, viz
from .core import *
from .fileio import *
from .matching import *
from .metrics import *
from .report import *
from .synth import *
from .trackers import *
from .variants import *
from .viz import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += core.__all__
__all__ += fileio.__all__
__all__ += matching.__all__
__all__ += metrics.__all__
__all__ += report.__all__
__all__ += synth.__all__
__all__ += trackers.__all__
__all__ += variants.__all__
__all__ += viz.__all__
