"""Boolean function complexity toolkit.

Exact Fourier spectra, influence and sensitivity measures, block sensitivity,
query and approximation-degree lower bounds, minimax approximate degree by
LP, and a Fourier-picture simulator for quantum query algorithms.
"""

from .truthtable import (
    TruthTable,
    builtin,
    complement,
    compose,
    iterate,
    permute_variables,
    random_table,
    read_table,
    write_table,
)
from .fourier import FourierSpectrum, inverse_wht, spectral_degree, wht
from .measures import (
    avg_influence,
    avg_sensitivity,
    block_sensitivity,
    max_sensitivity,
    measure_report,
)
from .approxdeg import MultilinearPoly, approx_degree, exact_degree, min_error_at_degree
from .dsl import elaborate, parse

__version__ = "0.1.0"

__all__ = [
    "FourierSpectrum",
    "MultilinearPoly",
    "TruthTable",
    "approx_degree",
    "avg_influence",
    "avg_sensitivity",
    "block_sensitivity",
    "builtin",
    "complement",
    "compose",
    "elaborate",
    "exact_degree",
    "inverse_wht",
    "iterate",
    "max_sensitivity",
    "measure_report",
    "min_error_at_degree",
    "parse",
    "permute_variables",
    "random_table",
    "read_table",
    "spectral_degree",
    "wht",
    "write_table",
    "__version__",
]
