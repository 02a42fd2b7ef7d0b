"""Isotope-chain parity-violation metrology: analytic protocol
sensitivities, an exact small-register state-vector oracle, and scan
drivers behind a scenario-file CLI.

The package exports each module's ``__all__``; field rules stay in
:mod:`apvsim.rules`."""

__version__ = "0.1.0"

from .chain import *
from .protocols import *
from .oracle import *
from .scans import *
from .checks import *
from .scenario import *
from .cli import *
