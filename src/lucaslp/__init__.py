"""Brute-force verification of digit-product congruences mod p.

A sequence S has the Lucas property with a prime p when S(n) is congruent
to the product of S over the base-p digits of n, for every n >= 0. This
package pairs a literal brute-force oracle for that congruence with the
closed-form criteria that predict it for Fibonacci, Lucas, and general
second-order recurrences, and cross-validates the two routes against each
other instead of trusting either one.

The package namespace is the union of its layers' public names: each layer
module lists them in its own `__all__`, republished here unchanged.
"""

from . import cli, identities, lp, modmath, sequences, special
from .modmath import *
from .sequences import *
from .identities import *
from .special import *
from .lp import *
from .cli import *

__version__ = "0.1.0"

__all__ = [
    name
    for layer in (modmath, sequences, identities, special, lp, cli)
    for name in layer.__all__
]
