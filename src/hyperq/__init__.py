"""hyperq: exact and high-precision verification of hypergeometric and
q-series identities.

The package evaluates terminating identities exactly over rationals,
infinite identities to a requested digit count with validated geometric
tail bounds, and mechanizes parameter differentiation through second-order
jet arithmetic, so each identity in the built-in corpus is confirmed or
refuted by computation.
"""

from .corpus import IdentityRecord, get_identity, list_identities, load_corpus
from .dsl import ClosedForm, ParseError, SeriesSpec, parse_closed_form, parse_series_spec, render
from .functions import (
    pi_constant,
    q_integer,
    q_pochhammer_infinite,
    q_sum_infinite,
    sqrt_constant,
)
from .scalars import (
    HighPrecision,
    Jet2,
    RegimeMismatchError,
    Scalar,
    agree_to,
    jet_lift,
    to_precision,
)
from .series import (
    NonGeometricTailError,
    PoleInTermError,
    TailBound,
    evaluate_closed,
    sum_infinite,
    sum_terminating,
)
from .verify import (
    VerificationReport,
    VerifyOptions,
    operator_derive_check,
    perturb_rhs,
    verify_all,
    verify_identity,
)

__version__ = "0.1.0"
