"""The operator method, mechanized: differentiating a terminating identity
with respect to a parameter by lifting it to a second-order jet.

A jet carries (f, f', f'') through every +,*,/,^ exactly, so evaluating both
sides of an identity with a lifted parameter proves the differentiated
identity at that point: d1 components give the first-derivative identity
(harmonic-number weights appear automatically), d2 components the second.

Run:  python demos/operator_method.py
"""

from fractions import Fraction as F

from hyperq import get_identity, jet_lift, sum_terminating
from hyperq.series import RationalContext, evaluate_expr
from hyperq.verify import VerifyOptions, operator_derive_check, verify_identity


def gosper_by_hand():
    """Lift b on Gosper's summation with c = 2 - b and compare all jet parts."""
    rec = get_identity("GOS")
    ctx = RationalContext()  # the jet travels in env; constants stay plain
    env = {"a": F(3, 2), "n": 3, "b": jet_lift(F(1))}
    env["c"] = 2 - env["b"]  # substitution rides along with the jet
    lhs = sum_terminating(rec.lhs, env, ctx)
    rhs = evaluate_expr(rec.rhs.expr, env, ctx)
    print("Gosper's sum, c = 2-b, b lifted at 1, n = 3")
    print(f"  value: {lhs.value} == {rhs.value}: {lhs.value == rhs.value}")
    print(f"  d/db:  {lhs.d1} == {rhs.d1}: {lhs.d1 == rhs.d1}")
    print(f"  d2/db2: {lhs.d2} == {rhs.d2}: {lhs.d2 == rhs.d2}")
    print("  (both first derivatives vanish at b = 1; the harmonic-weight")
    print("   content of this specialization lives in the second derivative)")
    print()


def harness_checks():
    options = VerifyOptions(seed=1, max_n=6, samples=10)
    print("sampled second-derivative checks (exact jet equality):")
    print(" ", operator_derive_check("GOS", "b", 2, bindings={"c": "2-b"},
                                     options=options).text_line())
    print(" ", operator_derive_check("QB", "b", 2, bindings={"c": "q^4/b"},
                                     options=options).text_line())
    print()
    print("the explicit harmonic-weight forms of those derivatives are corpus")
    print("records of their own (GOS-D1, GOS-D2, QB-D2, OMEGA-D, UV-D).")
    print()


def divided_difference():
    print("divided-difference relation used to clear 1/(1-2x) factors (record REL):")
    print(" ", verify_identity("REL", VerifyOptions(seed=1)).text_line())


if __name__ == "__main__":
    gosper_by_hand()
    harness_checks()
    divided_difference()
