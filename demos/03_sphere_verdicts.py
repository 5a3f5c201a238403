"""Walkthrough: bounding q_{2n} and deciding rational homology 4-spheres.

q_{2n}(G) is the smallest value of (-1)^n chi(M) over closed orientable
2n-manifolds with (n-1)-connected universal cover and fundamental group
G.  A finite group is the fundamental group of a rational homology
4-sphere exactly when q_4(G) = 2; the assembled interval often decides
this outright.
"""

from eulerchar import Quaternion, parse_spec, q_bound_report


def show(qb):
    upper = "?" if qb.upper is None else qb.upper
    exact = f" exact={qb.exact}" if qb.exact is not None else ""
    print(f"  q_{2*qb.n}({qb.spec}) in [{qb.lower}, {upper}]{exact}  -> {qb.verdict.kind.value}")
    if qb.annotations:
        print(f"      annotation: q4({qb.annotations['name']}) = {qb.annotations['q4']}")


print("== abelian groups: rank at most three ==")
for k in range(1, 6):
    show(q_bound_report(parse_spec(f"E(3,{k})"), 2))
print("Rank four and above is obstructed: the lower bound passes 2.")
print()

print("== nonabelian examples ==")
print("Isotypic (Z/5)^k x| Z/4 (squared action fixed point free):")
for k in (2, 4, 5, 6):
    show(q_bound_report(parse_spec(f"U(5,{k},1,4)"), 2))
print("Isotypic (Z/5)^k x| Z/2 (eigenvalue of order two): obstructed from k = 2 on.")
for k in (2, 3):
    show(q_bound_report(parse_spec(f"U(5,{k},1,2)"), 2))
print()

print("== the J_k family realizes arbitrarily high rank ==")
for k in (2, 3, 5, 8):
    show(q_bound_report(parse_spec(f"J({k})"), 2))
print("J(2) = A4 is the exception: its interval is [3, 4], and the")
print("annotation table records the known exact value 4.")
print()

print("== periodic groups: exact values in every dimension ==")
c5 = parse_spec("C(5)")  # period 2, read off the group
q8 = Quaternion(8).with_meta(exceptional=False)  # period 4
for n in (2, 3):
    show(q_bound_report(c5, n))
    show(q_bound_report(q8, n))
print()
print("Periods dividing n+2 force q = 2; periods dividing n+1 force q = 0.")
print()

print("== higher dimensions ==")
show(q_bound_report(parse_spec("E(3,3)"), 4))
print("No rational homology 8-sphere has fundamental group (Z/3)^3.")
