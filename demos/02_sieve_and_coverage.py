"""
Sieving congruence classes and measuring exact coverage
=======================================================

The sieve walks even moduli in ascending order.  For every class b*k - c
it builds the symbolic trajectory and certifies the class if either some
element is pointwise below the anchor (a drop) or some element already
occurs in the trajectory of an earlier, pointwise-smaller class (a join).
Certified classes are accumulated in a coverage ledger that keeps the
covered integers as a reduced decision diagram over the digits of x
(x mod 3, x mod 9, ... before the bits of x), whose paths are disjoint
residue classes; the exact rational density is the measure of its root.
"""

from collatz_sieve import (
    CertKind,
    SearchConfig,
    delta_report,
    format_percent,
    run_search,
)

summary = run_search(SearchConfig(max_modulus=64))

print("first certificates:")
for rec in summary.records[:8]:
    b, c = rec.pattern
    if rec.kind is CertKind.DROP:
        print(f"  {b}k-{c}: drops below its anchor at element {rec.stop_index}")
    else:
        jb, jc = rec.joined_class
        print(f"  {b}k-{c}: element {rec.stop_index} is element "
              f"{rec.join_index} of {jb}k-{jc}")

print("\ncoverage after each modulus:")
for modulus, density in summary.checkpoints:
    print(f"  through {modulus:3d}: {str(density):>10} = {format_percent(density)}")

# Density gains concentrate at powers of two, with occasional help from
# the mixed 2^t*3^s moduli in between.
rep = delta_report(summary.checkpoints)
print("\ngain at each power of two:")
for t, gain in rep.power_rows:
    print(f"  2^{t:<2}: {format_percent(gain)}")
print("gain between consecutive powers:")
for t, gain in rep.between_rows:
    print(f"  2^{t} .. 2^{t+1}: {format_percent(gain)}")

print(f"\nexamined {summary.examined} classes, certified {summary.success_count}")
print(f"lcm of the stored moduli: {summary.lcm_stored_moduli}")
