"""
Checkpointed searches: stop anywhere, resume bit-for-bit
========================================================

Long runs keep a checkpoint journal: a header line, then one appended line
per modulus with the records it added, its density, the class counts and
the registry digest.  Resuming replays the search itself, which derives
every record again, checks each journal line, byte for byte, against the
line the search writes at that modulus, and appends from there; a last
line torn by a kill is dropped first.  The results CSV is a view of the
records, written once the search finishes, so a resumed run writes it
whole.  It and the journal are byte-identical to those of an
uninterrupted run, and the demo exits with status 1 if either is not.
`report` and `coverage` read a journal through the same replay.
"""

import filecmp
import sys
import tempfile
from pathlib import Path

from collatz_sieve.cli import main

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    full_csv, full_cp = tmp / "full.csv", tmp / "full.json"
    part_csv, part_cp = tmp / "part.csv", tmp / "part.json"

    print("uninterrupted run to modulus 256:")
    main(["search", "--max-modulus", "256",
          "--out", str(full_csv), "--checkpoint", str(full_cp)])

    print("\nthe same search stopped at 128...")
    main(["search", "--max-modulus", "128",
          "--out", str(part_csv), "--checkpoint", str(part_cp)])
    print("\n...and resumed to 256:")
    main(["search", "--max-modulus", "256", "--resume",
          "--out", str(part_csv), "--checkpoint", str(part_cp)])

    csv_same = filecmp.cmp(full_csv, part_csv, shallow=False)
    journal_same = filecmp.cmp(full_cp, part_cp, shallow=False)
    print("\nresults CSV identical:", csv_same)
    print("journals identical:", journal_same)

    print("\nbrute-force spot check of one certificate from the run:")
    main(["verify", "18", "5", "--k", "1000", "--checkpoint", str(part_cp)])

sys.exit(0 if csv_same and journal_same else 1)
