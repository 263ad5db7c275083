"""Cellular-automaton keystream generators: build them, measure them, break them.

The package simulates elementary (and radius-2) cellular automata on rings,
implements the rule equivalences and Walsh-spectrum machinery used to rank
all 256 elementary rules for keystream quality, runs the classic XOR stream
cipher on tap-cell sequences, recovers keys from observed keystreams of
left-permutive rules, and scores samples against the FIPS 140-2 battery.
"""

__version__ = "0.1.0"
