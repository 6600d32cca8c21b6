"""Tests of the benchmark's own code import the library from ``src/``."""

from stackbench import use_repro_from_source

use_repro_from_source()
