"""Deliberate-violation fixtures for the repro_analyzer contract passes.

Each ``*_bad.py`` module contains exactly one violation per ALEX-C rule it
exercises (anchored at known line/column positions the tests pin) and each
``*_clean.py`` twin shows the compliant spelling of the same code. The
test module points the analyzer at this package with an
:class:`repro_analyzer.AnalyzerConfig` whose boundaries/owners name these
files, so the fixtures never depend on the real repro package. The
``naming_*`` twins do the same for the repo naming rule R007.
"""
