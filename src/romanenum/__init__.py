"""Enumeration of minimal Roman domination functions and variants.

The package root binds no names: import them from the submodules
(`romanenum.graphs`, `romanenum.roman`, `romanenum.fixed_two`, ...).
"""
