"""Oracles that share no code with the engine."""
