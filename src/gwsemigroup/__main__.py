"""``python -m gwsemigroup ...`` runs the command-line interface."""

from .cli import run

run()
