"""Independent cross-checks of the package's closed forms, and the helpers
that only tests call.

Each module mirrors the package module whose facts it checks and keeps the
names those definitions had there.  A method that only tests called
became a function of the object it took (curve.subtract, series.inverse,
linalg.rank, ...).  Nothing in src/ imports them: the commands read the
closed forms, and the tests compare the two.
"""
