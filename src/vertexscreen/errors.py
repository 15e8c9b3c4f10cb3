"""The one base class of the errors a bad input raises.

A datum, grading, level or command-line argument the engine cannot work
with raises a subclass of InputError; the command line reports each as a
usage or input error (exit code 2) and any other exception as an
internal error (exit code 3).
"""


class InputError(Exception):
    pass
