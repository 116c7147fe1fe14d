"""Desk-scale laboratory for affine false-data-injection attacks on a
differential-drive trajectory tracking loop.

The lab couples a unicycle plant, a Kanayama tracking controller, an affine
attack channel on both the observable and command streams, a polynomial
state-monitoring signature function with an online detector, an adversarial
signature estimator, a scalar-function vulnerability checker, and a lock-step
TCP harness with a man-in-the-middle attack proxy. Each name is imported from
its own module (fdia_lab.simloop, fdia_lab.scenarios, ...).
"""

__version__ = "0.1.0"
