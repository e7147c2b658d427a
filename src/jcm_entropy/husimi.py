"""Husimi Q-function on the sphere and the Wehrl entropy's two oracle routes.

For a qubit the Q-function against spin coherent states
|theta, phi> = cos(theta/2)|e> + sin(theta/2) e^{i phi}|g>
is simply (1 + beta)/(4 pi) with beta the projection of the Bloch vector
onto the direction (theta, phi).  Integrating -Q ln Q over the sphere by
direct quadrature gives the Wehrl entropy with no reference to the closed
form or the series, which is what makes it a usable oracle.

Quadrature: Gauss-Legendre in mu = cos(theta) (absorbing the sin(theta)
measure) tensored with a uniform periodic rule in phi.  The Gauss-Legendre
rule is built here, by Newton's method on the Legendre recurrence, not by
``numpy.polynomial``, whose import a one-shot run would pay for.  Against
40-digit ``mpmath`` rules its weights are within 1e-12 (relative) up to
order 256, where ``leggauss``'s are up to 2.1e-11 off.

``wehrl_entropy_quadrature`` takes a Bloch vector with scalar or 1-D
array fields.  Since Q is linear in the Bloch vector,
:class:`SphereQuadrature` builds once a (4, nodes) basis of the node
geometry and the weight of each node, the Gauss-Legendre weight times the
phi weight.  A block of points, stacked as rows [1, sz, sx, sy], gets its
Q at every node as one matrix product with the basis, and each point's
sum as one product of its Q ln Q with the weights.  Points are taken
``QUAD_ELEMENTS`` nodes at a time (4 points at 64x128), every block padded
to the same shape, so each point's value is that of a scalar call, bit for
bit; a scalar call pays for one block.  A call of four blocks or more is
cut into two contiguous shares of whole blocks, the second on a thread of
its own, and any other call is one share, on the calling thread.  The cut
depends on the call's size alone, not on the host; on one CPU the two
shares take turns.  Each share holds its own Q and Q ln Q buffers
(512 KiB at 64x128), so the two shares bound the memory, and no value
depends on the cut.  Q ln Q is taken unchecked as log(Q) * Q; a block
with a point whose value comes out non-finite is taken again by the
checked path, which raises where any node's Q falls below ``Q_FLOOR`` (a
NaN elsewhere in the block hides none) and otherwise clamps Q at 0 with
0 ln 0 = 0.  The oracle stays independent of the other routes: Q is
evaluated from (sx, sy, sz) at every node for every point, with no use of
rotational symmetry, of eta, or of the closed form or the series, and the
module imports nothing from the package but ``errors``.

Tolerance: at the default 64x128 nodes the quadrature is within
``QUAD_ERROR`` (1e-13) of the closed form up to eta = ``QUAD_ETA_SPLIT``
(0.99), and within ``QUAD_ERROR_NEAR_PURE`` (1e-7) on all of [0, 1].  Q ln Q
is not smooth where Q nears 0, at the antipode of a Bloch vector of length
near 1, so the error grows toward eta = 1: over the poles, x and 200 random
directions it is at most 4.8e-14 at eta = 0.99, 1.8e-9 at 0.999 and
3.8e-8 at 1 (4.4e-8 over 20000 directions), and 3.1e-15, 1.2e-12 and
2.3e-9 at 128x256.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _check_quad_orders, _item, _refuse

FOUR_PI = 4.0 * math.pi
Q_FLOOR = -1e-12  # Q below this at a node: the Bloch vector is outside the ball
QUAD_ETA_SPLIT = 0.99
QUAD_ERROR = 1e-13           # stated error at 64x128 nodes, up to eta = QUAD_ETA_SPLIT
QUAD_ERROR_NEAR_PURE = 1e-7  # stated error at 64x128 nodes, above it

# Quadrature nodes per block of points.  It bounds each block's temporaries
# (Q and Q ln Q, 256 KiB each); a point whose nodes exceed this is still
# taken whole.
QUAD_ELEMENTS = 2 ** 15


def _legendre(order: int, x: np.ndarray):
    """P_order(x) and its derivative, by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, order + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, order * (x * p1 - p0) / (x * x - 1.0)


@functools.cache
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], built once
    per order and shared, so read-only.

    Newton's method on ``_legendre`` from Tricomi's estimates of the roots
    runs until its largest step stops halving, which it does at rounding
    level; the weights are 2 / ((1 - x^2) P'(x)^2).  Both are then
    symmetrized as ``leggauss`` does, so the rule is an exact mirror image.
    Against 40-digit ``mpmath`` rules the nodes are within 2e-16 and the
    weights within 9.3e-14, 3.4e-13 and 6.9e-13 (relative) at orders 64,
    128 and 256.
    """
    x = -np.cos(math.pi * (np.arange(order) + 0.75) / (order + 0.5))
    last = math.inf
    while True:
        p, dp = _legendre(order, x)
        step = p / dp
        x -= step
        size = float(np.max(np.abs(step)))
        if size == 0.0 or size > last / 2:
            break
        last = size
    dp = _legendre(order, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    rule = (x - x[::-1]) / 2, (w + w[::-1]) / 2
    for a in rule:
        a.flags.writeable = False
    return rule


@dataclass(frozen=True)
class SphereQuadrature:
    """The product rule at ``theta_order`` x ``phi_order`` nodes; a rule
    equals and hashes as its two orders."""

    theta_order: int
    phi_order: int
    # (4, theta_order * phi_order): Q at node (i, j), column i * phi_order + j,
    # is [1, sz, sx, sy] @ basis
    basis: np.ndarray = field(init=False, repr=False, compare=False)
    # (theta_order * phi_order,): node (i, j)'s Gauss-Legendre weight times
    # the phi weight 2 pi / phi_order
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_quad_orders(self.theta_order, self.phi_order)
        mu, w = _gauss_legendre(self.theta_order)
        phi = 2.0 * math.pi * np.arange(self.phi_order) / self.phi_order
        sin_theta = np.sqrt(1.0 - mu ** 2)[:, None]
        basis = np.stack([np.broadcast_to(row, (self.theta_order, self.phi_order))
                          for row in (1.0, mu[:, None], sin_theta * np.cos(phi),
                                      sin_theta * np.sin(phi))])
        object.__setattr__(self, "basis", basis.reshape(4, -1) / FOUR_PI)
        object.__setattr__(self, "weights", np.repeat(
            w * (2.0 * math.pi / self.phi_order), self.phi_order))


def wehrl_entropy_quadrature(bloch, quad: SphereQuadrature):
    """Wehrl entropy -integral Q ln Q by direct spherical quadrature.

    ``bloch`` is any object with ``sx``, ``sy`` and ``sz``, such as a
    ``BlochVector``; its radius is not read.  The components are scalars or
    equal-length 1-D arrays; scalars give a Python float.  The points are
    stacked as rows [1, sz, sx, sy] and taken ``rows`` at a time, in blocks
    of one shape: the last, and a lone point, are padded with zero Bloch
    vectors (Q = 1/(4 pi) > 0).  The calling thread takes the points
    ``[0, cut)``.  In a call of four blocks or more, ``cut`` follows the
    first half of the blocks, rounded down, and a thread of its own takes
    the rest, joined before the call returns or raises; in any other call
    ``cut`` is the end.  The first failing share's error is raised; its ``index`` counts
    from the call's first point, so it is the first failing point of the
    call.

    A share takes Q and Q ln Q in buffers of its own, with floating-point
    warnings off.  Q ln Q is taken as ``log(Q) * Q``, and each point's sum
    as one stacked product of its row with ``quad.weights``; a flat product
    of the block with the weights would round a point's sum by the block's
    row count.  A block with a point whose value comes out non-finite (a
    node at or below 0, or a non-finite input) is taken again by the
    checked pass: it refuses any row with a node below ``Q_FLOOR``, then
    clamps Q at 0 and takes the log only where Q > 0, into a zeroed
    buffer, times Q.  That gives the unchecked bits wherever Q > 0, so
    every value is the checked pass's.
    """
    sx, sy, sz = np.broadcast_arrays(*(np.asarray(c, dtype=float)
                                       for c in (bloch.sx, bloch.sy, bloch.sz)))
    shape = sz.shape
    nodes = quad.weights.size
    rows = max(1, QUAD_ELEMENTS // nodes)
    blocks = -(-sz.size // rows)
    end = blocks * rows
    coords = np.zeros((end, 4))
    coords[:, 0] = 1.0
    for k, c in enumerate((sz, sx, sy), start=1):
        coords[:sz.size, k] = c.reshape(-1)
    out = np.empty(end)
    cut = blocks // 2 * rows if blocks >= 4 else end
    failed = {}  # a share's first point -> its error, raised by the caller

    def share(lo: int, hi: int) -> None:
        """``out[i]``, the quadrature sum for the point ``coords[i]``, for
        the whole blocks in ``[lo, hi)``."""
        try:
            q = np.empty((rows, nodes))
            q_log_q = np.empty_like(q)
            with np.errstate(all="ignore"):
                for b in range(lo, hi, rows):
                    np.matmul(coords[b:b + rows], quad.basis, out=q)
                    np.log(q, out=q_log_q)
                    q_log_q *= q
                    np.matmul(q_log_q.reshape(rows, 1, nodes), quad.weights,
                              out=out[b:b + rows].reshape(rows, 1))
                # the blocks with a non-finite value; a share spans whole blocks
                redo = np.flatnonzero(~np.isfinite(out[lo:hi]).reshape(-1, rows).all(axis=1))
                for b in (lo + redo * rows).tolist():
                    np.matmul(coords[b:b + rows], quad.basis, out=q)
                    try:  # node by node, so a NaN elsewhere in the block hides none
                        _refuse((q < Q_FLOOR).any(axis=1), lambda: "negative Q density "
                                "at a node: Bloch vector outside the unit ball")
                    except DomainError as exc:  # its index is a row of the block
                        exc.index += b
                        raise
                    np.maximum(q, 0.0, out=q)
                    q_log_q.fill(0.0)  # 0 ln 0 = 0
                    np.log(q, out=q_log_q, where=q > 0.0)
                    q_log_q *= q
                    np.matmul(q_log_q.reshape(rows, 1, nodes), quad.weights,
                              out=out[b:b + rows].reshape(rows, 1))
        except Exception as exc:
            failed[lo] = exc

    if cut < end:
        thread = threading.Thread(target=share, args=(cut, end))
        thread.start()
    try:
        share(0, cut)
    finally:
        if cut < end:
            thread.join()
    if failed:
        raise failed[min(failed)]
    return _item(-out[:sz.size].reshape(shape))
