"""Counter-based (Philox-style) random number generation.

cuRAND's default generator on the GPU is Philox4x32-10: a counter-based
generator whose output depends only on ``(key, counter)``.  That property is
what makes per-thread streams cheap — each thread derives a unique key and
never needs to share state.  We reproduce the same contract here with a
simplified two-round Philox-like bijection implemented with numpy's uint64
arithmetic.  The generator is *statistically adequate* for random-walk
sampling (it passes uniformity and independence smoke tests in the test
suite) and, more importantly for the reproduction, it is deterministic,
splittable, and cheap to vectorise.
"""

from __future__ import annotations

import numpy as np

# Multipliers/Weyl constants borrowed from the Philox/SplitMix literature.
# They and the shift counts are 0-d arrays, not NumPy scalars: arithmetic
# with an array operand runs through the ufunc loops, which wrap uint64
# silently (even for a scalar counter) and, on small arrays, cost less per
# operation than converting a scalar operand.
_PHILOX_M0 = np.array(0xD2B74407B1CE6E93, dtype=np.uint64)
_GOLDEN_GAMMA = np.array(0x9E3779B97F4A7C15, dtype=np.uint64)
_MIX_1 = np.array(0xBF58476D1CE4E5B9, dtype=np.uint64)
_MIX_2 = np.array(0x94D049BB133111EB, dtype=np.uint64)
_SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (
    np.array(shift, dtype=np.uint64) for shift in (11, 27, 30, 31)
)

# 2**-53 — converts the top 53 bits of a uint64 into a double in [0, 1).
_U64_TO_UNIT = float(2.0**-53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a high-quality 64-bit bijection."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _MIX_1
        x = (x ^ (x >> np.uint64(27))) * _MIX_2
        x = x ^ (x >> np.uint64(31))
    return x


def premix_key(key: int | np.ndarray) -> np.ndarray:
    """The per-key half of :func:`philox_uniform`, computed once per stream.

    ``philox_uniform_premixed(premix_key(k), c) == philox_uniform(k, c)``
    bit for bit; stream pools store the premixed key when a stream is minted
    so every later draw skips the key finalizer.
    """
    return _mix64(np.asarray(key, dtype=np.uint64))


def philox_uniform_premixed(mixed_key: np.ndarray, counter: int | np.ndarray) -> np.ndarray:
    """:func:`philox_uniform` for keys already passed through :func:`premix_key`.

    The multiply-mix round updates one buffer of the broadcast shape in
    place; only the shifts allocate a temporary.  Every operation has a 0-d
    array operand, so none warns on the intended uint64 wrap-around.
    """
    x = np.asarray(counter, dtype=np.uint64) + _GOLDEN_GAMMA
    x *= _PHILOX_M0
    x = np.bitwise_xor(x, mixed_key)
    x ^= x >> _SHIFT_30
    x *= _MIX_1
    x ^= x >> _SHIFT_27
    x *= _MIX_2
    x ^= x >> _SHIFT_31
    x >>= _SHIFT_11
    out = x.astype(np.float64)
    out *= _U64_TO_UNIT
    return out


def philox_uniform(key: int | np.ndarray, counter: int | np.ndarray) -> np.ndarray:
    """Return uniform(0, 1) doubles for the given key/counter pairs.

    Both arguments broadcast against each other, so a single key with a
    vector of counters produces one independent stream, and a vector of keys
    with a scalar counter produces one draw per stream.
    """
    return philox_uniform_premixed(premix_key(key), counter)


def derive_child_keys(parent_key: int | np.uint64, indices: np.ndarray) -> np.ndarray:
    """Child keys of :meth:`PhiloxEngine.split`, for many indices at once.

    ``derive_child_keys(engine.key, [i])[0] == engine.split(i).key`` — the
    stream pool uses this to mint thousands of per-walker streams in one
    vectorised expression instead of one ``split`` call each.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(np.uint64(parent_key) + (idx + np.uint64(1)) * _GOLDEN_GAMMA)


class PhiloxEngine:
    """A counter-based generator with an explicit key and running counter.

    Parameters
    ----------
    seed:
        Base seed.  Two engines created with the same seed generate the same
        sequence of draws.
    stream:
        Stream index.  Engines with the same seed but different streams are
        statistically independent (the stream participates in the key).
    """

    __slots__ = ("_key", "_mixed_key", "_counter")

    def __init__(self, seed: int, stream: int = 0) -> None:
        with np.errstate(over="ignore"):
            key = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)) + np.uint64(stream) * _GOLDEN_GAMMA
        self._key = np.uint64(key)
        self._mixed_key = premix_key(self._key)
        self._counter = np.uint64(0)

    @classmethod
    def from_key(cls, key: int | np.uint64) -> PhiloxEngine:
        """A fresh engine (counter 0) over an already-derived stream key."""
        engine = cls.__new__(cls)
        engine._key = np.uint64(key)
        engine._mixed_key = premix_key(engine._key)
        engine._counter = np.uint64(0)
        return engine

    @property
    def counter(self) -> int:
        """Number of 64-bit outputs consumed so far."""
        return int(self._counter)

    @property
    def key(self) -> np.uint64:
        """The stream key (exposed so batched draws can be vectorised)."""
        return self._key

    def reserve(self, n: int) -> np.uint64:
        """Advance the counter by ``n`` draws and return its previous value.

        This is the primitive behind cross-stream vectorised generation: a
        caller that knows ``(key, start_counter)`` can reproduce the exact
        values ``uniform(n)`` would have returned, for many engines at once,
        with a single :func:`philox_uniform` call.
        """
        start = self._counter
        with np.errstate(over="ignore"):
            self._counter += np.uint64(n)
        return start

    def split(self, index: int) -> PhiloxEngine:
        """Derive an independent child engine (cheap stream splitting)."""
        with np.errstate(over="ignore"):
            return PhiloxEngine.from_key(
                _mix64(self._key + np.uint64(index + 1) * _GOLDEN_GAMMA)
            )

    def uniform(self, size: int | tuple[int, ...] | None = None) -> np.ndarray | float:
        """Draw uniform(0, 1) doubles, advancing the counter."""
        if size is None:
            value = philox_uniform_premixed(self._mixed_key, self._counter)
            with np.errstate(over="ignore"):
                self._counter += np.uint64(1)
            return float(value)
        n = size if isinstance(size, int) else int(np.prod(size))
        counters = self._counter + np.arange(n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            self._counter += np.uint64(n)
        values = philox_uniform_premixed(self._mixed_key, counters)
        return values if isinstance(size, int) else values.reshape(size)

    def integers(self, low: int, high: int, size: int | None = None) -> np.ndarray | int:
        """Draw integers uniformly from ``[low, high)``."""
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        span = high - low
        u = self.uniform(size)
        if size is None:
            return low + int(u * span)
        return (low + np.floor(np.asarray(u) * span)).astype(np.int64)

    def exponential(self, size: int | None = None) -> np.ndarray | float:
        """Draw standard exponential variates (used by the eRVS jump)."""
        u = self.uniform(size)
        if size is None:
            return -float(np.log1p(-u))
        return -np.log1p(-np.asarray(u))
