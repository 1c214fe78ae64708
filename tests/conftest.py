"""Oracles that several test modules share."""

import numpy as np
import pytest

from qrevival.spectrum import profile_overlaps


def _gram_matrix(states):
    """Gram matrix of overlaps between the given states.

    Opposite-parity entries vanish identically by symmetry of the integrand
    and are exact zeros.  Same-parity entries come from the closed-form
    overlap of the computed roots, whose off-diagonal terms cancel only at
    true roots, so the matrix checks the spectrum.
    """
    alpha, beta, even, norm = states.alpha, states.beta, states.even, states.norm
    overlaps = profile_overlaps(alpha[:, None], beta[:, None], alpha[None, :],
                                beta[None, :], even[:, None])
    same = even[:, None] == even[None, :]
    return np.where(same, norm[:, None] * norm[None, :] * overlaps, 0.0)


@pytest.fixture(scope="session")
def gram_matrix():
    """The Gram oracle: a spectrum's states to their matrix of overlaps."""
    return _gram_matrix
