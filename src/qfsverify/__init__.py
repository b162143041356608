"""Noisy quantum Fourier sampling workbench.

Simulates the noisy Fourier-sampling circuit classically, rectifies its
errors, learns parities agnostically, and runs the one-round
verifier-prover protocol with Monte Carlo validation at desk scale.
"""
import contextlib
import ctypes

from .bits import CapacityError, format_bits, parse_bits
from .boolfn import (BooleanFunction, FourierSpectrum, GenerationError, gen_ftau,
                     read_function, write_function)
from .harness import ExperimentConfig, TrialRecord, derive_seed, run_experiment, wilson_interval
from .noise import BitFlipNoise, BlockFlipNoise, DepolarizingNoise, eta_eff, make_channel
from .oracles import ExampleBatch, draw_examples, draw_p0, sample_batch
from .protocol import (Accepted, Rejected, SampleBatch, SampleRequest, Transcript,
                       VerifierParams, honest_prover, make_prover, protocol_trial,
                       read_transcript, replay_transcript, verifier_run,
                       write_transcript)
from .rectify import heavy_set, list_cap, rectify, required_samples
from .spectral import (SparseEstimate, estimate_coeffs, examples_needed,
                       learn_parity, regret, sparse_estimate)

__version__ = "0.1.0"


def _pin_heap_thresholds() -> None:
    # glibc lifts its 128 KiB mmap/trim thresholds only after a large free; fixed
    # at 4/8 MiB, a wire_replay op takes ~2 minor page faults rather than ~2,000.
    with contextlib.suppress(AttributeError, OSError, TypeError):  # no glibc mallopt
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


_pin_heap_thresholds()
