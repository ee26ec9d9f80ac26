"""The kernel path against granger_reference's plain-numpy oracle.

infer_graph's raw log ratios must match kernel_granger_log_ratios within
1e-10 under each of the five configs of tools/bench_record.py's identity
digest, on every generator at T = 50 (dense eigensolve) and T = 300
(Lanczos). The identity digest says only "unchanged"; this says "right",
to a tolerance a 1e-8 relative error in a log ratio, a dropped
centering term or an off-by-one component count each exceed.
"""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from granger_reference import kernel_granger_log_ratios
from preimage_gc import GENERATOR_IDS, generate, infer_graph

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)
CONFIGS = bench_record.digest_configs()


@pytest.mark.parametrize("T", [50, 300])
@pytest.mark.parametrize("generator", GENERATOR_IDS)
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_raw_log_ratios_match_reference(config_name, generator, T):
    config = CONFIGS[config_name]
    panel = generate(generator, T, 0).panel
    # short-VAR and underdetermined pre-image warnings change no number
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        raw = infer_graph(panel, config).raw_log_ratios
    reference = kernel_granger_log_ratios(panel.values, config)
    np.testing.assert_allclose(raw, reference, rtol=0, atol=1e-10)
