"""The column preprocessing stage pinned to the per-spectrum oracles.

:func:`repro.spectrum.preprocess_batch` runs the three MSAS stages as
masked operations over a batch's flat peak columns.  Hypothesis builds
ragged batches — empty rows, unsorted m/z, charges 1–5, peaks exactly on
the m/z-window and precursor-window edges, intensities tied at the
base-peak threshold and at the top-k cut — and every kept offset, peak
count and the bytes of both peak columns must equal what
:func:`repro.testing.oracles.preprocess_spectrum` gives one spectrum at a
time.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.spectrum import (
    MassSpectrum,
    PreprocessingConfig,
    SpectrumBatch,
    preprocess_batch,
)
from repro.testing import oracles
from repro.units import PROTON_MASS

#: Intensities from a small set, so ties are common; 1.0 is exactly the
#: default 1 % threshold of a 100.0 base peak.
INTENSITIES = (0.25, 0.5, 1.0, 2.0, 2.0, 7.0, 100.0)


@st.composite
def rows(draw, config):
    charge = draw(st.integers(1, 5))
    precursor = draw(st.sampled_from((250.0, 400.5, 612.25, 899.0)))
    neutral = precursor * charge - charge * PROTON_MASS
    tolerance = config.precursor_tolerance_da
    edges = [config.min_mz, config.max_mz]
    for reduced in range(1, charge + 1):
        window = (neutral + reduced * PROTON_MASS) / reduced
        edges += [window, window - tolerance, window + tolerance]
    count = draw(st.integers(0, 14))
    mz = draw(
        st.lists(
            st.one_of(
                st.sampled_from(edges),
                st.floats(min_value=90.0, max_value=1510.0),
            ),
            min_size=count,
            max_size=count,
        )
    )
    intensity = draw(
        st.lists(st.sampled_from(INTENSITIES), min_size=count, max_size=count)
    )
    # The constructor sorts unsorted m/z; a shuffled input exercises it.
    return MassSpectrum(
        f"row-{len(mz)}", precursor, charge, np.array(mz), np.array(intensity)
    )


@st.composite
def batches(draw):
    config = PreprocessingConfig(
        top_k=draw(st.integers(1, 6)),
        min_peaks=draw(st.integers(1, 4)),
        scaling=draw(st.sampled_from(("sqrt", "rank", "none"))),
    )
    spectra = draw(st.lists(rows(config), min_size=0, max_size=12))
    return config, spectra


@given(case=batches())
@settings(max_examples=150, deadline=None)
def test_batch_equals_per_spectrum_oracle(case):
    config, spectra = case
    kept, kept_offsets = preprocess_batch(
        SpectrumBatch.from_spectra(spectra), config
    )
    expected = [
        (index, processed)
        for index, processed in (
            (index, oracles.preprocess_spectrum(spectrum, config))
            for index, spectrum in enumerate(spectra)
        )
        if processed is not None
    ]
    assert kept_offsets.tolist() == [index for index, _ in expected]
    assert kept.counts.tolist() == [s.peak_count for _, s in expected]
    empty = np.empty(0)
    assert kept.mz.tobytes() == np.concatenate(
        [empty] + [s.mz for _, s in expected]
    ).tobytes()
    assert kept.intensity.tobytes() == np.concatenate(
        [empty] + [s.intensity for _, s in expected]
    ).tobytes()
    for row, (index, processed) in zip(kept, expected):
        assert row.identifier == spectra[index].identifier
        assert row.precursor_charge == spectra[index].precursor_charge
