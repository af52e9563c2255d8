"""Bad input fails through the documented contract: a ValueError (a
CodecError for a stream, an IndexError past a coder's horizon) with its
own message."""

import re

import numpy as np
import pytest

from mdelta.codec import CodecError, decode, pack_stream
from mdelta.coders import KTCoder, MixtureCoder, NMLCoder
from mdelta.delta import DeltaSpec
from mdelta.lemmas import verify_deviation, verify_state_count
from mdelta.redundancy import comparison_radius
from mdelta.source import aggregate_moments, count_table, full_tree, parse_source, random_hypercube_source


def memory_two():
    return random_hypercube_source(2, 0.1, seed=1)


def nml_at_its_horizon():
    coder = NMLCoder(1, "0", horizon=2)
    coder.push(0)
    coder.push(1)
    return coder


REFUSALS = {
    "decode-negative-length": (lambda: decode(KTCoder(0), [], -1), ValueError, "cannot decode a negative length -1"),
    "pack-deep-header": (lambda: pack_stream([], 256, 4), CodecError, "depth 256 does not fit the header"),
    "delta-unknown-kind": (lambda: DeltaSpec("gauss", c=1.0), ValueError, "unknown delta kind 'gauss'"),
    "delta-empty-table": (lambda: DeltaSpec("table", values=()), ValueError, "table delta needs at least one value"),
    "delta-no-rate": (lambda: DeltaSpec("exp"), ValueError, "exp delta needs a rate parameter"),
    "delta-negative-depth": (lambda: DeltaSpec.parse("exp:1").raw(-1), ValueError, "depth must be non-negative"),
    "radius-depth-zero": (lambda: comparison_radius(64, 0, DeltaSpec.parse("exp:1")), ValueError,
                          "the radius needs ell >= 1"),
    "hypercube-wide": (lambda: random_hypercube_source(2, 0.3), ValueError, "half_width must lie in [0, 1/4)"),
    "aggregate-three-contexts": (lambda: aggregate_moments(memory_two(), np.zeros(3, int), np.zeros(3, int), 1),
                                 ValueError, "count arrays must span a power-of-two state space"),
    "aggregate-shallow-counts": (lambda: aggregate_moments(memory_two(), *count_table("0101", "00", 1), 1),
                                 ValueError, "count depth must cover both the target depth and the memory"),
    "parse-duplicate-header": (lambda: parse_source("memory 1\nmemory 1\n0 0.5\n1 0.5\n"), ValueError,
                               "line 2: duplicate memory header"),
    "parse-malformed-header": (lambda: parse_source("memory x\n"), ValueError, "line 1: malformed memory header"),
    "parse-three-fields": (lambda: parse_source("memory 1\n0 0.5 7\n"), ValueError,
                           "line 2: expected `context theta`"),
    "parse-no-header": (lambda: parse_source("# nothing\n"), ValueError, "missing memory header"),
    "nml-query-past-horizon": (lambda: nml_at_its_horizon().prob_one(), IndexError,
                               "NML coder queried past its horizon n=2"),
    "nml-push-past-horizon": (lambda: nml_at_its_horizon().push(0), IndexError,
                              "NML coder pushed past its horizon n=2"),
    "mixture-enumerates-its-horizon": (lambda: MixtureCoder(1, "0", horizon=4).log2_prob_all(3), ValueError,
                                       "mixture coder is defined on length-4 sequences"),
    "state-count-source-memory": (
        lambda: verify_state_count(ell=2, n=64, trials=2, source=random_hypercube_source(3, 0.1, seed=1)),
        ValueError, "supplied source must have memory equal to ell"),
    "deviation-depth-over-memory": (lambda: verify_deviation(ell=3, n=64, trials=2, source=memory_two()),
                                    ValueError, "deviation depth exceeds the source memory"),
    "truncate-negative-depth": (lambda: memory_two().truncate(-1), ValueError, "depth must be non-negative"),
    "full-tree-negative-depth": (lambda: full_tree(-1), ValueError, "depth must lie in 0..16, got -1"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_bad_input_is_refused_with_its_message(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match="^" + re.escape(message) + "$") as info:
        call()
    assert type(info.value) is error
