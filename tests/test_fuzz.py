"""Exit-code fuzzing of the command line: every input ends in a clean exit.

Command lines for the six subcommands draw each numeric option from a small
set of edge values, and channels from builtins (some sized by an edge
value) and from small channel files whose entries are edge values too
(0, 1, +-1e-200, +-1e200, and in one file in four a boolean or an integer
past the float range).
Each example runs in-process through `cli.main` and must end with exit
code 0, 2, 3 or 4, at most one stderr line and no traceback, no Python
warning (numpy's floating-point warnings among them), within
`SECONDS_PER_RUN`.
"""

import json
import time
import warnings

from hypothesis import HealthCheck, example, given, settings, strategies as st

from qcap import cli

NUMBERS = ("0", "-1", "1", "3", "nan", "inf", "1e300", str(2**64))
ENTRIES = (0, 1e-200, -1e-200, 1e200, -1e200, 1)
# a JSON boolean, and an integer past the float range, where a file needs a float
NOT_FLOATS = (True, 10**400)
# each subcommand's required options, and the values among NUMBERS that let a run go deep
REQUIRED = {"info": (), "bound": ("--code-dim",), "ensemble": ("--code-dim", "--samples"),
            "moments": ("--samples",), "typicality": ("--epsilon", "--n-min", "--n-max"),
            "rate-demo": ("--rate", "--epsilon", "--n-min", "--n-max")}
USABLE = {"--seed": ("0", "1", str(2**64 - 1)), "--code-dim": ("1", "3"), "--samples": ("1", "3"),
          "--epsilon": ("1", "3"), "--n-min": ("1",), "--n-max": ("1", "3"), "--rate": ("0", "1"),
          "--threads": ("1", "3")}
BUILTINS = ("builtin:phase_flip:0.25", "builtin:depolarizing:0.3", "builtin:identity:{}",
            "builtin:haar_random:2,2,{}", "builtin:random_unitary:2,{}",
            "builtin:depolarizing:0.1,{}")
SECONDS_PER_RUN = 10.0

numbers = st.sampled_from(NUMBERS)
builtins = st.builds(str.format, st.sampled_from(BUILTINS), numbers)


@st.composite
def channel_records(draw):
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    entry = st.lists(st.sampled_from(ENTRIES), min_size=2, max_size=2)
    matrix = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    kraus = draw(st.lists(matrix, min_size=1, max_size=2))
    if draw(st.integers(0, 3)) == 0:
        kraus[0][0][0][0] = draw(st.sampled_from(NOT_FLOATS))
    return {"input_dim": cols, "output_dim": rows, "kraus": kraus}


@st.composite
def command_lines(draw):
    """A subcommand with its required options, some others, and three in four values usable."""
    subcommand = draw(st.sampled_from(tuple(REQUIRED)))
    options = ["--seed", *REQUIRED[subcommand]]
    options += [o for o in USABLE if o not in options and draw(st.integers(0, 3)) == 0]
    argv = [subcommand]
    for option in options:
        usable = draw(st.integers(0, 3)) > 0
        argv += [option, draw(st.sampled_from(USABLE[option]) if usable else numbers)]
    return argv + ["--format", draw(st.sampled_from(("json", "csv")))]


OVERFLOWING = {"input_dim": 2, "output_dim": 2,
               "kraus": [[[[1e200, 0], [1e200, 0]], [[0, 0], [0, 0]]]]}
BOOLEAN = {"input_dim": 1, "output_dim": 1, "kraus": [[[[True, False]]]]}


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines(), channel=st.one_of(builtins, channel_records()))
@example(argv=["info", "--seed", "1"], channel=OVERFLOWING)
@example(argv=["info", "--seed", "1"], channel=BOOLEAN)
@example(argv=["info", "--seed", "1", "--format", "csv"], channel="builtin:identity:1")
@example(argv=["ensemble", "--code-dim", "0", "--samples", "3", "--seed", "1"],
         channel="builtin:phase_flip:0.25")
@example(argv=["ensemble", "--code-dim", "1", "--samples", str(2**64), "--seed", "1"],
         channel="builtin:phase_flip:0.25")
@example(argv=["bound", "--code-dim", "1", "--samples", "1000000000000", "--seed", "1"],
         channel="builtin:phase_flip:0.25")
@example(argv=["moments", "--samples", "1000000000000", "--seed", "1"],
         channel="builtin:phase_flip:0.25")
@example(argv=["typicality", "--epsilon", "1", "--n-min", "1", "--n-max", "3", "--seed", "1"],
         channel="builtin:depolarizing:0.1,3")
@example(argv=["rate-demo", "--rate", "1", "--epsilon", "3", "--n-min", "1", "--n-max", "3",
               "--seed", "1"], channel="builtin:haar_random:2,2,3")
def test_fuzzed_command_lines_exit_cleanly(capsys, tmp_path, argv, channel):
    if isinstance(channel, dict):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(channel), encoding="utf-8")
        channel = str(path)
    capsys.readouterr()
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main([*argv, "--channel", channel])
        except SystemExit as exc:        # argparse's one-line errors
            code = exc.code
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, err
    assert not caught, [str(w.message) for w in caught]
    assert elapsed < SECONDS_PER_RUN, elapsed
