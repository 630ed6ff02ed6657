"""The SIMD targets the golden digests and CALIBRATION.json were recorded with.

A verdict's bits depend on the kernel numpy dispatches ``exp`` and ``log2``
to and on the ``ddot`` kernel OpenBLAS picks for the host's CPU. So the same
code can miss a digest on a host with other targets; a failure message that
names both hosts' targets tells that apart from a code change.
"""

RECORDED = "exp X86_V4, log2 X86_V4, OpenBLAS core SkylakeX"


def host_note() -> str:
    """This host's numpy dispatch targets for float64 ``exp`` and ``log2``,
    beside the recording host's."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0 cannot say
        here = "unknown"
    else:
        info = opt_func_info(func_name="^(exp|log2)$", signature="float64")
        here = ", ".join(f"{name} {target['current']}" for name, sigs in sorted(info.items())
                         for target in sigs.values())
    return (f"numpy dispatch on this host: {here}; recorded with {RECORDED}"
            " (this host's OpenBLAS core: OPENBLAS_VERBOSE=2 python -c 'import numpy')")
