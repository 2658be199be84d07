import labt

PUBLIC_API = {
    "LabtConfig",
    "LabtResult",
    "run_labt",
    "MultiscanResult",
    "run_multiscan",
    "Otsu",
    "Adcdf",
    "MeanK",
    "NiblackParams",
    "niblack_binarize",
    "binarize_global",
    "PgmError",
    "read_pgm",
    "write_pgm",
    "psnr",
    "mean_range_width",
    "continuity_violations",
    "sweep",
}


def test_all_is_the_public_api_and_every_name_resolves():
    assert len(labt.__all__) == len(PUBLIC_API) == 18
    assert set(labt.__all__) == PUBLIC_API
    for name in labt.__all__:
        assert getattr(labt, name) is not None, name
