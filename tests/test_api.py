import qrevival

DELETED = ("closed_form_norm", "detect_superrevival", "oscillator_autocorr",
           "timescales", "TimescaleHierarchy", "BoundState",
           "eigenfunction_value", "infinite_evolve", "parity_filtered",
           "InfiniteWellState", "infinite_project", "table1_report",
           "RevivalReport", "BarkerApproximation", "evolve",
           "orthonormality_matrix")


def test_every_exported_name_resolves():
    assert len(set(qrevival.__all__)) == len(qrevival.__all__)
    for name in qrevival.__all__:
        assert getattr(qrevival, name) is not None, name


def test_deleted_names_are_gone():
    for name in DELETED:
        assert name not in qrevival.__all__
        assert not hasattr(qrevival, name)
