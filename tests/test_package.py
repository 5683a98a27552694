"""The package's export list: every listed name exists, once."""

import graftkit


class TestExportList:
    def test_every_name_resolves(self):
        missing = [name for name in graftkit.__all__
                   if not hasattr(graftkit, name)]
        assert missing == []

    def test_no_duplicates(self):
        assert len(set(graftkit.__all__)) == len(graftkit.__all__)

    def test_star_import(self):
        namespace = {}
        exec("from graftkit import *", namespace)
        assert set(graftkit.__all__) <= set(namespace)
