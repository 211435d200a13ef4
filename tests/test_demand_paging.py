"""No demand paging: every device buffer is pinned up front, so an access
to an unmapped virtual address faults instead of being paged in."""

import pytest

from repro import SystemConfig
from repro.core.system import AcceSysSystem
from repro.sim.transaction import Transaction
from repro.smmu.page_table import PageFault


def make_system():
    return AcceSysSystem(SystemConfig.table2_baseline())


UNMAPPED_VA = 0x3000_0000


class TestDemandPaging:
    def test_unmapped_faults_without_handler(self):
        system = make_system()
        with pytest.raises(PageFault):
            system.smmu.translate(
                Transaction.read(UNMAPPED_VA, 64), lambda t: None
            )
            system.run()
        assert system.smmu.stats["page_faults"].value == 0
